// Fixture for goleak: timer-leak idioms are flagged module-wide.
package goleak

import "time"

func pollLoop(stop chan int) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(time.Duration(10)): // want "time.After inside a loop"
		}
	}
}

func tick() <-chan int {
	return time.Tick(time.Duration(5)) // want "time.Tick leaks its ticker"
}

func afterOnce() {
	<-time.After(time.Duration(1)) // ok: not in a loop
}

func goodLoop(stop chan int) {
	t := time.NewTimer(time.Duration(10))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			t.Reset(time.Duration(10))
		}
	}
}
