package comm_test

import (
	"fmt"
	"sort"
	"sync"

	"cadycore/internal/comm"
)

// Example shows the rank-SPMD programming model: goroutine ranks exchange
// point-to-point messages and gather with a collective, exactly like an MPI
// program would.
func Example() {
	w := comm.NewWorld(4, comm.Zero())
	var mu sync.Mutex
	var lines []string
	w.Run(func(c *comm.Comm) {
		// Ring shift: send my rank to the right, receive from the left.
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		c.Send(right, 0, []float64{float64(c.Rank())})
		from := make([]float64, 1)
		c.RecvInto(left, 0, from)

		// Gather every rank's number, then sum locally: 0+1+2+3 = 6.
		all := make([]float64, c.Size())
		c.Allgather([]float64{float64(c.Rank())}, all)
		total := 0.0
		for _, v := range all {
			total += v
		}

		mu.Lock()
		lines = append(lines, fmt.Sprintf("rank %d got %v from the left; sum = %v",
			c.Rank(), from[0], total))
		mu.Unlock()
	})
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// rank 0 got 3 from the left; sum = 6
	// rank 1 got 0 from the left; sum = 6
	// rank 2 got 1 from the left; sum = 6
	// rank 3 got 2 from the left; sum = 6
}

// ExampleWorld_Stats shows the communication accounting: counters and
// simulated times emerge from the messages the program actually sends.
func ExampleWorld_Stats() {
	w := comm.NewWorld(2, comm.NetModel{
		Latency: 1e-3, ByteTime: 0, SendOverhead: 0, ComputeRate: 1,
	})
	w.Run(func(c *comm.Comm) {
		c.SetCategory(comm.CatStencil)
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 125)) // 1000 bytes
		} else {
			c.RecvInto(0, 0, make([]float64, 125))
		}
	})
	a := w.Stats()
	fmt.Printf("messages: %d, bytes: %d\n", a.MsgsSent, a.BytesSent)
	fmt.Printf("stencil time at least one latency: %v\n", a.StencilTime() >= 1e-3)
	// Output:
	// messages: 1, bytes: 1000
	// stencil time at least one latency: true
}
