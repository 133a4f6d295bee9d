package comm

import (
	"testing"
)

// faultWorkload is a small mixed compute/p2p/collective program whose
// statistics are sensitive to any clock perturbation.
func faultWorkload(c *Comm) {
	c.Compute(1000)
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() + c.Size() - 1) % c.Size()
	for i := 0; i < 5; i++ {
		c.Send(next, i, []float64{float64(i), 2, 3})
		c.RecvInto(prev, i, make([]float64, 3))
		c.Compute(300)
	}
	c.Allgather([]float64{float64(c.Rank())}, make([]float64, c.Size()))
}

func runFaultWorkload(t *testing.T, f *Faults) []Stats {
	t.Helper()
	w := NewWorld(4, TianheLike())
	if f != nil {
		w.SetFaults(f)
	}
	out := make([]Stats, 4)
	w.Run(func(c *Comm) {
		faultWorkload(c)
		out[c.Rank()] = c.Stats()
	})
	return out
}

// TestInertFaultsBitwiseIdentical is the zero-fault-path guarantee: both a
// nil profile and an installed-but-inert profile leave every rank's clock
// and counters bitwise identical to a fault-free run.
func TestInertFaultsBitwiseIdentical(t *testing.T) {
	base := runFaultWorkload(t, nil)
	for _, tc := range []struct {
		name string
		f    *Faults
	}{
		{"inert profile", NewFaults(4, 42)},
		{"nil profile", nil},
	} {
		name, got := tc.name, runFaultWorkload(t, tc.f)
		for r := range base {
			if got[r] != base[r] {
				t.Errorf("%s: rank %d stats differ:\n got %+v\nwant %+v", name, r, got[r], base[r])
			}
		}
	}
}

func TestStragglerScalesComputeExactly(t *testing.T) {
	base := runFaultWorkload(t, nil)
	f := NewFaults(4, 1)
	f.Rank(2).ComputeScale = 2
	got := runFaultWorkload(t, f)
	if got[2].CompTime != 2*base[2].CompTime {
		t.Errorf("straggler comp time %g, want exactly 2x %g", got[2].CompTime, base[2].CompTime)
	}
	// The other ranks' own compute is untouched (their clocks may stall
	// longer waiting on the straggler, but CompTime is local work only).
	for _, r := range []int{0, 1, 3} {
		if got[r].CompTime != base[r].CompTime {
			t.Errorf("rank %d comp time %g changed by a peer's straggling (want %g)", r, got[r].CompTime, base[r].CompTime)
		}
	}
	if got[2].Clock <= base[2].Clock {
		t.Errorf("straggler clock %g did not advance past fault-free %g", got[2].Clock, base[2].Clock)
	}
}

func TestJitterDelaysReceivers(t *testing.T) {
	f := NewFaults(4, 7)
	for r := 0; r < 4; r++ {
		f.Rank(r).JitterProb = 1
		f.Rank(r).JitterMax = 1e-3
	}
	base := runFaultWorkload(t, nil)
	got := runFaultWorkload(t, f)
	slower := 0
	for r := range got {
		if got[r].Clock > base[r].Clock {
			slower++
		}
		if got[r].CompTime != base[r].CompTime {
			t.Errorf("rank %d comp time changed by jitter", r)
		}
	}
	if slower == 0 {
		t.Errorf("always-on jitter did not slow any rank")
	}
}

func TestSendErrorsChargeSender(t *testing.T) {
	f := NewFaults(4, 3)
	f.Rank(1).SendErrProb = 0.9
	f.Rank(1).SendErrCost = 1e-3
	base := runFaultWorkload(t, nil)
	got := runFaultWorkload(t, f)
	d := got[1].TotalCommTime()
	b := base[1].TotalCommTime()
	if d <= b {
		t.Errorf("rank 1 comm time %g with p=0.9 send errors, want > fault-free %g", d, b)
	}
}

// TestFaultsDeterministic: identical plans inject identically regardless of
// scheduling — per-rank streams are consumed in program order only.
func TestFaultsDeterministic(t *testing.T) {
	mk := func() *Faults {
		f := NewFaults(4, 99)
		for r := 0; r < 4; r++ {
			f.Rank(r).JitterProb = 0.5
			f.Rank(r).JitterMax = 1e-3
			f.Rank(r).SendErrProb = 0.3
			f.Rank(r).SendErrCost = 1e-4
		}
		f.Rank(0).ComputeScale = 1.5
		return f
	}
	a := runFaultWorkload(t, mk())
	for trial := 0; trial < 3; trial++ {
		b := runFaultWorkload(t, mk())
		for r := range a {
			if a[r] != b[r] {
				t.Fatalf("trial %d: rank %d stats differ:\n got %+v\nwant %+v", trial, r, b[r], a[r])
			}
		}
	}
}

func TestSetFaultsSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetFaults with wrong size did not panic")
		}
	}()
	NewWorld(2, Zero()).SetFaults(NewFaults(3, 0))
}

// injectedTestFault is a stand-in for dycore.RankFailure.
type injectedTestFault struct{}

func (injectedTestFault) InjectedFault() {}
func (injectedTestFault) Error() string  { return "injected test fault" }

// TestRunPrefersInjectedPanic: when an injected death cascades into
// receive-poison panics on surviving ranks, Run reports the injected value.
func TestRunPrefersInjectedPanic(t *testing.T) {
	w := NewWorld(3, Zero())
	defer func() {
		p := recover()
		rp, ok := p.(RankPanic)
		if !ok {
			t.Fatalf("recovered %T, want RankPanic", p)
		}
		if _, ok := rp.Val.(injectedTestFault); !ok {
			t.Fatalf("RankPanic.Val = %v (%T), want the injected fault", rp.Val, rp.Val)
		}
		if rp.Rank != 1 {
			t.Fatalf("RankPanic.Rank = %d, want 1", rp.Rank)
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic(injectedTestFault{})
		}
		// Peers block on a message the dead rank will never send; the
		// poison cascade must lose to the injected panic above.
		c.RecvInto(1, 0, make([]float64, 1))
	})
	t.Fatal("Run returned without panicking")
}
