// Package comm is a fixture stand-in for the module's communicator: cadyvet
// matches collective APIs by package name and type name, so this minimal
// replica exercises the analyzers without importing the real library (fixture
// packages are typechecked from source, with no stdlib export data).
package comm

// Comm is the fixture communicator.
type Comm struct {
	rank, size int
}

func (c *Comm) Rank() int { return c.rank }
func (c *Comm) Size() int { return c.size }

// Collectives: bodies are empty on purpose — the fixtures test call *sites*.
func (c *Comm) Allgather(send, recv []float64)  {}
func (c *Comm) Alltoall(send, recv [][]float64) {}
func (c *Comm) Split(color, key int) *Comm      { return c }

// Point-to-point: rank-addressed by design, not collectives.
func (c *Comm) Send(dst, tag int, data []float64)                       {}
func (c *Comm) Lend(dst, tag int, data []float64, runs []Run, l *Loans) {}
func (c *Comm) RecvInto(src, tag int, buf []float64) int                { return 0 }
func (c *Comm) RecvRuns(src, tag int, buf []float64, runs []Run) int    { return 0 }

// Run and Loans: the loan transport's run lists and loan group.
type Run struct{ Off, Len int }

type Loans struct{ n int }

func (l *Loans) Wait() {}
