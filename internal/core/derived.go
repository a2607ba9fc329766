package core

import (
	"slmem/internal/memory"
)

// Counter is a lock-free strongly linearizable counter derived from the
// strongly linearizable snapshot (paper Section 4.5): component p holds the
// number of increments by process p, and a read sums the components.
//
// As the paper notes, the counter still stores unbounded values, but it uses
// a bounded number of registers — previously strongly linearizable counters
// required unboundedly many.
type Counter struct {
	snap  *Snapshot[uint64]
	count []uint64 // local increment counts, one slot per process
}

// NewCounter constructs a counter for n processes.
func NewCounter(alloc memory.Allocator, n int) *Counter {
	return &Counter{
		snap:  New[uint64](alloc, n, 0),
		count: make([]uint64, n),
	}
}

// Inc increments the counter as process p.
func (c *Counter) Inc(p int) {
	c.count[p]++
	c.snap.Update(p, c.count[p])
}

// Read returns the current count as process p.
func (c *Counter) Read(p int) uint64 {
	var sum uint64
	for _, v := range c.snap.sharedScan(p) {
		sum += v
	}
	return sum
}

// Stats returns the underlying snapshot's base-object operation counters.
func (c *Counter) Stats() *Stats { return c.snap.Stats() }

// MaxRegister is a lock-free strongly linearizable unbounded max-register
// derived from the strongly linearizable snapshot (paper Section 4.5):
// component p holds the largest value written by process p, and a read takes
// the maximum of the components.
type MaxRegister struct {
	snap  *Snapshot[uint64]
	local []uint64 // largest value each process has written
}

// NewMaxRegister constructs a max-register for n processes, initially 0.
func NewMaxRegister(alloc memory.Allocator, n int) *MaxRegister {
	return &MaxRegister{
		snap:  New[uint64](alloc, n, 0),
		local: make([]uint64, n),
	}
}

// MaxWrite raises the register to v if v exceeds its current value, as
// process p. Writes not exceeding the process's own prior maximum are
// no-ops with zero shared steps.
func (m *MaxRegister) MaxWrite(p int, v uint64) {
	if v <= m.local[p] {
		return
	}
	m.local[p] = v
	m.snap.Update(p, v)
}

// MaxRead returns the largest value ever written, as process p.
func (m *MaxRegister) MaxRead(p int) uint64 {
	var max uint64
	for _, v := range m.snap.sharedScan(p) {
		if v > max {
			max = v
		}
	}
	return max
}

// Stats returns the underlying snapshot's base-object operation counters.
func (m *MaxRegister) Stats() *Stats { return m.snap.Stats() }
