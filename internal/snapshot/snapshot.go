// Package snapshot provides linearizable single-writer snapshot objects
// built from atomic registers. These are the substrate "S" of the paper's
// Algorithm 3/4 (Section 4.3), which treats S as a black-box linearizable
// snapshot ("any lock-free or wait-free linearizable implementation").
//
// Two classic implementations are provided:
//
//   - DoubleCollect: the lock-free clean-double-collect algorithm of Afek,
//     Attiya, Dolev, Gafni, Merritt, and Shavit. A scan repeatedly collects
//     all components until two consecutive collects agree.
//   - Afek: the wait-free variant with embedded scans (helping): an updater
//     first performs a scan and publishes the view with its write, and a
//     scanner that observes some process move twice borrows that process's
//     published view.
//
// The paper uses the bounded Attiya–Rachman snapshot for concrete space
// bounds; both algorithms here are behaviourally interchangeable with it as
// the substrate (see DESIGN.md, "Model mismatch and substitutions").
//
// A Versioned wrapper exposes the per-scan version number (the sum of the
// per-component sequence numbers) needed by the Denysyuk–Woelfel unbounded
// construction of Section 4.1 (internal/versioned).
package snapshot

import (
	"fmt"
	"sync"

	"slmem/internal/memory"
)

// Snapshot is a linearizable single-writer snapshot object: component p is
// writable only by process p, and Scan returns a consistent view of all
// components.
type Snapshot[V any] interface {
	// Update sets component pid to x.
	Update(pid int, x V)
	// Scan returns a copy of the component vector.
	Scan(pid int) []V
}

// dcell is a snapshot component: the value and the writer's sequence number.
type dcell[V any] struct {
	val V
	seq uint64
}

// DoubleCollect is the lock-free clean-double-collect snapshot.
type DoubleCollect[V any] struct {
	n    int
	regs []memory.Reg[dcell[V]]
	seq  []uint64 // local per-writer sequence numbers
}

// stackCollect is the most components a DoubleCollect scan collects into
// arrays on its own stack; wider snapshots make two heap buffers per Scan.
const stackCollect = 32

var _ Snapshot[int] = (*DoubleCollect[int])(nil)

// NewDoubleCollect constructs a lock-free snapshot with n components, all
// initialized to initial.
func NewDoubleCollect[V any](alloc memory.Allocator, n int, initial V) *DoubleCollect[V] {
	if n < 1 {
		panic(fmt.Sprintf("snapshot: n = %d, need at least 1 process", n))
	}
	return &DoubleCollect[V]{
		n:    n,
		regs: memory.NewRegs(alloc, "snap.R", n, dcell[V]{val: initial}),
		seq:  make([]uint64, n),
	}
}

// Update implements Snapshot: one shared write.
func (s *DoubleCollect[V]) Update(pid int, x V) {
	s.seq[pid]++
	s.regs[pid].Write(pid, dcell[V]{val: x, seq: s.seq[pid]})
}

func (s *DoubleCollect[V]) collectInto(pid int, out []dcell[V]) {
	for i := range s.regs {
		out[i] = s.regs[i].Read(pid)
	}
}

func seqsEqual[V any](a, b []dcell[V]) bool {
	for i := range a {
		// Sequence numbers identify writes: a component with an unchanged
		// sequence number has an unchanged value.
		if a[i].seq != b[i].seq {
			return false
		}
	}
	return true
}

func values[V any](cells []dcell[V]) []V {
	out := make([]V, len(cells))
	for i, c := range cells {
		out[i] = c.val
	}
	return out
}

// Scan implements Snapshot: collect until two consecutive collects agree
// (a "clean double collect"). Lock-free: a failed pair of collects means a
// concurrent Update completed.
func (s *DoubleCollect[V]) Scan(pid int) []V {
	view, _ := s.ScanVersioned(pid)
	return view
}

// ScanVersioned is Scan returning also the view's version: the sum of all
// component sequence numbers, which increases with every Update (the
// versioned-object interface of paper Section 4.1).
//
// Both collects go into arrays on this frame's stack when the snapshot has
// at most stackCollect components, and into two fresh buffers otherwise;
// only the returned view escapes.
func (s *DoubleCollect[V]) ScanVersioned(pid int) ([]V, uint64) {
	var a1, a2 [stackCollect]dcell[V]
	c1, c2 := a1[:], a2[:]
	if s.n <= stackCollect {
		c1, c2 = c1[:s.n], c2[:s.n]
	} else {
		c1, c2 = make([]dcell[V], s.n), make([]dcell[V], s.n)
	}
	s.collectInto(pid, c1)
	for {
		s.collectInto(pid, c2)
		if seqsEqual(c1, c2) {
			var version uint64
			for _, c := range c2 {
				version += c.seq
			}
			return values(c2), version
		}
		c1, c2 = c2, c1
	}
}

// acell is an Afek-snapshot component: value, sequence number, and the view
// the updater embedded with its write.
type acell[V any] struct {
	val  V
	seq  uint64
	view []V // immutable once written
}

// Afek is the wait-free snapshot with embedded scans.
type Afek[V any] struct {
	n    int
	regs []memory.Reg[acell[V]]
	seq  []uint64
	bufs sync.Pool // *afekScratch[V], recycled across Scans
}

// afekScratch is one Scan's worth of Afek scratch: two collect buffers and
// the moved flags. None of it escapes a Scan (borrowed views are copied out).
type afekScratch[V any] struct {
	c1, c2 []acell[V]
	moved  []bool
}

var _ Snapshot[int] = (*Afek[int])(nil)

// NewAfek constructs a wait-free snapshot with n components, all initialized
// to initial.
func NewAfek[V any](alloc memory.Allocator, n int, initial V) *Afek[V] {
	if n < 1 {
		panic(fmt.Sprintf("snapshot: n = %d, need at least 1 process", n))
	}
	return &Afek[V]{
		n:    n,
		regs: memory.NewRegs(alloc, "snap.A", n, acell[V]{val: initial}),
		seq:  make([]uint64, n),
	}
}

// Update implements Snapshot: an embedded Scan followed by one write that
// publishes the new value together with the scanned view.
func (s *Afek[V]) Update(pid int, x V) {
	view := s.Scan(pid)
	s.seq[pid]++
	s.regs[pid].Write(pid, acell[V]{val: x, seq: s.seq[pid], view: view})
}

func (s *Afek[V]) getScratch() *afekScratch[V] {
	if sc, ok := s.bufs.Get().(*afekScratch[V]); ok {
		for q := range sc.moved {
			sc.moved[q] = false
		}
		return sc
	}
	return &afekScratch[V]{
		c1:    make([]acell[V], s.n),
		c2:    make([]acell[V], s.n),
		moved: make([]bool, s.n),
	}
}

func (s *Afek[V]) collectInto(pid int, out []acell[V]) {
	for i := range s.regs {
		out[i] = s.regs[i].Read(pid)
	}
}

// Scan implements Snapshot. Wait-free: after at most n+1 collect pairs some
// process has been seen to move twice, and its embedded view (which is a
// valid snapshot taken within our interval) is borrowed.
func (s *Afek[V]) Scan(pid int) []V {
	sc := s.getScratch()
	c1, c2 := sc.c1, sc.c2
	s.collectInto(pid, c1)
	for {
		s.collectInto(pid, c2)
		clean := true
		for q := 0; q < s.n; q++ {
			if c1[q].seq != c2[q].seq {
				clean = false
				if sc.moved[q] {
					// q performed two Updates during this Scan; its second
					// embedded view was taken entirely inside our interval.
					out := make([]V, len(c2[q].view))
					copy(out, c2[q].view)
					s.bufs.Put(sc)
					return out
				}
				sc.moved[q] = true
			}
		}
		if clean {
			out := avalues(c2)
			s.bufs.Put(sc)
			return out
		}
		c1, c2 = c2, c1
	}
}

func avalues[V any](cells []acell[V]) []V {
	out := make([]V, len(cells))
	for i, c := range cells {
		out[i] = c.val
	}
	return out
}
