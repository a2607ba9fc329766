package snapshot

import (
	"fmt"
	"strconv"

	"slmem/internal/memory"
)

// hcell is a component of the bounded handshake snapshot: the value, a
// toggle bit flipped by every update, and the updater's embedded view.
// Unlike dcell/acell there is no unbounded sequence number — modification
// detection uses the handshake bits and the toggle.
type hcell[V any] struct {
	val    V
	toggle bool
	view   []V // immutable once written
}

// Handshake is the bounded wait-free single-writer snapshot of Afek,
// Attiya, Dolev, Gafni, Merritt, and Shavit: the sequence numbers of the
// simple variants are replaced by O(n²) single-bit handshake registers plus
// a per-component toggle bit, so every register holds bounded state.
//
// Updaters handshake with every potential scanner, embed a scan with their
// write, and flip their toggle. Scanners handshake, double-collect, and
// treat a handshake or toggle discrepancy as a detected move; a process seen
// moving twice has performed a complete update inside the scan, so its
// embedded view can be borrowed.
//
// Using Handshake as the substrate S of the paper's Algorithm 3 yields a
// strongly linearizable snapshot whose registers are ALL bounded, matching
// Theorem 2's O(n) registers of size O(log n + log |D|) up to the O(n²)
// handshake bits of this classic substrate.
type Handshake[V any] struct {
	n    int
	regs []memory.Reg[hcell[V]]
	// q[j][i]: written by updater j to handshake with scanner i.
	q [][]memory.Reg[bool]
	// p[i][j]: written by scanner i to handshake with updater j.
	p [][]memory.Reg[bool]
	// toggle[j]: local mirror of j's toggle bit (single writer).
	toggle []bool
}

var _ Snapshot[int] = (*Handshake[int])(nil)

// NewHandshake constructs the bounded snapshot with n components, all
// initialized to initial.
func NewHandshake[V any](alloc memory.Allocator, n int, initial V) *Handshake[V] {
	if n < 1 {
		panic(fmt.Sprintf("snapshot: n = %d, need at least 1 process", n))
	}
	initView := make([]V, n)
	for i := range initView {
		initView[i] = initial
	}
	s := &Handshake[V]{
		n:      n,
		regs:   memory.NewRegs(alloc, "snap.H", n, hcell[V]{val: initial, view: initView}),
		q:      make([][]memory.Reg[bool], n),
		p:      make([][]memory.Reg[bool], n),
		toggle: make([]bool, n),
	}
	for j := range s.regs {
		row := "[" + strconv.Itoa(j) + "]"
		s.q[j] = memory.NewRegs(alloc, "snap.q"+row, n, false)
		s.p[j] = memory.NewRegs(alloc, "snap.p"+row, n, false)
	}
	return s
}

// Update implements Snapshot: handshake with every scanner, embed a scan,
// write value + flipped toggle. Wait-free.
func (s *Handshake[V]) Update(pid int, x V) {
	// Handshake: announce "an update is in progress" to every scanner by
	// making q[pid][i] differ from p[i][pid].
	for i := 0; i < s.n; i++ {
		s.q[pid][i].Write(pid, !s.p[i][pid].Read(pid))
	}
	view := s.Scan(pid)
	s.toggle[pid] = !s.toggle[pid]
	s.regs[pid].Write(pid, hcell[V]{val: x, toggle: s.toggle[pid], view: view})
}

// hsObservation is one scanner observation of updater j.
type hsObservation[V any] struct {
	q    bool
	cell hcell[V]
}

func (s *Handshake[V]) collect(pid int) []hsObservation[V] {
	out := make([]hsObservation[V], s.n)
	for j := 0; j < s.n; j++ {
		out[j].q = s.q[j][pid].Read(pid)
		out[j].cell = s.regs[j].Read(pid)
	}
	return out
}

// Scan implements Snapshot.
//
// Move evidence per updater j comes in two kinds:
//
//   - started: q[j][pid] differs from the acknowledged handshake — j began
//     an update AFTER this scan's handshake, so that update's embedded scan
//     lies within this scan's interval;
//   - completed: j's toggle changed between the two collects — some write
//     by j landed inside this double collect.
//
// A view may be borrowed only when a write provably belongs to an update
// that started inside this scan: either a second `started` for j, or a
// `completed` observed in a round after j's `started` was recorded. A bare
// toggle flip can come from an update that began before this scan and its
// embedded view could predate the scan, so it never justifies borrowing on
// its own.
//
// Wait-free: per updater there is at most one pre-scan completion round and
// one recorded start before a borrow triggers, so the loop runs at most
// O(n) rounds.
func (s *Handshake[V]) Scan(pid int) []V {
	// Handshake with every updater and remember what we acknowledged.
	shake := make([]bool, s.n)
	for j := 0; j < s.n; j++ {
		shake[j] = s.q[j][pid].Read(pid)
		s.p[pid][j].Write(pid, shake[j])
	}
	startRound := make([]int, s.n) // 0 = no start recorded; else round number
	for round := 1; ; round++ {
		c1 := s.collect(pid)
		c2 := s.collect(pid)
		clean := true
		for j := 0; j < s.n; j++ {
			started := c1[j].q != shake[j] || c2[j].q != shake[j]
			completed := c1[j].cell.toggle != c2[j].cell.toggle
			if !started && !completed {
				continue
			}
			clean = false
			if startRound[j] > 0 && startRound[j] < round && (started || completed) {
				// The register now holds a write from an update that began
				// after startRound[j]'s evidence, i.e. inside this scan;
				// its embedded view is a snapshot within our interval.
				out := make([]V, len(c2[j].cell.view))
				copy(out, c2[j].cell.view)
				return out
			}
			if started && startRound[j] == 0 {
				startRound[j] = round
				// Acknowledge, so only a further update counts as started.
				shake[j] = c2[j].q
				s.p[pid][j].Write(pid, shake[j])
			}
		}
		if clean {
			out := make([]V, s.n)
			for j := range out {
				out[j] = c2[j].cell.val
			}
			return out
		}
	}
}
