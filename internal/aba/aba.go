// Package aba implements ABA-detecting registers (paper Section 3).
//
// An ABA-detecting register stores a value and supports DWrite(x) and
// DRead() -> (x, flag), where flag is true iff the calling process has
// performed an earlier DRead and some DWrite happened since.
//
// Two implementations are provided, built from atomic registers only:
//
//   - Linearizable: the wait-free linearizable register of Aghazadeh and
//     Woelfel (the paper's Algorithm 1). The paper's Observation 4 proves it
//     is NOT strongly linearizable; the test suite reproduces that proof
//     mechanically.
//   - Strong: the paper's lock-free strongly linearizable modification
//     (Algorithm 2): DRead retries its read sequence until it observes a
//     quiescent period, so every operation linearizes at its final shared
//     step (Theorems 1, 12, 14).
//
// Both use the same writer machinery: writes are tagged with the writer's
// id and a bounded sequence number chosen by GetSeq to avoid numbers that
// readers may still rely on (announced in A, or among the writer's n+1 most
// recently used).
//
// Methods take the calling process id; per-process local state (the paper's
// usedQ, na, c, and Algorithm 1's b flag) is kept in per-pid slots, so each
// pid must be driven by at most one goroutine at a time.
package aba

import (
	"fmt"
	"math/bits"

	"slmem/internal/memory"
)

// noSeq is the paper's ⊥ for sequence numbers and process ids.
const noSeq = -1

// cell is the content of the main register X: a value tagged with the
// writing process and its sequence number.
type cell[V any] struct {
	val V
	pid int
	seq int
}

// tag is the (process id, sequence number) pair announced in A, packed into
// one machine word as (pid+1)<<32 | (seq+1), so ⊥ (−1, −1) is 0. A[i] holds
// one such word: the pair was always a single value of a single atomic
// register in the paper's model, and packing it changes only how that value
// is represented, not which steps read or write it. String prints the pair
// as the unpacked struct {pid seq} would, so transcripts name it the same.
type tag uint64

func packTag(pid, seq int) tag { return tag(uint64(pid+1)<<32 | uint64(seq+1)) }

func (t tag) pid() int { return int(t>>32) - 1 }
func (t tag) seq() int { return int(t&0xffffffff) - 1 }

func (t tag) String() string { return fmt.Sprintf("{%d %d}", t.pid(), t.seq()) }

func (c cell[V]) tag() tag { return packTag(c.pid, c.seq) }

// seqQueue is the paper's usedQ: the writer's n+1 most recently used
// sequence numbers, as a fixed-size ring. enqueue-then-dequeue of the paper
// is replacing the oldest entry.
type seqQueue struct {
	buf  []int
	head int
}

func newSeqQueue(size int) *seqQueue {
	buf := make([]int, size)
	for i := range buf {
		buf[i] = noSeq
	}
	return &seqQueue{buf: buf}
}

func (q *seqQueue) pushPop(s int) {
	q.buf[q.head] = s
	q.head = (q.head + 1) % len(q.buf)
}

// writerLocal is the per-process local state of the DWrite/GetSeq machinery,
// allocated on the process's first DWrite: processes that only read never
// pay for it.
type writerLocal struct {
	usedQ *seqQueue
	na    []int    // na[i] = sequence number announced at A[i], noSeq if none
	mask  []uint64 // GetSeq scratch: one bit per number in {0,...,2n+1}
	c     int      // round-robin cursor over A
}

func newWriterLocal(n int) writerLocal {
	na := make([]int, n)
	for i := range na {
		na[i] = noSeq
	}
	return writerLocal{
		usedQ: newSeqQueue(n + 1),
		na:    na,
		mask:  make([]uint64, (2*n+2+63)/64),
	}
}

// base holds the shared registers and per-process locals common to both
// implementations.
type base[V any] struct {
	n  int
	eq func(a, b V) bool
	x  memory.Reg[cell[V]]
	a  []memory.Word[tag]
	w  []writerLocal
}

func newBase[V any](alloc memory.Allocator, n int, initial V, eq func(a, b V) bool) *base[V] {
	if n < 1 {
		panic(fmt.Sprintf("aba: n = %d, need at least 1 process", n))
	}
	return &base[V]{
		n:  n,
		eq: eq,
		x:  memory.NewReg(alloc, "aba.X", cell[V]{val: initial, pid: noSeq, seq: noSeq}),
		a:  memory.NewWords(alloc, "aba.A", n, packTag(noSeq, noSeq)),
		w:  make([]writerLocal, n),
	}
}

// getSeq implements the paper's GetSeq (Algorithm 1, lines 3-14): read one
// announcement (round-robin), remember it if it names this writer, and pick
// a sequence number from {0,...,2n+1} that is neither announced nor among
// the writer's n+1 most recently used. One shared-memory step.
func (b *base[V]) getSeq(p int) int {
	l := &b.w[p]
	if l.usedQ == nil {
		*l = newWriterLocal(b.n)
	}
	ann := b.a[l.c].Read(p) // line 3
	if ann.pid() == p {     // lines 4-9
		l.na[l.c] = ann.seq()
	} else {
		l.na[l.c] = noSeq
	}
	l.c = (l.c + 1) % b.n // line 10

	s := freeSeq(l.usedQ.buf, l.na, l.mask, b.n) // line 11
	l.usedQ.pushPop(s)                           // lines 12-13
	return s
}

// freeSeq is GetSeq's line 11: the smallest number in {0,...,2n+1} that is
// in neither used nor na. It marks both lists in mask (one bit per number,
// cleared first) and returns the lowest clear bit: O(n) instead of the
// O(n²) scan of each candidate against each list. The domain has 2n+2
// values; at most n are announced and n+1 recently used, so one is always
// free.
func freeSeq(used, na []int, mask []uint64, n int) int {
	clear(mask)
	top := 2*n + 1
	for _, v := range used {
		if v >= 0 && v <= top {
			mask[v>>6] |= 1 << (v & 63)
		}
	}
	for _, v := range na {
		if v >= 0 && v <= top {
			mask[v>>6] |= 1 << (v & 63)
		}
	}
	for i, m := range mask {
		if m != ^uint64(0) {
			if s := i<<6 + bits.TrailingZeros64(^m); s <= top {
				return s
			}
			break
		}
	}
	// Unreachable by the counting argument above.
	panic("aba: no available sequence number")
}

// dWrite implements DWrite (Algorithm 1, lines 1-2): two shared steps.
func (b *base[V]) dWrite(p int, x V) {
	s := b.getSeq(p)
	b.x.Write(p, cell[V]{val: x, pid: p, seq: s})
}

func (b *base[V]) cellEq(c1, c2 cell[V]) bool {
	return c1.pid == c2.pid && c1.seq == c2.seq && b.eq(c1.val, c2.val)
}

// Linearizable is the wait-free linearizable ABA-detecting register of
// Aghazadeh and Woelfel (Algorithm 1). It is linearizable but not strongly
// linearizable (Observation 4).
type Linearizable[V any] struct {
	*base[V]
	b []bool // per-process delegation flag (paper's local b)
}

// NewLinearizable constructs Algorithm 1 for n processes over comparable
// values, initialized to initial (the paper's ⊥).
func NewLinearizable[V comparable](alloc memory.Allocator, n int, initial V) *Linearizable[V] {
	return NewLinearizableFunc(alloc, n, initial, func(a, b V) bool { return a == b })
}

// NewLinearizableFunc is NewLinearizable with an explicit value-equality
// function, for value types that are not comparable (e.g. vectors).
func NewLinearizableFunc[V any](alloc memory.Allocator, n int, initial V, eq func(a, b V) bool) *Linearizable[V] {
	return &Linearizable[V]{
		base: newBase(alloc, n, initial, eq),
		b:    make([]bool, n),
	}
}

// DWrite writes x as process p. Wait-free; exactly two shared steps.
func (r *Linearizable[V]) DWrite(p int, x V) { r.dWrite(p, x) }

// DRead returns the current value and the modification flag, as process q
// (Algorithm 1, lines 15-31). Wait-free: four shared steps.
func (r *Linearizable[V]) DRead(q int) (V, bool) {
	c1 := r.x.Read(q)         // line 15
	ann := r.a[q].Read(q)     // line 16
	r.a[q].Write(q, c1.tag()) // line 17
	c2 := r.x.Read(q)         // line 18
	var ret bool
	if c1.tag() == ann { // line 19
		ret = r.b[q] // line 20
	} else {
		ret = true // line 23
	}
	if r.cellEq(c1, c2) { // line 25
		r.b[q] = false // line 26
	} else {
		r.b[q] = true // line 29
	}
	return c1.val, ret // line 31
}

// Strong is the paper's lock-free strongly linearizable ABA-detecting
// register (Algorithm 2 with the Algorithm 1 writer).
//
// DRead repeats its read sequence until X and A[q] are mutually consistent
// and unchanged, so it can linearize at its final shared step; DWrite
// linearizes at its write to X. Theorem 12 proves strong linearizability;
// Theorem 14 bounds the total work.
type Strong[V any] struct {
	*base[V]
}

// NewStrong constructs Algorithm 2 for n processes over comparable values,
// initialized to initial (the paper's ⊥).
func NewStrong[V comparable](alloc memory.Allocator, n int, initial V) *Strong[V] {
	return NewStrongFunc(alloc, n, initial, func(a, b V) bool { return a == b })
}

// NewStrongFunc is NewStrong with an explicit value-equality function.
func NewStrongFunc[V any](alloc memory.Allocator, n int, initial V, eq func(a, b V) bool) *Strong[V] {
	return &Strong[V]{base: newBase(alloc, n, initial, eq)}
}

// DWrite writes x as process p. Wait-free; exactly two shared steps.
func (r *Strong[V]) DWrite(p int, x V) { r.dWrite(p, x) }

// DRead returns the current value and the modification flag, as process q
// (Algorithm 2, lines 32-42). Lock-free: retries while concurrent DWrites
// land, then linearizes at its final read of X.
func (r *Strong[V]) DRead(q int) (V, bool) {
	changed := false // line 32
	for {            // line 33
		c1 := r.x.Read(q)         // line 34
		ann := r.a[q].Read(q)     // line 35
		r.a[q].Write(q, c1.tag()) // line 36
		c2 := r.x.Read(q)         // line 37
		quiet := c1.tag() == ann && r.cellEq(c1, c2)
		if !quiet { // lines 38-40
			changed = true
			continue // line 41
		}
		return c2.val, changed // line 42
	}
}
