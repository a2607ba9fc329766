// Allocation accounting for the hot paths (the -benchmem companion
// assertions): the pid-lease layer must be allocation-free, the direct
// counter Inc path must stay at its three-publication floor, and the scan,
// DRead and counter Read paths at theirs.
package slmem

import (
	"context"
	"testing"
)

// TestPooledCounterIncAllocs pins the allocation budget of the counter Inc
// hot path after the typed-register and word-register work:
//
//   - The pooled path (lease + Inc + release) adds at most 1 allocation
//     over the direct path — in practice 0: Acquire, the closure, and
//     Release all stay on the stack.
//   - The direct path itself performs exactly 3 allocations, one per
//     shared-value publication: the snapshot component cell (S.update),
//     the scanned view handed to R (S.scan), and R's tagged cell
//     (R.DWrite). Register values are immutable and shared with readers
//     indefinitely, so these cannot be pooled; this is the floor for a
//     register-based implementation. S.scan collects on the stack, and
//     R's announcements are word registers, so neither allocates.
//
// (Before this work the direct path was 7 allocs/op: interface boxing on
// every register write and two fresh collect buffers per scan.)
func TestPooledCounterIncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts (sync.Pool drops puts)")
	}
	const n = 4
	ctx := context.Background()
	direct := NewCounter(n)
	pooled := NewPooledCounter(n)
	// Warm both paths (first ops allocate the writers' GetSeq state and
	// populate the lease stripes).
	for i := 0; i < 8; i++ {
		direct.Inc(0)
		if err := pooled.Inc(ctx); err != nil {
			t.Fatal(err)
		}
	}

	directAllocs := testing.AllocsPerRun(500, func() { direct.Inc(0) })
	pooledAllocs := testing.AllocsPerRun(500, func() {
		if err := pooled.Inc(ctx); err != nil {
			t.Fatal(err)
		}
	})

	// The +0.1 slack absorbs a stray allocation from a GC during the run
	// (the lease layer's sync.Pool can be drained by one) without masking
	// a real per-op regression.
	if directAllocs > 3.1 {
		t.Errorf("direct Inc = %.2f allocs/op, want <= 3 (one per shared-value publication)", directAllocs)
	}
	if overhead := pooledAllocs - directAllocs; overhead > 1.1 {
		t.Errorf("pooled Inc adds %.2f allocs/op over direct (%.2f vs %.2f), want <= 1",
			overhead, pooledAllocs, directAllocs)
	}
}

// TestSnapshotScanAllocs pins the Scan path: both collects of S.scan run
// in stack arrays and R's announcements are word registers, so a solo Scan
// costs the view S.scan returns and the copy of the agreeing R view handed
// to the caller — 2 allocations.
func TestSnapshotScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const n = 4
	s := NewSnapshot[uint64](n, 0)
	for pid := 0; pid < n; pid++ {
		s.Update(pid, uint64(pid))
	}
	s.Scan(0)
	allocs := testing.AllocsPerRun(500, func() { s.Scan(0) })
	if allocs > 2.1 {
		t.Errorf("solo Scan = %.2f allocs/op, want <= 2", allocs)
	}
}

// TestABADReadAllocs pins Algorithm 2's DRead at zero allocations: its two
// reads of X load a pointer, and its announcement in A[q] is one atomic
// word store.
func TestABADReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const n = 4
	r := NewABARegister[uint64](n, 0)
	r.DWrite(1, 7)
	r.DRead(0)
	allocs := testing.AllocsPerRun(500, func() { r.DRead(0) })
	if allocs > 0 {
		t.Errorf("solo DRead = %.2f allocs/op, want 0", allocs)
	}
}

// TestCounterReadAllocs pins the counter's Read: it sums the agreed R view
// in place instead of copying it, so the only allocation is the view
// S.scan returns.
func TestCounterReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const n = 4
	c := NewCounter(n)
	for pid := 0; pid < n; pid++ {
		c.Inc(pid)
	}
	c.Read(0)
	allocs := testing.AllocsPerRun(500, func() { c.Read(0) })
	if allocs > 1.1 {
		t.Errorf("solo counter Read = %.2f allocs/op, want <= 1", allocs)
	}
}
