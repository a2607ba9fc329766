// Package bag implements a lock-free strongly linearizable bag (multiset)
// of strings, following the approach of Ellen and Sela, "Strong
// Linearizability without Compare&Swap: The Case of Bags" (2024): strong
// linearizability is achieved from primitives strictly weaker than
// compare-and-swap — atomic registers (here, the repo's own strongly
// linearizable snapshot, itself built from registers) plus per-item
// test-and-set bits (implemented with atomic swap, i.e. fetch-and-store).
// Like Ovens and Woelfel's snapshot, the point is that the strong guarantee
// composed randomized clients need does not require the strongest
// synchronization primitive.
//
// # Structure
//
// Each process p owns an append-only log of the items it inserted, stored
// in chunks whose cells carry the value and a test-and-set "claimed" bit.
// How many items p has published is component p of an n-component strongly
// linearizable snapshot (slmem.Snapshot[int]): Insert writes the value
// into the log and then publishes the new count with Update; Remove and
// Size learn about items only through Scan, so a cell is read only after
// the Update that published it (the snapshot's internal synchronization
// makes the value write visible).
//
// # Linearization points (proof sketch)
//
//   - Insert linearizes at the linearization point of its snapshot Update.
//     The substrate is strongly linearizable, so this point is fixed once
//     reached and never revised.
//   - A successful Remove linearizes at its winning test-and-set — a single
//     atomic instruction on the item's claimed bit, fixed in the past the
//     moment it executes. The TAS arbitrates racing removers without CAS;
//     a won item was published (only scanned items are tried) and
//     unclaimed (the TAS returned the clear bit), so it is in the bag at
//     that instant.
//   - An empty Remove and a Size linearize inside a clean double collect:
//     Scan (view v), read the claimed bits of every item published in v,
//     Scan again, and require the second view to equal v. Publication
//     counts are monotone, so an unchanged view means no insert linearized
//     between the two scans; claimed bits are monotone (set once, never
//     cleared), so a bit read as set stays set. At the time τ of the last
//     bit read, therefore, the published items are exactly those of v, and
//     — for the empty case — every one of them was already claimed, i.e.
//     the bag was empty at τ. For Size, the count "published(v) − bits
//     read as set" is sandwiched between the bag's true size at the first
//     and last bit read; removals shrink the bag one item at a time and no
//     insert intervenes, so some instant in that window has exactly the
//     returned size. Both points lie in the operation's own execution
//     interval and depend only on events already in the past, which is
//     what prefix preservation requires.
//
// Because every operation's linearization point is fixed by its own past —
// never chosen retroactively when later operations complete — the
// composed implementation is strongly linearizable; strong linearizability
// is preserved under composition of strongly linearizable base objects
// (Golab, Higham, Woelfel 2011), which the tests in this package check
// mechanically with internal/lincheck over recorded histories.
//
// # Progress and space
//
// All operations are lock-free: a Remove retries only when another
// process's insert published or another remover's TAS won, and Size
// retries only when an insert published.
//
// Space is bounded by chunk recycling in the style of Ellen and Sela's
// Section on memory reclamation: a claimed cell is a tombstone, and once
// every cell of a published chunk is claimed the owner unlinks the chunk
// from its log (during Insert, at chunk boundaries), making the tombstones
// unreachable so the garbage collector reclaims them. Every chunk carries
// the absolute index of its first cell, and walkers account an index gap
// between consecutive chunks as recycled — hence claimed — cells; the
// claimed bits of unlinked chunks were observed set before the unlink and
// bits are monotone, so the linearization arguments above are unchanged. A
// reader that raced the unlink and still holds the dead chunk just walks
// its claimed cells one last time. Live space is therefore proportional to
// the number of chunks holding at least one unclaimed cell (plus one open
// tail chunk per process), not to the insert total; Stats reports the
// reachable-cell counts and the bag_test churn tests pin the bound.
//
// # Straggler migration
//
// A single unclaimed cell pins its whole chunk — nothing in the claimed-bit
// invariants forces claims to be contiguous, so sustained churn can in
// principle strand chunkSize cells per straggler. The owner's sweep
// therefore migrates: a published non-tail chunk holding at most migrateMax
// unclaimed cells has those cells claimed by the owner — through the same
// test-and-set removers use, so races resolve exactly as remover-remover
// races do — and the values the owner won are republished at the tail,
// leaving the chunk fully claimed and recyclable. A migrated item is still
// the same abstract item; no bag operation was invoked, so the migration
// must be invisible. The success path of Remove is: a remover either claims
// the old cell before the owner (an ordinary removal) or finds it claimed
// and can win the republished cell instead. The observed-empty and Size
// paths, whose double collects could otherwise catch an item mid-flight
// (old cell claimed, new cell not yet published), validate against a
// per-owner migration counter: the owner makes it odd before its first
// claim and even again after republishing, and a clean collect additionally
// requires every counter unchanged and even across its bit reads — any
// migration whose claim could have landed inside the collect is caught by
// the counter or by the publication views, and the collect retries. The
// transit window is a bounded straight-line run of owner steps with no
// retries inside, so these retries, like all others, are charged to another
// process's progress; a process that halts mid-sweep stalls empty
// observations and sizes until it resumes (the same caveat as a halted
// process pinning any low-watermark scheme).
package bag

import (
	"sync/atomic"

	"slmem"
)

// chunkSize is the cell count of one log chunk.
const chunkSize = 64

// chunk is one block of a process's append-only item log. vals[i] is
// written by the owner before the cell is published through the snapshot
// and is immutable afterwards; claimed[i] is the item's test-and-set bit.
// base is the absolute index of vals[0] in the owner's insert sequence,
// fixed at allocation.
type chunk struct {
	base     int
	vals     [chunkSize]string
	claimed  [chunkSize]atomic.Uint32
	nclaimed atomic.Int32 // cells claimed so far; full chunks are recyclable
	next     atomic.Pointer[chunk]
}

// tas test-and-sets cell i via atomic swap (fetch-and-store — weaker than
// compare-and-swap), reporting whether this caller claimed it. The winner
// bumps nclaimed, so the owner's recycling sweep can recognize a fully
// claimed chunk in O(1).
func (c *chunk) tas(i int) bool {
	if c.claimed[i].Swap(1) == 0 {
		c.nclaimed.Add(1)
		return true
	}
	return false
}

// taken reports whether cell i has been claimed.
func (c *chunk) taken(i int) bool { return c.claimed[i].Load() != 0 }

// ownerLog is process p's append cursor. head is read by every walker and
// advanced by the owner's recycling sweep, so it is atomic; tail, count,
// and the sweep itself are per-process local state, used only by the
// current holder of pid p (the lease hand-off provides the happens-before
// edge, as for all per-pid state in this repo). Padded so adjacent
// per-process entries do not false-share.
type ownerLog struct {
	head     atomic.Pointer[chunk] // walkers start here
	tail     *chunk                // owner's append position
	count    int                   // items appended == published count after each Insert
	recycled atomic.Int64          // chunks unlinked over the log's lifetime
	// Straggler migration (see the package comment): transit is odd while
	// the owner has claimed straggler cells it has not yet republished;
	// empty-Remove and Size validate their double collects against it.
	// migrated counts cells republished over the log's lifetime.
	transit  atomic.Int64
	migrated atomic.Int64
	// Sweep backoff: a full sweep costs O(live chunks), so insert-only
	// workloads (whose sweeps never free anything) double the boundary
	// interval between sweeps up to maxSweepBackoff, keeping the amortized
	// sweep cost per insert O(1); any productive sweep resets the interval.
	sweepWait  int
	sweepEvery int
	// Caller-pid scratch for the transit validation reads, allocated on
	// first use so the empty/size paths stay allocation-free per call.
	tcBefore, tcAfter []int64
	_                 [16]byte // pad to two cache lines (14 words above)
}

// appendCell writes x into the owner's next log cell, linking a fresh
// chunk at chunk boundaries. It does not publish: callers follow up with
// one pub.Update covering every cell they appended. Owner-only.
func (l *ownerLog) appendCell(x string) {
	i := l.count % chunkSize
	switch {
	case l.tail == nil:
		// First insert: the log's first chunk. Walkers stop at the nil
		// head, so an empty log needs no chunk.
		first := &chunk{}
		l.head.Store(first)
		l.tail = first
	case i == 0:
		next := &chunk{base: l.count}
		l.tail.next.Store(next)
		l.tail = next
	}
	l.tail.vals[i] = x
	l.count++
}

// maxSweepBackoff caps the sweep interval (in chunk boundaries): a fully
// claimed chunk becomes unreachable at most maxSweepBackoff*chunkSize
// inserts after it becomes claimable, even if every earlier sweep was
// unproductive.
const maxSweepBackoff = 64

// Bag is a lock-free strongly linearizable bag of strings for n processes.
// Every method takes the calling process id (0 <= pid < n); at most one
// goroutine may use a given pid at a time. Use Pooled for lease-per-call
// access.
type Bag struct {
	n    int
	pub  *slmem.Snapshot[int] // component p: #items p has published
	logs []ownerLog
}

// New constructs a bag for n processes, initially empty.
func New(n int) *Bag {
	// Each log's first chunk is allocated on its owner's first Insert.
	return &Bag{
		n:    n,
		pub:  slmem.NewSnapshot[int](n, 0),
		logs: make([]ownerLog, n),
	}
}

// N returns the number of processes the bag was constructed for.
func (b *Bag) N() int { return b.n }

// Insert adds x to the bag, as process pid. Wait-free given the snapshot's
// wait-free update: one cell write plus one Update, and at chunk
// boundaries an amortized-O(1) recycling-and-migration sweep (see
// ownerLog's backoff; a migrating sweep appends the moved cells and
// publishes them with one extra Update).
func (b *Bag) Insert(pid int, x string) {
	l := &b.logs[pid]
	boundary := l.count > 0 && l.count%chunkSize == 0
	l.appendCell(x)
	// Publication: the Update's linearization point is Insert's.
	b.pub.Update(pid, l.count)
	if boundary {
		// The previously filled chunk is now linked past and fully
		// published: recycle and migrate on the backoff schedule.
		l.sweepWait++
		if l.sweepWait >= l.sweepEvery {
			l.sweepWait = 0
			switch freed := b.sweep(pid, l); {
			case freed > 0:
				l.sweepEvery = 1
			case l.sweepEvery < maxSweepBackoff:
				if l.sweepEvery == 0 {
					l.sweepEvery = 1
				}
				l.sweepEvery *= 2
			}
		}
	}
}

// migrateMax is the most unclaimed cells a published non-tail chunk may
// hold for the sweep to migrate it: a chunk qualifies only after removers
// claimed chunkSize-migrateMax of its cells, so republication stays a small
// amortized fraction of the removal traffic that earned it.
const migrateMax = chunkSize / 8

// sweep is the owner's full reclamation pass: unlink fully claimed chunks,
// then migrate straggler chunks (at most migrateMax unclaimed cells) by
// claiming their stragglers and republishing the values the owner won at
// the tail, then unlink what migration just filled. Returns how many chunks
// it unlinked. Owner-only; the transit counter brackets the claims so the
// observed-empty and Size collects never linearize against a half-moved
// item (see the package comment).
func (b *Bag) sweep(pid int, l *ownerLog) int {
	freed := compact(l)
	inTransit := false
	var moved []string
	for c := l.head.Load(); c != l.tail; c = c.next.Load() {
		n := int(c.nclaimed.Load())
		if n >= chunkSize || chunkSize-n > migrateMax {
			continue
		}
		if !inTransit {
			// Enter transit before the first claim: validators that could
			// observe one of these bits set must see an odd or changed
			// counter and retry.
			l.transit.Add(1)
			inTransit = true
		}
		for i := 0; i < chunkSize; i++ {
			if !c.taken(i) && c.tas(i) {
				moved = append(moved, c.vals[i])
			}
		}
	}
	if inTransit {
		for _, x := range moved {
			l.appendCell(x)
		}
		if len(moved) > 0 {
			b.pub.Update(pid, l.count)
			l.migrated.Add(int64(len(moved)))
		}
		l.transit.Add(1)
		freed += compact(l)
	}
	return freed
}

// compact unlinks every fully published, fully claimed chunk of l except
// the tail — the recycling step bounding tombstone growth — and returns
// how many it unlinked. One O(1) check per live chunk (nclaimed), so a
// sweep costs O(live chunks); Insert amortizes that with backoff.
// Owner-only. A walker racing an unlink either already holds the dead
// chunk (and visits its claimed cells one last time through its untouched
// next pointer) or skips it via the updated link; both walks see the same
// claimed bits.
func compact(l *ownerLog) int {
	freed := 0
	var prev *chunk
	for c := l.head.Load(); c != l.tail; c = c.next.Load() {
		// Non-tail chunks are complete and published (the owner fills a
		// chunk and publishes its last cell before linking a successor).
		if int(c.nclaimed.Load()) < chunkSize {
			prev = c
			continue
		}
		next := c.next.Load()
		if prev == nil {
			l.head.Store(next)
		} else {
			prev.next.Store(next)
		}
		l.recycled.Add(1)
		freed++
	}
	return freed
}

// Compact runs pid's recycling sweep immediately, unlinking its fully
// claimed published chunks and migrating its straggler chunks without
// waiting for the next chunk-boundary Insert. Like every method it runs as
// process pid and sweeps only that process's log; an idle producer can call
// it after removers drain its items. Returns how many chunks the sweep
// unlinked, and resets the insert-path sweep backoff.
func (b *Bag) Compact(pid int) int {
	l := &b.logs[pid]
	l.sweepWait, l.sweepEvery = 0, 1
	return b.sweep(pid, l)
}

// walkPublished iterates the still-reachable published cells of process
// p's log below limit (an absolute index from a publication view), calling
// visit(c, i) for each. Cells in recycled chunks are skipped; they are
// claimed by construction, and the per-chunk base indexes let callers
// account them (skipped = limit - visited when every visited cell counts).
func (b *Bag) walkPublished(p int, limit int, visit func(c *chunk, i int) bool) (visited int) {
	for c := b.logs[p].head.Load(); c != nil && c.base < limit; c = c.next.Load() {
		end := limit - c.base
		if end > chunkSize {
			end = chunkSize
		}
		for i := 0; i < end; i++ {
			visited++
			if !visit(c, i) {
				return visited
			}
		}
	}
	return visited
}

// Remove takes some item out of the bag, as process pid. It returns
// (item, true) on success — linearized at the winning test-and-set — or
// ("", false) when the bag is observed empty: a clean double collect in
// which every published item was already claimed (cells recycled out of
// reach were observed claimed before their unlink, and claimed bits are
// monotone) and no owner's migration could have claimed one of those bits
// mid-flight (the transit counters bracket the bit reads). Lock-free:
// every retry is caused by another process's insert publishing, another
// remover's test-and-set winning, or an owner's bounded migration window
// progressing.
func (b *Bag) Remove(pid int) (string, bool) {
	view := b.pub.Scan(pid)
	l := &b.logs[pid]
	for {
		b.readTransit(&l.tcBefore)
		allClaimed := true
		var won *chunk
		wonIdx := 0
		for p := 0; p < b.n && won == nil; p++ {
			b.walkPublished(p, view[p], func(c *chunk, i int) bool {
				if c.taken(i) {
					return true
				}
				allClaimed = false
				if c.tas(i) {
					// Linearization point: this TAS. The item was published
					// (it is in view) and unclaimed an instant ago.
					won, wonIdx = c, i
					return false
				}
				return true
			})
		}
		if won != nil {
			return won.vals[wonIdx], true
		}
		view2 := b.pub.Scan(pid)
		b.readTransit(&l.tcAfter)
		if allClaimed && equalViews(view, view2) && transitClean(l.tcBefore, l.tcAfter) {
			// Empty case: at the last claimed-bit read, every item
			// published then (= view, unchanged through the second scan)
			// was already claimed — and none of those claims belonged to a
			// migration still in flight — so the bag was empty at that
			// instant.
			return "", false
		}
		view = view2
	}
}

// Size returns the number of items in the bag, as process pid: published
// inserts minus claimed items, observed in a clean double collect (see the
// package comment for where it linearizes). Cells no longer reachable
// (recycled chunks) count as claimed, and the transit counters rule out a
// migration claiming bits mid-collect — a fully migrated item inside the
// view contributes one published cell and one claimed cell, net zero.
// Lock-free: it retries only when an insert publishes between the two
// scans or an owner's bounded migration window progresses.
func (b *Bag) Size(pid int) int {
	view := b.pub.Scan(pid)
	l := &b.logs[pid]
	for {
		b.readTransit(&l.tcBefore)
		total, claimed := 0, 0
		for p := 0; p < b.n; p++ {
			total += view[p]
			reachableClaimed := 0
			visited := b.walkPublished(p, view[p], func(c *chunk, i int) bool {
				if c.taken(i) {
					reachableClaimed++
				}
				return true
			})
			// Published cells not visited were recycled: all claimed.
			claimed += reachableClaimed + (view[p] - visited)
		}
		view2 := b.pub.Scan(pid)
		b.readTransit(&l.tcAfter)
		if equalViews(view, view2) && transitClean(l.tcBefore, l.tcAfter) {
			return total - claimed
		}
		view = view2
	}
}

// readTransit loads every owner's migration counter into *dst, allocating
// the caller's scratch on first use.
func (b *Bag) readTransit(dst *[]int64) {
	if *dst == nil {
		*dst = make([]int64, b.n)
	}
	for p := range b.logs {
		(*dst)[p] = b.logs[p].transit.Load()
	}
}

// transitClean reports whether two transit reads bracketing a collect's bit
// reads are pointwise equal and even: no migration was in flight at either
// read, and none completed between them. Counters are single-writer and
// monotone, so equal reads mean no transition at all — any migration whose
// claim landed inside the bracket is caught here (or, when it completed
// and republished before the first read, by the publication views).
func transitClean(before, after []int64) bool {
	for i := range before {
		if before[i] != after[i] || before[i]%2 != 0 {
			return false
		}
	}
	return true
}

// BagStats describes a bag's space at one instant, as observed by pid:
// what has been published, what is still reachable, and what recycling has
// reclaimed. LiveCells-LiveClaimed is the item count; LiveClaimed is the
// tombstones not yet recycled, bounded by the fragmentation of unclaimed
// cells across chunks plus the open tail chunks.
type BagStats struct {
	// Published is the total number of inserts published, ever.
	Published int
	// LiveChunks is the number of reachable chunks holding published cells.
	LiveChunks int
	// LiveCells is the number of reachable published cells.
	LiveCells int
	// LiveClaimed is how many reachable published cells are claimed
	// (tombstones awaiting their chunk's recycling).
	LiveClaimed int
	// RecycledChunks is how many fully claimed chunks have been unlinked
	// over the bag's lifetime (RecycledChunks*chunkSize cells reclaimed).
	RecycledChunks int
	// MigratedCells is how many straggler cells the owners' sweeps have
	// republished at their tails over the bag's lifetime, freeing the
	// nearly claimed chunks that held them.
	MigratedCells int
}

// Stats reports the bag's space counters, as process pid. One scan plus a
// walk of the reachable chunks; counters are monotone except the Live*
// fields, which can shrink as recycling runs.
func (b *Bag) Stats(pid int) BagStats {
	view := b.pub.Scan(pid)
	var st BagStats
	for p := 0; p < b.n; p++ {
		st.Published += view[p]
		st.RecycledChunks += int(b.logs[p].recycled.Load())
		st.MigratedCells += int(b.logs[p].migrated.Load())
		lastChunk := (*chunk)(nil)
		st.LiveCells += b.walkPublished(p, view[p], func(c *chunk, i int) bool {
			if c != lastChunk {
				lastChunk = c
				st.LiveChunks++
			}
			if c.taken(i) {
				st.LiveClaimed++
			}
			return true
		})
	}
	return st
}

// equalViews compares two publication views.
func equalViews(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
