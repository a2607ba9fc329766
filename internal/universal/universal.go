// Package universal implements the Aspnes–Herlihy wait-free construction of
// arbitrary simple types from a snapshot object (paper Section 5,
// Algorithms 5 and 6), which the paper proves strongly linearizable
// (Theorem 54). With the strongly linearizable snapshot of internal/core as
// its root, every simple type has a lock-free strongly linearizable
// implementation from registers (Theorem 3).
//
// A simple type is one where every pair of invocation descriptions either
// commutes or one overwrites the other (Definition 33). Each operation:
//
//  1. scans the root snapshot for the latest nodes of all processes,
//  2. extracts the precedence graph reachable from them (Algorithm 6),
//  3. builds the linearization graph by adding dominance edges between
//     concurrent operations (Algorithm 5, lingraph),
//  4. computes its response from a topological sort of that graph, and
//  5. appends its own node, pointing at the scanned nodes, to the root.
//
// As the paper notes (Section 5.3/6), the construction keeps every node
// forever: it is wait-free but not bounded wait-free. Executed naively,
// steps 2-4 re-extract and re-linearize the whole history, so per-operation
// cost grows with history length — measured by experiment E6 on a
// process's first operation, which has no cache anchor yet. Over k
// extracted nodes, lingraph (lingraph.go) makes O(k²) constant-time pair
// checks against a transitive-closure bit matrix of k²/64 words, asking
// the type about dominance once per distinct pair of (invocation, pid)
// classes while that memo is no larger than the closure.
//
// # Replay cache
//
// This implementation amortizes that cost to O(Δ) in the number of
// operations since the calling process's previous operation, using a purely
// process-local replay cache. After an operation, process p remembers an
// anchor — the per-process operation-index prefix {(q, i) : i <= anchor[q]}
// it just linearized — together with the sequential state reached by
// replaying that prefix (checkpointed through spec.Checkpoint). The next
// operation extracts only nodes beyond the anchor and replays them onto the
// cached state, provided every extracted node covers the anchor: its own
// scanned view includes every anchored node. Covering nodes are forced
// after the whole anchored prefix in the linearization — by precedence
// (their view reaches every anchored node through the per-process chains)
// and therefore also by the dominance rules, whose edges toward already
// preceding nodes are skipped — so the cached prefix is exactly a prefix of
// the full linearization, node orders and responses byte-identical to a
// full extraction (the differential tests check this). A non-covering node
// (a genuinely concurrent straggler that might linearize inside the cached
// prefix) forces a fallback to the truncation root (gc.go), after which the
// cache re-anchors. Until the collector first advances it, the root is v0 —
// cut all −1, the initial state — and the fallback is the full extraction
// of Algorithm 6.
//
// Strong linearizability is untouched: the cache reads nothing but what a
// legal root scan returns, writes nothing shared, and computes the same
// response function of the scanned view as the full algorithm.
package universal

import (
	"fmt"
	"sort"
	"sync/atomic"

	"slmem/internal/core"
	"slmem/internal/memory"
	"slmem/internal/spec"
)

// Type describes a simple type: its sequential specification plus the
// commute/overwrite calculus over invocation descriptions (which, per the
// paper's Section 2, include the invoking process id).
//
// Commutes and Overwrites must be deterministic, pure functions of their
// arguments: every process must derive the same linearization from the
// same view, and the linearization memoizes dominance per distinct
// (invocation, pid) pair.
type Type interface {
	// Name identifies the type.
	Name() string
	// Spec returns the sequential specification used to compute responses.
	Spec() spec.Spec
	// Commutes reports whether invocations a and b commute: executing them
	// in either order yields valid, equivalent histories.
	Commutes(descA string, pidA int, descB string, pidB int) bool
	// Overwrites reports whether invocation a overwrites invocation b:
	// H ∘ b ∘ a is always valid and equivalent to H ∘ a.
	Overwrites(descA string, pidA int, descB string, pidB int) bool
}

// Dominates implements the paper's Definition 34: a dominates b if a
// overwrites b but not vice versa, or they overwrite each other and a's
// process id is larger.
func Dominates(t Type, descA string, pidA int, descB string, pidB int) bool {
	ab := t.Overwrites(descA, pidA, descB, pidB)
	ba := t.Overwrites(descB, pidB, descA, pidA)
	switch {
	case ab && !ba:
		return true
	case ab && ba:
		return pidA > pidB
	default:
		return false
	}
}

// ValidateSimple checks Definition 33 over a set of invocation samples:
// every pair must commute or overwrite one way. Sample i runs as process
// pids[i%len(pids)]. It returns the first offending pair, if any, and an
// error when there are samples but no pids to run them as.
func ValidateSimple(t Type, descs []string, pids []int) error {
	if len(pids) == 0 && len(descs) > 0 {
		return fmt.Errorf("universal: validating %s: no pids to run %d invocation samples as", t.Name(), len(descs))
	}
	for i, a := range descs {
		for j, b := range descs {
			pa, pb := pids[i%len(pids)], pids[j%len(pids)]
			if t.Commutes(a, pa, b, pb) || t.Overwrites(a, pa, b, pb) || t.Overwrites(b, pb, a, pa) {
				continue
			}
			return fmt.Errorf("universal: %s is not simple: %s(p%d) and %s(p%d) neither commute nor overwrite",
				t.Name(), a, pa, b, pb)
		}
	}
	return nil
}

// node is the struct of Algorithm 5: an operation record stored in the
// shared precedence-graph representation. Nodes are immutable once written
// to the root.
type node struct {
	invocation string
	response   string
	pid        int
	index      int     // per-process operation index: (pid,index) is unique
	preceding  []*node // view[i] at this operation's scan; nil = ⊥
}

func (nd *node) less(other *node) bool {
	if nd.pid != other.pid {
		return nd.pid < other.pid
	}
	return nd.index < other.index
}

// Root is the snapshot interface the construction needs. Theorem 3 requires
// a strongly linearizable implementation (internal/core); a merely
// linearizable one still yields a linearizable object (Aspnes–Herlihy).
type Root interface {
	Update(pid int, x *node)
	Scan(pid int) []*node
}

// pcache is one process's replay-cache entry, written only by the goroutine
// driving that pid (the counters are atomic so CacheStats may read them
// concurrently). Padded so adjacent entries do not false-share — which is
// also why the hit/miss counters live here per-process rather than as one
// shared pair the hot path would contend on.
type pcache struct {
	// anchor[q] is the highest operation index of process q in the cached
	// linearized prefix, -1 for none; a nil slice means no anchor yet.
	anchor []int
	// state is the sequential state after replaying the anchored prefix.
	state string
	// deferred marks batch mode: remember keeps the rolling anchor and raw
	// state but postpones the checkpoint (the durable re-anchor) to EndBatch.
	deferred bool
	// dirty reports a deferred remember that EndBatch still has to checkpoint.
	dirty bool
	// hits and misses count this process's cache outcomes; anchors counts
	// durable re-anchors (checkpoints written).
	hits    atomic.Int64
	misses  atomic.Int64
	anchors atomic.Int64
	_       [56]byte // pad to two cache lines (72 bytes above)
}

// CacheStats counts replay-cache outcomes across all processes.
type CacheStats struct {
	// Hits counts operations that replayed only the delta beyond their
	// process's anchor.
	Hits int64
	// Misses counts operations that fell back to the truncation root
	// because some extracted node did not cover the anchor.
	Misses int64
	// Anchors counts durable re-anchors: checkpoints written to the cache.
	// Outside batch mode every cached operation re-anchors once; within a
	// BeginBatch/EndBatch window the whole batch re-anchors once at the end.
	Anchors int64
}

// Object is an implementation of a simple type from a snapshot object.
// Methods take the calling process id; at most one goroutine may drive a
// given pid at a time.
type Object struct {
	t     Type
	sp    spec.Spec
	n     int
	root  Root
	index []int // per-process count of executed operations
	cache []pcache
	gc    gcInfo
}

// New constructs the object over the strongly linearizable snapshot of
// internal/core, yielding a lock-free strongly linearizable implementation
// (Theorem 3).
func New(alloc memory.Allocator, t Type, n int) *Object {
	return NewWithRoot(t, n, core.New[*node](alloc, n, nil))
}

// NewWithRoot constructs the object over an explicit root snapshot.
func NewWithRoot(t Type, n int, root Root) *Object {
	if n < 1 {
		panic(fmt.Sprintf("universal: n = %d, need at least 1 process", n))
	}
	o := &Object{
		t:     t,
		sp:    t.Spec(),
		n:     n,
		root:  root,
		index: make([]int, n),
		cache: make([]pcache, n),
	}
	cut := make([]int, n)
	for q := range cut {
		cut[q] = -1
	}
	o.gc.window = gcWindow
	o.gc.marks = make([]watermark, n)
	o.gc.state.Store(&gcState{cut: cut, base: o.sp.Initial()})
	return o
}

// CacheStats returns the replay-cache hit/miss counters, summed over all
// processes.
func (o *Object) CacheStats() CacheStats {
	var st CacheStats
	for p := range o.cache {
		st.Hits += o.cache[p].hits.Load()
		st.Misses += o.cache[p].misses.Load()
		st.Anchors += o.cache[p].anchors.Load()
	}
	return st
}

// Execute performs the invocation as process p (Algorithm 5, execute):
// it computes the response the history demands, publishes the operation's
// node, and returns the response. With the replay cache warm it extracts,
// sorts, and replays only the nodes beyond process p's anchor; the replay
// floor never drops below the truncation root, whose checkpointed state
// stands in for the truncated prefix.
func (o *Object) Execute(p int, invoke string) (string, error) {
	gs := o.gc.state.Load()
	view := o.root.Scan(p) // line 81

	anchor, state, fromCache := o.floor(p, gs)
	delta, ok := deltaNodes(anchor, view) // line 82, restricted past the floor
	switch {
	case ok && fromCache:
		o.cache[p].hits.Add(1)
	case fromCache:
		// Some extracted node does not cover the anchor and may linearize
		// inside the cached prefix: fall back to the truncation root — the
		// history below it may already be trimmed — replayed from its
		// checkpointed state.
		o.cache[p].misses.Add(1)
		anchor, state = gs.cut, gs.base
		delta, ok = deltaNodes(anchor, view)
	}
	if !ok {
		// Every reachable node covers the truncation root (the truncation
		// invariant), so this cannot happen; count it so it is observable.
		o.gc.coverFails.Add(1)
		return "", fmt.Errorf("universal: extracted node does not cover truncation root v%d", gs.version)
	}
	g := deltaGraph(anchor, delta)
	h := o.linearize(g) // line 83: topological sort of lingraph(G)

	// Lines 84-87: compute the response valid after H. With a warm cache, H
	// is only the suffix past the anchored prefix, replayed onto its state.
	var err error
	for _, nd := range h {
		state, _, err = o.sp.Apply(state, nd.pid, nd.invocation)
		if err != nil {
			return "", fmt.Errorf("universal: replaying %s: %w", nd.invocation, err)
		}
	}
	next, resp, err := o.sp.Apply(state, p, invoke)
	if err != nil {
		return "", fmt.Errorf("universal: %s: %w", invoke, err)
	}

	e := &node{
		invocation: invoke,
		response:   resp,
		pid:        p,
		index:      o.index[p],
		preceding:  view, // lines 88-90 (Scan already returned a fresh copy)
	}
	o.index[p]++
	o.root.Update(p, e) // line 91

	// The prefix this operation linearized: its view plus its own node. One
	// immutable slice serves as both the cache anchor and the watermark.
	linearized := make([]int, o.n)
	for q, nd := range view {
		if nd == nil {
			linearized[q] = -1
		} else {
			linearized[q] = nd.index
		}
	}
	linearized[p] = e.index
	o.remember(p, linearized, next)
	o.gc.afterOp(o, p, linearized, view, gs)
	return resp, nil
}

// floor picks process p's replay floor: its cache anchor when one exists and
// still covers the truncation root, else the truncation root itself (a
// checkpoint replay; at root v0 the full extraction). A cache anchor below
// the root — stale since before a truncation — is simply unusable, never an
// error: the root state subsumes it.
func (o *Object) floor(p int, gs *gcState) (anchor []int, state string, fromCache bool) {
	if a := o.cache[p].anchor; a != nil && atOrAbove(a, gs.cut) {
		return a, o.cache[p].state, true
	}
	return gs.cut, gs.base, false
}

// atOrAbove reports whether anchor a includes the cut pointwise.
func atOrAbove(a, cut []int) bool {
	for q, c := range cut {
		if a[q] < c {
			return false
		}
	}
	return true
}

// remember re-anchors process p's cache at the prefix it just linearized,
// with the sequential state that includes its own operation. In batch mode
// the checkpoint — the durable re-anchor — is deferred to EndBatch; the
// rolling anchor and raw state still advance so every batch entry replays
// only its own delta.
func (o *Object) remember(p int, anchor []int, state string) {
	pc := &o.cache[p]
	pc.anchor = anchor
	if pc.deferred {
		pc.state = state
		pc.dirty = true
		return
	}
	pc.state = spec.Checkpoint(o.sp, state)
	pc.anchors.Add(1)
}

// BeginBatch puts process p's replay cache into deferred-anchor mode: the
// operations that follow keep a rolling anchor but write one durable
// checkpoint for the whole batch, at EndBatch, instead of one per
// operation. Must be paired with EndBatch under the same pid ownership
// rules as Execute.
func (o *Object) BeginBatch(p int) { o.cache[p].deferred = true }

// EndBatch leaves deferred-anchor mode, re-anchoring process p's cache once
// for the whole batch.
func (o *Object) EndBatch(p int) {
	pc := &o.cache[p]
	pc.deferred = false
	if pc.dirty {
		pc.dirty = false
		pc.state = spec.Checkpoint(o.sp, pc.state)
		pc.anchors.Add(1)
	}
}

// anchored reports whether nd is inside the anchored prefix. The anchored
// prefix is per-process index-closed: process q's nodes 0..anchor[q] and
// nothing else are reachable at or below the anchor (each process's nodes
// form a preceding chain, and scans of q's component are monotone).
func anchored(anchor []int, nd *node) bool {
	return nd.index <= anchor[nd.pid]
}

// covers reports whether a scanned view includes every anchored node: for
// each process q with an anchored operation, the view holds q's node with at
// least the anchored index.
func covers(view []*node, anchor []int) bool {
	for q, idx := range anchor {
		if idx < 0 {
			continue
		}
		if q >= len(view) || view[q] == nil || view[q].index < idx {
			return false
		}
	}
	return true
}

// deltaNodes implements Algorithm 6 restricted past an anchor: extract, in
// canonical order, the nodes reachable from a root view whose operations are
// not already in the anchored prefix (an all −1 anchor extracts everything —
// the original algorithm). It reports ok=false when some extracted node does
// not cover the anchor; such a node may linearize inside the anchored
// prefix, so the caller must re-extract from a lower floor. On failure the
// nodes extracted so far are still returned (unsorted) so counting callers
// can report a partial size instead of zero.
func deltaNodes(anchor []int, view []*node) (nodes []*node, ok bool) {
	visited := make(map[*node]bool)
	var queue []*node
	push := func(nd *node) {
		if nd != nil && !visited[nd] && !anchored(anchor, nd) {
			visited[nd] = true
			queue = append(queue, nd)
		}
	}
	for _, nd := range view { // lines 108-114
		push(nd)
	}
	for len(queue) > 0 { // lines 115-124
		nd := queue[0]
		queue = queue[1:]
		nodes = append(nodes, nd)
		if !covers(nd.preceding, anchor) {
			return nodes, false
		}
		for _, prev := range nd.preceding {
			push(prev)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].less(nodes[j]) })
	return nodes, true
}
