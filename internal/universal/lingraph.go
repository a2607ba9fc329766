package universal

import "sort"

// graph is a precedence/linearization graph over operation nodes. Nodes are
// addressed by their position in the canonical (pid, index) order, so every
// process derives the same topological sorts from the same view.
type graph struct {
	nodes []*node   // canonical order: (pid, index)
	succ  [][]int32 // position u -> positions that must come after u
}

// pos returns nd's position in the canonical order. nd must be one of
// g.nodes; (pid, index) identifies an operation uniquely.
func (g *graph) pos(nd *node) int32 {
	return int32(sort.Search(len(g.nodes), func(i int) bool { return !g.nodes[i].less(nd) }))
}

func (g *graph) addEdge(u, v int32) {
	g.succ[u] = append(g.succ[u], v)
}

// deltaGraph builds the precedence graph over extracted nodes (lines
// 117-118), keeping only edges between nodes past the anchor. Edges from
// anchored nodes are redundant for ordering the delta: every anchored node
// precedes every delta node (delta nodes cover the anchor), so they are
// emitted first unconditionally. Each preceding view holds at most one node
// per process, so no edge is added twice.
func deltaGraph(anchor []int, nodes []*node) *graph {
	g := &graph{nodes: nodes, succ: make([][]int32, len(nodes))}
	// Count out-degrees first so every successor list is carved from one
	// backing array; the capacity cap keeps lingraph's later appends from
	// spilling into a neighbour's list.
	deg := make([]int32, len(nodes))
	edges := 0
	for _, nd := range nodes {
		for _, prev := range nd.preceding {
			if prev != nil && !anchored(anchor, prev) {
				deg[g.pos(prev)]++
				edges++
			}
		}
	}
	backing := make([]int32, edges)
	for u, d := range deg {
		g.succ[u], backing = backing[:0:d], backing[d:]
	}
	for v, nd := range nodes {
		for _, prev := range nd.preceding {
			if prev != nil && !anchored(anchor, prev) {
				g.addEdge(g.pos(prev), int32(v))
			}
		}
	}
	return g
}

// topoSort returns the deterministic minimal topological order: among ready
// nodes, the canonical-smallest (pid, index) — the smallest position — goes
// first.
func (g *graph) topoSort() []int32 {
	indeg := make([]int32, len(g.nodes))
	for _, vs := range g.succ {
		for _, v := range vs {
			indeg[v]++
		}
	}
	// Positions are appended in ascending order, which is already a heap.
	ready := make(minHeap, 0, len(g.nodes))
	for u, d := range indeg {
		if d == 0 {
			ready = append(ready, int32(u))
		}
	}
	out := make([]int32, 0, len(g.nodes))
	for len(ready) > 0 {
		u := ready.pop()
		out = append(out, u)
		for _, v := range g.succ[u] {
			if indeg[v]--; indeg[v] == 0 {
				ready.push(v)
			}
		}
	}
	return out
}

// linearize implements Algorithm 5's lingraph (lines 68-80) followed by the
// final topological sort (line 83), extending g in place into L.
//
// Path queries are answered from the transitive closure of L, and an edge
// the closure already implies is not added. The minimal topological order
// depends only on the closure — a node is ready exactly when every ancestor
// has been emitted — and so does every decision of the pair loop, so node
// orders are those of the pairwise path-search formulation (the
// differential tests keep that reference).
func (o *Object) linearize(g *graph) []*node {
	if len(g.nodes) < 2 {
		return g.nodes
	}
	ordered := g.topoSort()     // line 68
	c := newClosure(g, ordered) // line 69: L <- G, as reachability
	dom := newDominance(o.t, g.nodes, ordered, 8*len(c.bits))
	for i, u := range ordered { // lines 70-79
		row := dom.row(i)
		for j := i + 1; j < len(ordered); j++ {
			r := domUnknown
			if row != nil {
				r = row[dom.class[j]]
			}
			if r == domUnknown {
				r = dom.ask(i, j)
			}
			// The dominated operation gets an edge to the dominating one,
			// unless a path already orders the pair.
			var from, to int32
			switch r {
			case domFirst:
				from, to = ordered[j], u
			case domSecond:
				from, to = u, ordered[j]
			default:
				continue
			}
			if !c.has(from, to) && !c.has(to, from) {
				g.addEdge(from, to)
				c.add(from, to)
			}
		}
	}
	order := g.topoSort() // line 83
	out := make([]*node, len(order))
	for i, u := range order {
		out[i] = g.nodes[u]
	}
	return out
}

// closure is the transitive closure of a graph as a bit matrix: row u has
// bit v set when v is reachable from u by a path of length >= 1.
type closure struct {
	words int      // uint64 words per row
	bits  []uint64 // one row per position
}

// newClosure computes g's closure, visiting nodes in reverse topological
// order so every successor's row is complete before it is merged.
func newClosure(g *graph, order []int32) *closure {
	k := len(g.nodes)
	c := &closure{words: (k + 63) / 64}
	c.bits = make([]uint64, k*c.words)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range g.succ[u] {
			if !c.has(u, v) { // else v, and all it reaches, is in u's row
				c.merge(u, v)
			}
		}
	}
	return c
}

func (c *closure) row(u int32) []uint64 {
	return c.bits[int(u)*c.words : int(u+1)*c.words]
}

func (c *closure) has(u, v int32) bool {
	return c.bits[int(u)*c.words+int(v>>6)]&(1<<(v&63)) != 0
}

// merge makes u reach v and everything v reaches.
func (c *closure) merge(u, v int32) {
	ru, rv := c.row(u), c.row(v)
	for w, bits := range rv {
		ru[w] |= bits
	}
	ru[v>>6] |= 1 << (v & 63)
}

// add records a new edge u -> v, v not yet reachable from u: u and every
// node reaching u now reach v too. A node that already reaches v already
// reaches everything v does.
func (c *closure) add(u, v int32) {
	for x := range int32(len(c.bits) / c.words) {
		if (x == u || c.has(x, u)) && !c.has(x, v) {
			c.merge(x, v)
		}
	}
}

// invClass is a dominance class: Dominates depends only on a node's
// invocation and pid.
type invClass struct {
	invocation string
	pid        int
}

// Outcomes of Definition 34 for an ordered pair of operations: neither
// dominates, the first does, or the second does. domUnknown marks a memo
// entry not yet computed.
const (
	domUnknown uint8 = iota
	domNeither
	domFirst
	domSecond
)

// dominance answers Definition 34 for pairs of operations, addressed by
// their index in a sequence of graph positions. It asks the type once per
// distinct pair of invocation classes when the class matrix fits the byte
// budget, and per pair otherwise. Memoizing is sound because Commutes and
// Overwrites are pure functions of their arguments (the Type contract).
type dominance struct {
	t     Type
	nodes []*node
	seq   []int32 // index -> graph position
	class []int32 // index -> class; nil when not memoizing
	n     int     // number of classes
	memo  []uint8 // n×n class pairs -> outcome
}

func newDominance(t Type, nodes []*node, seq []int32, budget int) *dominance {
	d := &dominance{t: t, nodes: nodes, seq: seq}
	ids := make(map[invClass]int32)
	class := make([]int32, len(seq))
	for i, u := range seq {
		key := invClass{nodes[u].invocation, nodes[u].pid}
		id, ok := ids[key]
		if !ok {
			id = int32(len(ids))
			if int(id+1)*int(id+1) > budget {
				return d
			}
			ids[key] = id
		}
		class[i] = id
	}
	d.class, d.n = class, len(ids)
	d.memo = make([]uint8, d.n*d.n)
	return d
}

// row returns operation i's memo row, indexed by the class of the second
// operation of a pair; nil when not memoizing.
func (d *dominance) row(i int) []uint8 {
	if d.class == nil {
		return nil
	}
	c := int(d.class[i]) * d.n
	return d.memo[c : c+d.n]
}

// ask calls Dominates for operations i and j, recording the outcome when
// memoizing.
func (d *dominance) ask(i, j int) uint8 {
	a, b := d.nodes[d.seq[i]], d.nodes[d.seq[j]]
	r := domNeither
	switch {
	case Dominates(d.t, a.invocation, a.pid, b.invocation, b.pid):
		r = domFirst
	case Dominates(d.t, b.invocation, b.pid, a.invocation, a.pid):
		r = domSecond
	}
	if d.class != nil {
		d.memo[int(d.class[i])*d.n+int(d.class[j])] = r
	}
	return r
}

// minHeap is a binary min-heap of graph positions.
type minHeap []int32

func (h *minHeap) push(v int32) {
	a := append(*h, v)
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if a[parent] <= a[i] {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
	*h = a
}

func (h *minHeap) pop() int32 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(a) {
			break
		}
		if r := m + 1; r < len(a) && a[r] < a[m] {
			m = r
		}
		if a[i] <= a[m] {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return top
}
