package universal

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// refLinearize is the reference lingraph: Algorithm 5 as the paper states
// it, over a pointer graph with an edge set, answering every path query
// with a fresh depth-first search and re-sorting the ready list on every
// pop of the topological sort. linearize must produce the same node order.
func refLinearize(t Type, anchor []int, nodes []*node) []*node {
	succ := make(map[*node][]*node)
	edges := make(map[[2]*node]bool)
	addEdge := func(u, v *node) {
		if !edges[[2]*node{u, v}] {
			edges[[2]*node{u, v}] = true
			succ[u] = append(succ[u], v)
		}
	}
	reaches := func(u, v *node) bool {
		seen := make(map[*node]bool)
		stack := append([]*node(nil), succ[u]...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur == v {
				return true
			}
			if !seen[cur] {
				seen[cur] = true
				stack = append(stack, succ[cur]...)
			}
		}
		return false
	}
	topoSort := func() []*node {
		indeg := make(map[*node]int)
		for _, u := range nodes {
			for _, v := range succ[u] {
				indeg[v]++
			}
		}
		var ready, out []*node
		for _, u := range nodes {
			if indeg[u] == 0 {
				ready = append(ready, u)
			}
		}
		for len(ready) > 0 {
			u := ready[0]
			ready = ready[1:]
			out = append(out, u)
			for _, v := range succ[u] {
				if indeg[v]--; indeg[v] == 0 {
					ready = append(ready, v)
				}
			}
			sort.Slice(ready, func(i, j int) bool { return ready[i].less(ready[j]) })
		}
		return out
	}

	for _, nd := range nodes {
		for _, prev := range nd.preceding {
			if prev != nil && !anchored(anchor, prev) {
				addEdge(prev, nd)
			}
		}
	}
	ordered := topoSort()
	for i := range ordered {
		for j := i + 1; j < len(ordered); j++ {
			oi, oj := ordered[i], ordered[j]
			if Dominates(t, oi.invocation, oi.pid, oj.invocation, oj.pid) {
				if !edges[[2]*node{oj, oi}] && !reaches(oi, oj) {
					addEdge(oj, oi)
				}
			} else if Dominates(t, oj.invocation, oj.pid, oi.invocation, oi.pid) {
				if !edges[[2]*node{oi, oj}] && !reaches(oj, oi) {
					addEdge(oi, oj)
				}
			}
		}
	}
	return topoSort()
}

// randomHistory builds the root view of ops operations over n processes,
// shaped like a concurrent execution: each operation's view holds its own
// process's previous operation and, for every other process, the latest
// published operation or, with probability stale/100, a random one no
// older than the one its process saw last (scans are monotone), so
// concurrent operations miss each other.
func randomHistory(rng *rand.Rand, n, ops, stale int, descs []string) []*node {
	chains := make([][]*node, n)
	seen := make([][]*node, n)
	for p := range seen {
		seen[p] = make([]*node, n)
	}
	for i := 0; i < ops; i++ {
		p := rng.Intn(n)
		view := make([]*node, n)
		for q := range view {
			lo := 0
			if seen[p][q] != nil {
				lo = seen[p][q].index + 1
			}
			hi := len(chains[q]) // view[q] = chains[q][idx-1], idx 0 = ⊥
			idx := hi
			if q != p && hi > lo && rng.Intn(100) < stale {
				idx = lo + rng.Intn(hi-lo+1)
			}
			if idx > 0 {
				view[q] = chains[q][idx-1]
			}
		}
		nd := &node{invocation: descs[rng.Intn(len(descs))], pid: p, index: len(chains[p]), preceding: view}
		chains[p] = append(chains[p], nd)
		seen[p] = view
	}
	root := make([]*node, n)
	for q, chain := range chains {
		if len(chain) > 0 {
			root[q] = chain[len(chain)-1]
		}
	}
	return root
}

// lingraphTypes covers every built-in type plus a FuncType: dominance that
// depends on the pid (snapshot, register, orflag's set/set ties) and on the
// argument (maxreg; its wide argument range also exceeds the memo budget,
// so the direct Dominates path runs too).
func lingraphTypes(n int) []struct {
	typ   Type
	descs []string
} {
	maxWrites := []string{"maxRead()"}
	for v := 0; v < 1000; v++ {
		maxWrites = append(maxWrites, "maxWrite("+strconv.Itoa(v)+")")
	}
	return []struct {
		typ   Type
		descs []string
	}{
		{CounterType{}, []string{"inc()", "inc()", "read()"}},
		{SetType{}, []string{"add(a)", "add(b)", "contains(a)", "contains(b)"}},
		{AccumulatorType{}, []string{"addTo(1)", "addTo(1)", "addTo(1)", "addTo(-2)", "read()"}},
		{MaxRegType{}, maxWrites},
		{RegisterType{}, []string{"write(a)", "write(b)", "read()"}},
		{SnapshotType{N: n}, []string{"update(a)", "update(b)", "scan()"}},
		{orFlagType(), []string{"set()", "get()"}},
	}
}

// TestLingraphDifferential checks linearize against the reference lingraph
// on seeded random multi-process histories, from mostly sequential to
// mostly concurrent: node orders must be identical, over full extractions
// and over extractions past a covered anchor.
func TestLingraphDifferential(t *testing.T) {
	const n = 4
	sizes := []int{2, 8, 40, 120}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, tc := range lingraphTypes(n) {
		t.Run(tc.typ.Name(), func(t *testing.T) {
			o := &Object{t: tc.typ}
			for seed := int64(0); seed < 10; seed++ {
				for _, ops := range sizes {
					rng := rand.New(rand.NewSource(seed*1000 + int64(ops)))
					view := randomHistory(rng, n, ops, []int{30, 90}[seed%2], tc.descs)
					// The full extraction, and one floored at a covered
					// anchor: the view of the latest operation of a random
					// process, which every later node covers.
					none := []int{-1, -1, -1, -1}
					anchors := [][]int{none}
					if nd := view[rng.Intn(n)]; nd != nil {
						a := make([]int, n)
						for q, prev := range nd.preceding {
							a[q] = -1
							if prev != nil {
								a[q] = prev.index
							}
						}
						anchors = append(anchors, a)
					}
					for _, anchor := range anchors {
						nodes, ok := deltaNodes(anchor, view)
						if !ok {
							continue
						}
						want := refLinearize(tc.typ, anchor, nodes)
						got := o.linearize(deltaGraph(anchor, nodes))
						if g, w := orderString(got), orderString(want); g != w {
							t.Fatalf("seed %d, %d ops, anchor %v:\n got  %s\n want %s", seed, ops, anchor, g, w)
						}
					}
				}
			}
		})
	}
}

// TestLingraphMemoBudget pins which dominance path the differential covers:
// few invocation classes are memoized, and classes past the closure's size
// fall back to calling Dominates per pair.
func TestLingraphMemoBudget(t *testing.T) {
	for _, tc := range []struct {
		typ    Type
		descs  []string
		direct bool
	}{
		{AccumulatorType{}, []string{"addTo(1)", "read()"}, false},
		{MaxRegType{}, lingraphTypes(4)[3].descs, true},
	} {
		rng := rand.New(rand.NewSource(1))
		nodes, _ := deltaNodes([]int{-1, -1, -1, -1}, randomHistory(rng, 4, 200, 30, tc.descs))
		g := deltaGraph([]int{-1, -1, -1, -1}, nodes)
		c := newClosure(g, g.topoSort())
		if d := newDominance(tc.typ, nodes, g.topoSort(), 8*len(c.bits)); (d.memo == nil) != tc.direct {
			t.Errorf("%s: memoized = %v, want %v", tc.typ.Name(), d.memo != nil, !tc.direct)
		}
	}
}

func orderString(nodes []*node) string {
	s := ""
	for _, nd := range nodes {
		s += fmt.Sprintf("(%d,%d)", nd.pid, nd.index)
	}
	return s
}
