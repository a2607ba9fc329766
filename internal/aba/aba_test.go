package aba

import (
	"fmt"
	"testing"
	"testing/quick"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

// dregister abstracts over both implementations for shared tests.
type dregister interface {
	DWrite(p int, x string)
	DRead(q int) (string, bool)
}

func newImpls(alloc memory.Allocator, n int) map[string]dregister {
	return map[string]dregister{
		"linearizable": NewLinearizable[string](alloc, n, spec.Bot),
		"strong":       NewStrong[string](alloc, n, spec.Bot),
	}
}

// --- Sequential semantics vs. the specification -------------------------------

func TestSequentialAgainstSpec(t *testing.T) {
	const n = 3
	for name := range newImpls(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			// Random sequential op streams must match the state machine.
			f := func(script []uint8) bool {
				var alloc memory.NativeAllocator
				reg := newImpls(&alloc, n)[name]
				sp := spec.ABARegister{N: n}
				state := sp.Initial()
				for i, b := range script {
					pid := int(b) % n
					if b%2 == 0 {
						x := fmt.Sprintf("v%d", i%5)
						reg.DWrite(pid, x)
						next, _, err := sp.Apply(state, pid, spec.FormatInvocation("DWrite", x))
						if err != nil {
							return false
						}
						state = next
					} else {
						val, flag := reg.DRead(pid)
						next, want, err := sp.Apply(state, pid, "DRead()")
						if err != nil {
							return false
						}
						if fmt.Sprintf("(%s,%t)", val, flag) != want {
							t.Logf("step %d pid %d: got (%s,%t), want %s", i, pid, val, flag, want)
							return false
						}
						state = next
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestFirstDReadAfterDWriteFlagsTrue(t *testing.T) {
	for name, reg := range newImpls(&memory.NativeAllocator{}, 2) {
		t.Run(name, func(t *testing.T) {
			reg.DWrite(1, "a")
			if v, flag := reg.DRead(0); v != "a" || !flag {
				t.Errorf("DRead = (%s,%t), want (a,true)", v, flag)
			}
			if v, flag := reg.DRead(0); v != "a" || flag {
				t.Errorf("second DRead = (%s,%t), want (a,false)", v, flag)
			}
		})
	}
}

func TestABADetected(t *testing.T) {
	// Value returns to "a" between two DReads; the flag must expose it.
	for name, reg := range newImpls(&memory.NativeAllocator{}, 2) {
		t.Run(name, func(t *testing.T) {
			reg.DWrite(1, "a")
			reg.DRead(0)
			reg.DWrite(1, "b")
			reg.DWrite(1, "a")
			if v, flag := reg.DRead(0); v != "a" || !flag {
				t.Errorf("ABA DRead = (%s,%t), want (a,true)", v, flag)
			}
		})
	}
}

// --- Sequence number machinery (white box) -------------------------------------

func TestGetSeqRange(t *testing.T) {
	const n = 3
	var alloc memory.NativeAllocator
	b := newBase(&alloc, n, spec.Bot, func(a, b string) bool { return a == b })
	for i := 0; i < 100; i++ {
		s := b.getSeq(1)
		if s < 0 || s > 2*n+1 {
			t.Fatalf("getSeq returned %d, outside [0,%d]", s, 2*n+1)
		}
	}
}

func TestConsecutiveSeqsDiffer(t *testing.T) {
	// Paper statement (1) in the proof of Observation 4: no two consecutive
	// DWrites by the same process choose the same sequence number.
	f := func(nRaw uint8, k uint8) bool {
		n := int(nRaw)%4 + 1
		var alloc memory.NativeAllocator
		b := newBase(&alloc, n, spec.Bot, func(a, b string) bool { return a == b })
		prev := -2
		for i := 0; i < int(k)+2; i++ {
			s := b.getSeq(0)
			if s == prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqAvoidsAnnouncement(t *testing.T) {
	// If a reader has announced (writer, s), the writer must not pick s
	// while the announcement is visible at its cursor position.
	const n = 2
	var alloc memory.NativeAllocator
	reg := NewStrong[string](&alloc, n, spec.Bot)

	reg.DWrite(1, "a") // writer picks s0, cursor now at A[1]
	// Reader announces (1, s0) into A[0].
	if v, _ := reg.DRead(0); v != "a" {
		t.Fatal("setup read failed")
	}
	// Writer's next two writes read A[1] then A[0]; when it reads A[0] it
	// must exclude the announced number from then on.
	seen := make(map[int]bool)
	for i := 0; i < 2*n+2; i++ {
		reg.DWrite(1, "b")
		seen[reg.x.Read(1).seq] = true
	}
	announced := reg.a[0].Read(0)
	if announced.pid() != 1 {
		t.Fatalf("announcement = %v, want writer 1", announced)
	}
	if seen[announced.seq()] {
		t.Errorf("writer reused announced sequence number %d", announced.seq())
	}
}

func TestSeqQueue(t *testing.T) {
	q := newSeqQueue(3)
	for _, s := range []int{0, 1, 2} {
		q.pushPop(s)
	}
	for _, s := range []int{0, 1, 2} {
		if !q.contains(s) {
			t.Errorf("queue lost %d", s)
		}
	}
	q.pushPop(3) // evicts 0
	if q.contains(0) {
		t.Error("oldest entry not evicted")
	}
	if !q.contains(3) || !q.contains(1) || !q.contains(2) {
		t.Error("queue dropped a recent entry")
	}
}

// --- Simulated linearizability ---------------------------------------------------

// simSystem builds a simulated system: writers do DWrites, readers do DReads.
func simSystem(name string, n, writes, reads int) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			reg := newImpls(env, n)[name]
			progs := make([]sched.Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				if pid%2 == 0 {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < reads; i++ {
							p.Do("DRead()", func() string {
								v, flag := reg.DRead(pid)
								return fmt.Sprintf("(%s,%t)", v, flag)
							})
						}
					}
				} else {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < writes; i++ {
							x := fmt.Sprintf("w%d.%d", pid, i)
							p.Do(spec.FormatInvocation("DWrite", x), func() string {
								reg.DWrite(pid, x)
								return "ok"
							})
						}
					}
				}
			}
			return progs
		},
	}
}

func TestLinearizableUnderRandomSchedules(t *testing.T) {
	for _, name := range []string{"linearizable", "strong"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 30; seed++ {
				res := sched.Run(simSystem(name, 3, 3, 3), sched.NewSeeded(seed), sched.Options{})
				if !res.Completed() {
					t.Fatalf("seed %d: run incomplete: %v", seed, res.Err)
				}
				chk, err := lincheck.CheckTranscript(res.T, spec.ABARegister{N: 3})
				if err != nil {
					t.Fatal(err)
				}
				if !chk.Ok {
					t.Fatalf("seed %d: history not linearizable:\n%s", seed, res.T.Interpreted())
				}
			}
		})
	}
}

func TestStrongChainMonitor(t *testing.T) {
	// Necessary condition for strong linearizability along single runs.
	for seed := int64(0); seed < 20; seed++ {
		res := sched.Run(simSystem("strong", 2, 3, 3), sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckChain(res.T, spec.ABARegister{N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: no monotone linearization along run (fail at %s)", seed, chk.FailNode)
		}
	}
}

// --- Observation 4: mechanical reproduction -------------------------------------

// observation4System: process 0 performs two DReads, process 1 performs
// five DWrites of the same value "x". With n=2 the writer's sequence
// numbers cycle 0,1,2,3,0: dw1 and dw5 share s=0 (the paper's dwi and dwj).
func observation4System(impl string) sched.System {
	return sched.System{
		N: 2,
		Setup: func(env *sched.Env) []sched.Program {
			reg := newImpls(env, 2)[impl]
			return []sched.Program{
				func(p *sched.Proc) {
					for i := 0; i < 2; i++ {
						p.Do("DRead()", func() string {
							v, flag := reg.DRead(0)
							return fmt.Sprintf("(%s,%t)", v, flag)
						})
					}
				},
				func(p *sched.Proc) {
					for i := 0; i < 5; i++ {
						p.Do("DWrite(x)", func() string {
							reg.DWrite(1, "x")
							return "ok"
						})
					}
				},
			}
		},
	}
}

func rep(pid, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = pid
	}
	return out
}

func cat(parts ...[]int) []int {
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestObservation4 reproduces the paper's Observation 4: the transcript tree
// {S, T1, T2} of Algorithm 1 admits no prefix-preserving linearization
// function, even though each individual transcript is linearizable.
//
// Step accounting (simulator): DWrite = inv + read A[c] + write X + ret = 4
// steps; Algorithm 1 DRead = inv + read X + read A[q] + write A[q] + read X
// + ret = 6 steps. "dr1 to the end of line 16" = first 3 of those.
func TestObservation4(t *testing.T) {
	sys := observation4System("linearizable")

	prefixS := cat(
		rep(1, 4), // dw1
		rep(0, 3), // dr1 through line 16
		rep(1, 4), // dw2 (the paper's dw_{i+1}, choosing s' != s)
	)
	contT1 := cat(
		rep(1, 12), // dw3, dw4, dw5 (dw5 = the paper's dwj, reusing s)
		rep(0, 3),  // dr1 from line 17 to completion
		rep(0, 6),  // dr2
	)
	contT2 := cat(
		rep(0, 3), // dr1 from line 17 to completion
		rep(0, 6), // dr2
	)

	tree, err := sched.PrefixTree(sys, prefixS, [][]int{contT1, contT2}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}

	sp := spec.ABARegister{N: 2}

	// Sanity: the runs took the shapes the proof requires.
	t1Ops := tree.Children[0].T.Interpreted()
	t2Ops := tree.Children[1].T.Interpreted()
	if got := finalDReadRes(t1Ops); got != "(x,false)" {
		t.Fatalf("dr2 in T1 returned %s, want (x,false) (paper's A-2)", got)
	}
	if got := finalDReadRes(t2Ops); got != "(x,true)" {
		t.Fatalf("dr2 in T2 returned %s, want (x,true) (paper's B-2)", got)
	}

	// Each branch in isolation is linearizable...
	for i, child := range tree.Children {
		chk, err := lincheck.CheckTranscript(child.T, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("branch T%d not linearizable — Algorithm 1 is linearizable, bug in setup:\n%s",
				i+1, child.T.Interpreted())
		}
	}

	// ...but the tree admits no prefix-preserving linearization function.
	res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok {
		t.Fatal("Observation 4 violated: Algorithm 1's {S,T1,T2} tree accepted as strongly linearizable")
	}
}

func finalDReadRes(h *trace.History) string {
	res := ""
	for _, op := range h.Ops {
		if op.Desc == "DRead()" && op.Complete() {
			res = op.Res
		}
	}
	return res
}

// TestStrongSurvivesBranchingTrees: Algorithm 2 must admit a prefix-
// preserving linearization function on randomly sampled branching trees of
// the same workload that refutes Algorithm 1.
func TestStrongSurvivesBranchingTrees(t *testing.T) {
	sys := observation4System("strong")
	for seed := int64(0); seed < 15; seed++ {
		tree, err := randomBranchTree(sys, seed, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.ABARegister{N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: Algorithm 2 failed strong-linearizability tree check at %s", seed, res.FailNode)
		}
	}
}

// randomBranchTree samples a random schedule prefix of the given length and
// attaches `fanout` completed continuations that diverge immediately after
// the prefix.
func randomBranchTree(sys sched.System, seed int64, prefixLen, fanout int) (*sched.TreeNode, error) {
	// Derive a prefix by running with a seeded adversary and recording which
	// pids it picked.
	probe := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
	prefix := probe.Schedule
	if len(prefix) > prefixLen {
		prefix = prefix[:prefixLen]
	}
	conts := make([][]int, 0, fanout)
	for f := 0; f < fanout; f++ {
		// Each continuation diverges with its own seeded adversary, running
		// to completion; its schedule is recovered from the run.
		adv := sched.NewChain(sched.NewScript(prefix...), sched.NewSeeded(seed*31+int64(f)))
		res := sched.Run(sys, adv, sched.Options{})
		if res.Err != nil {
			return nil, res.Err
		}
		conts = append(conts, res.Schedule[len(prefix):])
	}
	return sched.PrefixTree(sys, prefix, conts, sched.Options{})
}

// TestObservation6a: two GetSeq calls by the same process returning the same
// sequence number have at least n GetSeq calls between them (the usedQ keeps
// the last n+1 numbers distinct).
func TestObservation6a(t *testing.T) {
	f := func(nRaw uint8, kRaw uint8) bool {
		n := int(nRaw)%5 + 1
		k := int(kRaw)%64 + 2*n + 2
		var alloc memory.NativeAllocator
		b := newBase(&alloc, n, spec.Bot, func(a, b string) bool { return a == b })
		seqs := make([]int, k)
		for i := range seqs {
			seqs[i] = b.getSeq(0)
		}
		for i := range seqs {
			for j := i + 1; j < len(seqs) && j <= i+n; j++ {
				if seqs[i] == seqs[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDWriteAlwaysTwoSteps: Theorem 14(a) on the native path, any process
// mix, any history length.
func TestDWriteAlwaysTwoSteps(t *testing.T) {
	const n = 3
	counter := memory.NewStepCounter(n)
	alloc := &memory.CountingAllocator{Inner: &memory.NativeAllocator{}, Counter: counter}
	reg := NewStrong[string](alloc, n, spec.Bot)
	for i := 0; i < 50; i++ {
		pid := i % n
		before := counter.Steps(pid)
		reg.DWrite(pid, "v")
		if got := counter.Steps(pid) - before; got != 2 {
			t.Fatalf("DWrite %d took %d steps, want 2", i, got)
		}
		if i%7 == 0 {
			reg.DRead((pid + 1) % n)
		}
	}
}
