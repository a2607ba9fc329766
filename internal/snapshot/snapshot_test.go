package snapshot

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

func implementations(alloc memory.Allocator, n int) map[string]Snapshot[string] {
	return map[string]Snapshot[string]{
		"doublecollect": NewDoubleCollect[string](alloc, n, spec.Bot),
		"afek":          NewAfek[string](alloc, n, spec.Bot),
		"handshake":     NewHandshake[string](alloc, n, spec.Bot),
	}
}

func TestSequentialSemantics(t *testing.T) {
	const n = 3
	for name := range implementations(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			var alloc memory.NativeAllocator
			s := implementations(&alloc, n)[name]

			view := s.Scan(0)
			for i, v := range view {
				if v != spec.Bot {
					t.Errorf("initial component %d = %q, want %q", i, v, spec.Bot)
				}
			}
			s.Update(1, "x")
			s.Update(2, "y")
			s.Update(1, "z") // overwrite own component
			view = s.Scan(0)
			want := []string{spec.Bot, "z", "y"}
			for i := range want {
				if view[i] != want[i] {
					t.Errorf("view[%d] = %q, want %q", i, view[i], want[i])
				}
			}
		})
	}
}

func TestScanReturnsCopy(t *testing.T) {
	const n = 2
	for name := range implementations(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			var alloc memory.NativeAllocator
			s := implementations(&alloc, n)[name]
			s.Update(0, "a")
			v1 := s.Scan(0)
			v1[0] = "mutated"
			v2 := s.Scan(0)
			if v2[0] != "a" {
				t.Error("Scan result shares storage with the object")
			}
		})
	}
}

func TestSequentialRandomAgainstSpec(t *testing.T) {
	const n = 3
	for name := range implementations(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(script []uint8) bool {
				var alloc memory.NativeAllocator
				s := implementations(&alloc, n)[name]
				sp := spec.Snapshot{N: n}
				state := sp.Initial()
				for i, b := range script {
					pid := int(b) % n
					if b%2 == 0 {
						x := fmt.Sprintf("v%d", i)
						s.Update(pid, x)
						state, _, _ = sp.Apply(state, pid, spec.FormatInvocation("update", x))
					} else {
						got := spec.FormatView(s.Scan(pid))
						_, want, _ := sp.Apply(state, pid, "scan()")
						if got != want {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

// simSystem: odd pids update twice, even pids scan twice.
func simSystem(name string, n int) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			s := implementations(env, n)[name]
			progs := make([]sched.Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				if pid%2 == 1 {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < 2; i++ {
							x := fmt.Sprintf("u%d.%d", pid, i)
							p.Do(spec.FormatInvocation("update", x), func() string {
								s.Update(pid, x)
								return "ok"
							})
						}
					}
				} else {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < 2; i++ {
							p.Do("scan()", func() string {
								return spec.FormatView(s.Scan(pid))
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
	for _, name := range []string{"doublecollect", "afek", "handshake"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 25; seed++ {
				res := sched.Run(simSystem(name, 3), sched.NewSeeded(seed), sched.Options{})
				if !res.Completed() {
					t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
				}
				chk, err := lincheck.CheckTranscript(res.T, spec.Snapshot{N: 3})
				if err != nil {
					t.Fatal(err)
				}
				if !chk.Ok {
					t.Fatalf("seed %d: not linearizable:\n%s", seed, res.T.Interpreted())
				}
			}
		})
	}
}

// TestAfekWaitFreeUnderWriterStorm: an Afek scan completes in a bounded
// number of its own steps even when every other process writes constantly;
// a double-collect scan does not (it is only lock-free). The adversary
// always lets writers land between the scanner's collects.
func TestAfekWaitFreeUnderWriterStorm(t *testing.T) {
	const n = 3
	const writerOps = 40

	system := func(name string) sched.System {
		return sched.System{
			N: n,
			Setup: func(env *sched.Env) []sched.Program {
				s := implementations(env, n)[name]
				progs := make([]sched.Program, n)
				progs[0] = func(p *sched.Proc) {
					p.Do("scan()", func() string {
						return spec.FormatView(s.Scan(0))
					})
				}
				for pid := 1; pid < n; pid++ {
					pid := pid
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < writerOps; i++ {
							x := fmt.Sprintf("u%d.%d", pid, i)
							p.Do(spec.FormatInvocation("update", x), func() string {
								s.Update(pid, x)
								return "ok"
							})
						}
					}
				}
				return progs
			},
		}
	}

	// Storm adversary: every 4th step goes to the scanner, the rest to
	// writers; once writers are done, the scanner runs alone.
	stormy := func() sched.Adversary {
		step := 0
		return sched.AdversaryFunc(func(enabled []int, _ *trace.Transcript) int {
			step++
			if step%4 != 0 {
				for _, pid := range enabled {
					if pid != 0 {
						return pid
					}
				}
			}
			for _, pid := range enabled {
				if pid == 0 {
					return 0
				}
			}
			return enabled[0]
		})
	}

	resAfek := sched.Run(system("afek"), stormy(), sched.Options{})
	if !resAfek.Completed() {
		t.Fatalf("afek run incomplete: %v", resAfek.Err)
	}
	resDC := sched.Run(system("doublecollect"), stormy(), sched.Options{})
	if !resDC.Completed() {
		t.Fatalf("doublecollect run incomplete: %v", resDC.Err)
	}

	// Afek: the scan must finish well before the writers are exhausted.
	if scanReturnIndex(resAfek.T) > lastWriterReturnIndex(resAfek.T) {
		t.Error("afek scan did not complete until writers finished — helping failed")
	}
	// Double-collect: with a writer landing between every pair of scanner
	// steps, the scan only finishes once the storm subsides.
	if scanReturnIndex(resDC.T) < lastWriterReturnIndex(resDC.T) {
		t.Error("double-collect scan finished amid the storm — adversary too weak to exercise lock-freedom")
	}
}

func scanReturnIndex(tr *trace.Transcript) int {
	for _, op := range tr.Interpreted().Ops {
		if op.Desc == "scan()" {
			return op.Ret
		}
	}
	return -1
}

func lastWriterReturnIndex(tr *trace.Transcript) int {
	last := -1
	for _, op := range tr.Interpreted().Ops {
		if op.Desc != "scan()" && op.Ret > last {
			last = op.Ret
		}
	}
	return last
}

// TestDoubleCollectWideMatchesNarrow runs one seeded script of updates and
// scans on DoubleCollects of n = 32 (the widest that collects on the
// stack) and n = 33 (two heap buffers per scan): the first 32 components,
// the untouched 33rd, and the versions must agree after every step.
func TestDoubleCollectWideMatchesNarrow(t *testing.T) {
	var alloc memory.NativeAllocator
	narrow := NewDoubleCollect[string](&alloc, stackCollect, spec.Bot)
	wide := NewDoubleCollect[string](&alloc, stackCollect+1, spec.Bot)
	rng := rand.New(rand.NewSource(33))
	updates := uint64(0)
	for i := 0; i < 2000; i++ {
		pid := rng.Intn(stackCollect)
		if rng.Intn(3) > 0 {
			x := fmt.Sprintf("v%d", i)
			narrow.Update(pid, x)
			wide.Update(pid, x)
			updates++
			continue
		}
		nv, nver := narrow.ScanVersioned(pid)
		wv, wver := wide.ScanVersioned(pid)
		if nver != updates || wver != updates {
			t.Fatalf("step %d: versions narrow=%d wide=%d, want %d", i, nver, wver, updates)
		}
		if len(wv) != stackCollect+1 || wv[stackCollect] != spec.Bot {
			t.Fatalf("step %d: wide view %v, want %d components ending in ⊥", i, wv, stackCollect+1)
		}
		for j := range nv {
			if nv[j] != wv[j] {
				t.Fatalf("step %d: component %d narrow=%q wide=%q", i, j, nv[j], wv[j])
			}
		}
		if got := wide.Scan(pid); spec.FormatView(got) != spec.FormatView(wv) {
			t.Fatalf("step %d: Scan %v != ScanVersioned %v", i, got, wv)
		}
	}
}

// TestDoubleCollectWideConcurrent hammers the heap-buffer path (n = 33)
// with concurrent writers: every scan must see each component's counter
// no lower than an earlier scan by the same process saw it.
func TestDoubleCollectWideConcurrent(t *testing.T) {
	const n = stackCollect + 1
	var alloc memory.NativeAllocator
	s := NewDoubleCollect[int](&alloc, n, 0)
	const writers, iters = 3, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 1; i <= iters; i++ {
				s.Update(pid, i)
			}
		}(w)
	}
	last := make([]int, n)
	var lastVersion uint64
	for i := 0; i < 500; i++ {
		view, version := s.ScanVersioned(n - 1)
		if version < lastVersion {
			t.Fatalf("version went back from %d to %d", lastVersion, version)
		}
		lastVersion = version
		var sum uint64
		for j, v := range view {
			if v < last[j] {
				t.Fatalf("component %d went back from %d to %d", j, last[j], v)
			}
			last[j] = v
			sum += uint64(v)
		}
		if sum != version {
			t.Fatalf("view %v sums to %d, version %d", view, sum, version)
		}
	}
	wg.Wait()
}
