package slmem

import (
	"fmt"
	"sync"
	"testing"
)

func TestSnapshotQuickstart(t *testing.T) {
	s := NewSnapshot[string](3, "")
	s.Update(0, "a")
	s.Update(2, "c")
	view := s.Scan(1)
	if view[0] != "a" || view[1] != "" || view[2] != "c" {
		t.Errorf("view = %v", view)
	}
}

func TestSnapshotHandles(t *testing.T) {
	s := NewSnapshot[int](2, 0)
	h0, h1 := s.Handle(0), s.Handle(1)
	if h0.PID() != 0 || h1.PID() != 1 {
		t.Fatal("handle pids wrong")
	}
	h0.Update(10)
	h1.Update(20)
	view := h0.Scan()
	if view[0] != 10 || view[1] != 20 {
		t.Errorf("view = %v", view)
	}
}

func TestSnapshotConcurrentSoak(t *testing.T) {
	// Real goroutines; run with -race. Each process updates with increasing
	// values and scans; per-component values must never decrease across a
	// process's own successive scans (snapshot monotonicity for single
	// writers writing increasing values).
	const n, rounds = 4, 200
	s := NewSnapshot[int](n, 0)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			last := make([]int, n)
			for i := 1; i <= rounds; i++ {
				s.Update(pid, i)
				view := s.Scan(pid)
				if view[pid] < i {
					t.Errorf("p%d: own component went back in time: %d < %d", pid, view[pid], i)
					return
				}
				for q := 0; q < n; q++ {
					if view[q] < last[q] {
						t.Errorf("p%d: component %d regressed %d -> %d", pid, q, last[q], view[q])
						return
					}
					last[q] = view[q]
				}
			}
		}(pid)
	}
	wg.Wait()
}

func TestABARegisterQuickstart(t *testing.T) {
	r := NewABARegister[string](2, "")
	r.DWrite(0, "a")
	if v, changed := r.DRead(1); v != "a" || !changed {
		t.Errorf("DRead = (%q,%t)", v, changed)
	}
	r.DWrite(0, "b")
	r.DWrite(0, "a") // ABA: value back to "a"
	if v, changed := r.DRead(1); v != "a" || !changed {
		t.Errorf("ABA not detected: DRead = (%q,%t)", v, changed)
	}
	if v, changed := r.DRead(1); v != "a" || changed {
		t.Errorf("quiescent DRead = (%q,%t)", v, changed)
	}
}

func TestABARegisterConcurrentSoak(t *testing.T) {
	const n, writes = 4, 300
	r := NewABARegister[int](n, -1)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			if pid == 0 {
				// Reader: whenever the value changes, the flag must be set.
				prev, _ := r.DRead(pid)
				for i := 0; i < writes; i++ {
					v, changed := r.DRead(pid)
					if v != prev && !changed {
						t.Errorf("value changed %d -> %d but flag false", prev, v)
						return
					}
					prev = v
				}
			} else {
				for i := 0; i < writes; i++ {
					r.DWrite(pid, pid*writes+i)
				}
			}
		}(pid)
	}
	wg.Wait()
}

func TestCounterConcurrentSoak(t *testing.T) {
	const n, incs = 4, 100
	c := NewCounter(n)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			var last uint64
			for i := 0; i < incs; i++ {
				c.Inc(pid)
				got := c.Read(pid)
				if got < last {
					t.Errorf("p%d: counter regressed %d -> %d", pid, last, got)
					return
				}
				last = got
			}
		}(pid)
	}
	wg.Wait()
	if got := c.Read(0); got != n*incs {
		t.Errorf("final count = %d, want %d", got, n*incs)
	}
}

func TestMaxRegisterConcurrentSoak(t *testing.T) {
	const n, writes = 4, 100
	m := NewMaxRegister(n)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			var last uint64
			for i := 1; i <= writes; i++ {
				m.MaxWrite(pid, uint64(pid*writes+i))
				got := m.MaxRead(pid)
				if got < last {
					t.Errorf("p%d: max regressed %d -> %d", pid, last, got)
					return
				}
				last = got
			}
		}(pid)
	}
	wg.Wait()
	want := uint64((n-1)*writes + writes)
	if got := m.MaxRead(0); got != want {
		t.Errorf("final max = %d, want %d", got, want)
	}
}

func TestObjectQuickstart(t *testing.T) {
	o := NewObject(SetType{}, 2)
	if resp, err := o.Execute(0, "contains(x)"); err != nil || resp != "false" {
		t.Fatalf("contains = (%q,%v)", resp, err)
	}
	if _, err := o.Execute(0, "add(x)"); err != nil {
		t.Fatal(err)
	}
	if resp, _ := o.Execute(1, "contains(x)"); resp != "true" {
		t.Errorf("contains after add = %q", resp)
	}
}

func TestObjectConcurrentSoak(t *testing.T) {
	const n = 3
	o := NewObject(CounterType{}, n)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := o.Execute(pid, "inc()"); err != nil {
					t.Error(err)
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	if resp, err := o.Execute(0, "read()"); err != nil || resp != "60" {
		t.Errorf("read = (%q,%v), want 60", resp, err)
	}
}

// TestObjectTruncatesByDefault checks that every Object bounds its memory
// with no configuration: with all n pids executing in rotation, the
// collector truncates, live nodes stay within 3·n·window, and the
// truncation protocol never fails.
func TestObjectTruncatesByDefault(t *testing.T) {
	const n, window = 4, 256
	o := NewObject(CounterType{}, n)
	maxLive := 0
	for i := 0; i < 4*window*n; i++ {
		if _, err := o.Execute(i%n, "inc()"); err != nil {
			t.Fatal(err)
		}
		if i%window == window-1 {
			maxLive = max(maxLive, o.GCStats(i%n).LiveNodes)
		}
	}
	st := o.GCStats(0)
	if st.Truncations == 0 {
		t.Fatalf("no truncation after %d ops per pid: %+v", 4*window, st)
	}
	if bound := 3 * n * window; maxLive > bound {
		t.Errorf("live nodes peaked at %d, want <= %d", maxLive, bound)
	}
	if st.CoverageFailures+st.ReplayFailures != 0 {
		t.Errorf("truncation protocol failed: %+v", st)
	}
	if resp, err := o.Execute(0, "read()"); err != nil || resp != fmt.Sprint(4*window*n) {
		t.Errorf("read = (%q,%v), want %d", resp, err, 4*window*n)
	}
}

func TestValidateSimpleExported(t *testing.T) {
	if err := ValidateSimple(CounterType{}, []string{"inc()", "read()"}, []int{0, 1}); err != nil {
		t.Error(err)
	}
	if err := ValidateSimple(CounterType{}, []string{"inc()", "read()"}, nil); err == nil {
		t.Error("ValidateSimple accepted invocation samples with no pids")
	}
}

func ExampleSnapshot() {
	s := NewSnapshot[string](3, "-")
	s.Update(0, "alpha")
	s.Update(2, "gamma")
	fmt.Println(s.Scan(1))
	// Output: [alpha - gamma]
}

func ExampleABARegister() {
	r := NewABARegister[string](2, "")
	r.DWrite(0, "a")
	r.DRead(1)       // observe "a"
	r.DWrite(0, "b") // change it...
	r.DWrite(0, "a") // ...and change it back
	v, changed := r.DRead(1)
	fmt.Println(v, changed)
	// Output: a true
}

func ExampleObject() {
	o := NewObject(CounterType{}, 2)
	o.Execute(0, "inc()")
	o.Execute(1, "inc()")
	resp, _ := o.Execute(0, "read()")
	fmt.Println(resp)
	// Output: 2
}

func ExampleFuncType() {
	// A custom simple type: a boolean OR flag. set() operations commute
	// (and are idempotent, so they mutually overwrite); everything
	// overwrites get().
	flag := FuncType{
		TypeName: "orflag",
		Sequential: FuncSpec{
			SpecName:     "orflag",
			InitialState: "false",
			ApplyFn: func(state string, _ int, desc string) (string, string, error) {
				if desc == "set()" {
					return "true", "ok", nil
				}
				return state, state, nil // get()
			},
		},
		OverwritesFn: func(a string, _ int, b string, _ int) bool {
			return b == "get()" || a == "set()" && b == "set()"
		},
	}
	if err := ValidateSimple(flag, []string{"set()", "get()"}, []int{0, 1}); err != nil {
		panic(err)
	}
	o := NewObject(flag, 2)
	o.Execute(0, "set()")
	resp, _ := o.Execute(1, "get()")
	fmt.Println(resp)
	// Output: true
}
