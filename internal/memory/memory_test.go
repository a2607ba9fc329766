package memory

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestNativeRegisterBasic(t *testing.T) {
	var a NativeAllocator
	r := a.NewRegister("X", 42)
	if got := r.Read(0); got != 42 {
		t.Errorf("initial Read = %v, want 42", got)
	}
	r.Write(1, "hello")
	if got := r.Read(0); got != "hello" {
		t.Errorf("Read after Write = %v, want hello", got)
	}
	if r.Name() != "X" {
		t.Errorf("Name = %q, want X", r.Name())
	}
}

func TestNativeAllocatorCounts(t *testing.T) {
	var a NativeAllocator
	for i := 0; i < 10; i++ {
		a.NewRegister("r", i)
	}
	if got := a.Registers(); got != 10 {
		t.Errorf("Registers = %d, want 10", got)
	}
}

func TestNativeRegisterConcurrent(t *testing.T) {
	var a NativeAllocator
	r := a.NewRegister("X", 0)
	const writers, iters = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Write(pid, pid*iters+i)
				if v := r.Read(pid).(int); v < 0 || v >= writers*iters {
					t.Errorf("torn read: %d", v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStepCounter(t *testing.T) {
	var native NativeAllocator
	c := NewStepCounter(2)
	a := &CountingAllocator{Inner: &native, Counter: c}
	r := a.NewRegister("X", 0)

	r.Write(0, 1)
	r.Write(0, 2)
	r.Read(1)

	if got := c.Writes(0); got != 2 {
		t.Errorf("Writes(0) = %d, want 2", got)
	}
	if got := c.Reads(1); got != 1 {
		t.Errorf("Reads(1) = %d, want 1", got)
	}
	if got := c.Steps(0); got != 2 {
		t.Errorf("Steps(0) = %d, want 2", got)
	}
	if got := c.TotalSteps(); got != 3 {
		t.Errorf("TotalSteps = %d, want 3", got)
	}
	if got := a.Registers(); got != 1 {
		t.Errorf("Registers = %d, want 1", got)
	}

	c.Reset()
	if got := c.TotalSteps(); got != 0 {
		t.Errorf("TotalSteps after Reset = %d, want 0", got)
	}
}

func TestTypedReg(t *testing.T) {
	var a NativeAllocator
	type pair struct{ p, s int }
	r := NewReg(&a, "A", pair{1, 2})
	if got := r.Read(0); got != (pair{1, 2}) {
		t.Errorf("Read = %v", got)
	}
	r.Write(0, pair{3, 4})
	if got := r.Read(0); got != (pair{3, 4}) {
		t.Errorf("Read after Write = %v", got)
	}
	// Native registers keep no name; allocators that do (counting, sched)
	// name the Register they hand out.
	counted := NewReg(&CountingAllocator{Inner: &a, Counter: NewStepCounter(1)}, "A", pair{})
	if got := counted.r.Name(); got != "A" {
		t.Errorf("counting Name = %q, want A", got)
	}
}

// Property: a sequential series of writes is always read back verbatim.
func TestRegisterSequentialProperty(t *testing.T) {
	f := func(vals []int64) bool {
		var a NativeAllocator
		r := NewReg(&a, "X", int64(0))
		for _, v := range vals {
			r.Write(0, v)
			if r.Read(0) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypedRegPanicsOnTypeConfusion(t *testing.T) {
	var a NativeAllocator
	raw := a.NewRegister("X", 1)
	typed := Reg[string]{r: raw} // deliberately mistyped view
	defer func() {
		if recover() == nil {
			t.Error("mistyped register read did not panic")
		}
	}()
	typed.Read(0)
}

func TestCountingAllocatorNesting(t *testing.T) {
	c1 := NewStepCounter(1)
	c2 := NewStepCounter(1)
	var native NativeAllocator
	a1 := &CountingAllocator{Inner: &native, Counter: c1}
	a2 := &CountingAllocator{Inner: a1, Counter: c2}
	r := a2.NewRegister("X", 0)
	r.Write(0, 1)
	r.Read(0)
	if c1.Steps(0) != 2 || c2.Steps(0) != 2 {
		t.Errorf("nested counters = %d/%d, want 2/2", c1.Steps(0), c2.Steps(0))
	}
	if a2.Registers() != 1 {
		t.Errorf("Registers = %d", a2.Registers())
	}
}

// TestNewRegs checks both NewRegs paths: native registers are independent
// and counted, and any other allocator sees every register under its
// indexed name.
func TestNewRegs(t *testing.T) {
	var a NativeAllocator
	regs := NewRegs(&a, "R", 3, "init")
	if got := a.Registers(); got != 3 {
		t.Errorf("native Registers = %d, want 3", got)
	}
	regs[1].Write(0, "x")
	if regs[0].Read(0) != "init" || regs[1].Read(0) != "x" || regs[2].Read(0) != "init" {
		t.Errorf("native regs = %q %q %q, want init x init",
			regs[0].Read(0), regs[1].Read(0), regs[2].Read(0))
	}

	c := NewStepCounter(1)
	counted := NewRegs(&CountingAllocator{Inner: &a, Counter: c}, "snap.R", 2, 7)
	for i, r := range counted {
		if want := fmt.Sprintf("snap.R[%d]", i); r.r.Name() != want {
			t.Errorf("Name = %q, want %q", r.r.Name(), want)
		}
	}
	counted[0].Write(0, 8)
	if counted[0].Read(0) != 8 || counted[1].Read(0) != 7 {
		t.Error("counting regs do not hold their own values")
	}
	if c.Steps(0) != 3 {
		t.Errorf("counted steps = %d, want 3", c.Steps(0))
	}
}

// pair is a word type with a String method, like the ABA announcements.
type pair uint64

func (p pair) String() string { return fmt.Sprintf("<%d>", uint64(p)) }

// TestNewWords checks Word on both paths: native words read back what was
// written, and under a counting allocator each access is one step on a
// register named prefix[i] whose value keeps its defined type (so
// transcripts print it through String).
func TestNewWords(t *testing.T) {
	var a NativeAllocator
	words := NewWords(&a, "A", 2, pair(5))
	if got := a.Registers(); got != 2 {
		t.Errorf("native Registers = %d, want 2", got)
	}
	words[0].Write(0, 1<<40|3)
	if words[0].Read(1) != 1<<40|3 || words[1].Read(1) != 5 {
		t.Errorf("native words = %d %d", words[0].Read(1), words[1].Read(1))
	}

	c := NewStepCounter(2)
	ca := &CountingAllocator{Inner: &a, Counter: c}
	counted := NewWords(ca, "aba.A", 2, pair(0))
	counted[1].Write(1, 9)
	if got := counted[1].Read(0); got != 9 {
		t.Errorf("counted word = %d, want 9", got)
	}
	if c.Writes(1) != 1 || c.Reads(0) != 1 {
		t.Errorf("steps: writes(1)=%d reads(0)=%d, want 1 and 1", c.Writes(1), c.Reads(0))
	}
	if got := counted[1].slow.r.Name(); got != "aba.A[1]" {
		t.Errorf("Name = %q, want aba.A[1]", got)
	}
	if got := fmt.Sprintf("%v", counted[1].slow.r.Read(0)); got != "<9>" {
		t.Errorf("stored value prints %q, want <9>", got)
	}
}

// TestNativeStepsAllocationFree pins the point of Word: a native word
// register's read and write allocate nothing.
func TestNativeStepsAllocationFree(t *testing.T) {
	var a NativeAllocator
	w := NewWords(&a, "A", 1, pair(0))[0]
	allocs := testing.AllocsPerRun(100, func() {
		w.Write(0, w.Read(0)+1)
	})
	if allocs != 0 {
		t.Errorf("native word step = %.1f allocs, want 0", allocs)
	}
}
