// Package memory provides the shared-memory base objects of the paper's
// model: atomic multi-reader multi-writer registers.
//
// Algorithms are written once against the Register interface and an
// Allocator, and run in two modes:
//
//   - native: registers are sync/atomic pointers (a hardware atomic load or
//     store of a pointer is an atomic register), or, for values that fit a
//     machine word (Word), one atomic uint64; used by examples, soak tests,
//     and benchmarks;
//   - simulated: registers are owned by the deterministic scheduler in
//     internal/sched, where each access is one scheduled step.
//
// Every Register method takes the id of the calling process. Native
// registers ignore it; simulated registers use it to attribute the step and
// to block the caller until the adversary schedules it.
package memory

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Register is an atomic multi-reader multi-writer register.
//
// Values written to a register must be treated as immutable: the register
// stores them verbatim and may hand the same value to many readers.
type Register interface {
	// Read returns the current value, as a step of process pid.
	Read(pid int) any
	// Write replaces the current value, as a step of process pid.
	Write(pid int, v any)
	// Name returns the register's allocation name (for transcripts).
	Name() string
}

// Allocator creates registers. Implementations count allocations so that
// space-complexity experiments can report register usage.
type Allocator interface {
	// NewRegister returns a fresh register initialized to init. The name
	// appears in transcripts and space reports; allocators may suffix it to
	// keep names unique.
	NewRegister(name string, init any) Register
	// Registers returns the number of registers allocated so far.
	Registers() int
}

// --- Native registers --------------------------------------------------------

// Native registers are padded out to a full cache line (64 bytes). Adjacent
// per-process components (one register per pid, allocated back to back) would
// otherwise land on the same line, and every write by one process would
// invalidate the line its neighbours are spinning on — false sharing that the
// collect loops of the snapshot algorithms are particularly exposed to.
const cacheLine = 64

type nativeRegister struct {
	name string
	v    atomic.Pointer[any]
	_    [cacheLine - 24]byte // name (16) + v (8) = 24
}

var _ Register = (*nativeRegister)(nil)

func (r *nativeRegister) Read(int) any {
	return *r.v.Load()
}

func (r *nativeRegister) Write(_ int, v any) {
	r.v.Store(&v)
}

func (r *nativeRegister) Name() string { return r.name }

// NativeAllocator allocates registers backed by sync/atomic. The zero value
// is ready to use. It is safe for concurrent use.
type NativeAllocator struct {
	count atomic.Int64
}

var _ Allocator = (*NativeAllocator)(nil)

// NewRegister implements Allocator.
func (a *NativeAllocator) NewRegister(name string, init any) Register {
	a.count.Add(1)
	r := &nativeRegister{name: name}
	r.v.Store(&init)
	return r
}

// Registers implements Allocator.
func (a *NativeAllocator) Registers() int { return int(a.count.Load()) }

// --- Step counting -----------------------------------------------------------

// StepCounter counts shared-memory steps per process. It is safe for
// concurrent use.
type StepCounter struct {
	reads  []atomic.Int64
	writes []atomic.Int64
}

// NewStepCounter returns a counter for n processes.
func NewStepCounter(n int) *StepCounter {
	return &StepCounter{
		reads:  make([]atomic.Int64, n),
		writes: make([]atomic.Int64, n),
	}
}

// Reads returns the number of register reads by pid.
func (c *StepCounter) Reads(pid int) int64 { return c.reads[pid].Load() }

// Writes returns the number of register writes by pid.
func (c *StepCounter) Writes(pid int) int64 { return c.writes[pid].Load() }

// Steps returns reads+writes by pid.
func (c *StepCounter) Steps(pid int) int64 { return c.Reads(pid) + c.Writes(pid) }

// TotalSteps returns reads+writes across all processes.
func (c *StepCounter) TotalSteps() int64 {
	var sum int64
	for i := range c.reads {
		sum += c.reads[i].Load() + c.writes[i].Load()
	}
	return sum
}

// Reset zeroes all counters.
func (c *StepCounter) Reset() {
	for i := range c.reads {
		c.reads[i].Store(0)
		c.writes[i].Store(0)
	}
}

type countingRegister struct {
	inner Register
	c     *StepCounter
}

var _ Register = (*countingRegister)(nil)

func (r *countingRegister) Read(pid int) any {
	r.c.reads[pid].Add(1)
	return r.inner.Read(pid)
}

func (r *countingRegister) Write(pid int, v any) {
	r.c.writes[pid].Add(1)
	r.inner.Write(pid, v)
}

func (r *countingRegister) Name() string { return r.inner.Name() }

// CountingAllocator decorates an Allocator so that every register it hands
// out counts steps into Counter.
type CountingAllocator struct {
	Inner   Allocator
	Counter *StepCounter
}

var _ Allocator = (*CountingAllocator)(nil)

// NewRegister implements Allocator.
func (a *CountingAllocator) NewRegister(name string, init any) Register {
	return &countingRegister{inner: a.Inner.NewRegister(name, init), c: a.Counter}
}

// Registers implements Allocator.
func (a *CountingAllocator) Registers() int { return a.Inner.Registers() }

// --- Typed wrapper -----------------------------------------------------------

// typedNative is the allocation-lean native register behind Reg's fast path:
// values are stored as typed pointers, so a write costs one heap cell (the V
// copy) instead of the two (interface box plus pointer cell) the untyped
// nativeRegister pays. Padded to a cache line like nativeRegister, so
// per-process register arrays do not false-share. It carries no name: only
// transcripts and the Register interface read one.
type typedNative[V any] struct {
	v atomic.Pointer[V]
	_ [cacheLine - 8]byte
}

func (r *typedNative[V]) read() V { return *r.v.Load() }

func (r *typedNative[V]) write(v V) {
	p := new(V)
	*p = v
	r.v.Store(p)
}

// Reg is a typed view over a register. The zero value is unusable; construct
// with NewReg or NewRegs.
//
// When the allocator is a plain *NativeAllocator, the register is backed by
// a typed atomic pointer directly (no interface boxing per access); any other
// allocator — counting decorators, the simulated scheduler — goes through the
// untyped Register interface it hands out.
type Reg[V any] struct {
	fast *typedNative[V] // non-nil iff allocated from a bare NativeAllocator
	r    Register
}

// NewReg allocates a register holding values of type V, initialized to init.
func NewReg[V any](a Allocator, name string, init V) Reg[V] {
	if na, ok := a.(*NativeAllocator); ok {
		na.count.Add(1)
		fast := &typedNative[V]{}
		fast.v.Store(&init)
		return Reg[V]{fast: fast}
	}
	return Reg[V]{r: a.NewRegister(name, init)}
}

// NewRegs allocates n registers holding values of type V, each initialized
// to init and named prefix[0] … prefix[n-1]. Names are formatted only for
// allocators that keep them; a bare NativeAllocator carves the n registers
// from one array, all sharing one immutable initial value.
func NewRegs[V any](a Allocator, prefix string, n int, init V) []Reg[V] {
	regs := make([]Reg[V], n)
	if na, ok := a.(*NativeAllocator); ok {
		na.count.Add(int64(n))
		cells := make([]typedNative[V], n)
		for i := range regs {
			cells[i].v.Store(&init)
			regs[i] = Reg[V]{fast: &cells[i]}
		}
		return regs
	}
	for i := range regs {
		regs[i] = Reg[V]{r: a.NewRegister(indexedName(prefix, i), init)}
	}
	return regs
}

// indexedName is prefix[i], the name NewRegs and NewWords give register i.
func indexedName(prefix string, i int) string {
	return prefix + "[" + strconv.Itoa(i) + "]"
}

// Read returns the current value as a step of process pid.
func (t Reg[V]) Read(pid int) V {
	if t.fast != nil {
		return t.fast.read()
	}
	v, ok := t.r.Read(pid).(V)
	if !ok {
		// Registers are allocated typed and only written through this
		// wrapper, so this indicates memory corruption or API misuse.
		panic(fmt.Sprintf("memory: register %s holds %T, want %T", t.r.Name(), t.r.Read(pid), v))
	}
	return v
}

// Write stores v as a step of process pid.
func (t Reg[V]) Write(pid int, v V) {
	if t.fast != nil {
		t.fast.write(v)
		return
	}
	t.r.Write(pid, v)
}

// --- Word registers ----------------------------------------------------------

// nativeWord is Word's fast path: one atomic machine word, padded to a cache
// line so per-process arrays do not false-share.
type nativeWord struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Word is a register whose values fit one machine word: V is uint64 or a
// type defined on it (which may carry a String method, so transcripts print
// the value as the algorithm means it). A native Word reads and writes one
// atomic uint64 and allocates nothing per step; under any other allocator it
// is a Reg, so simulated schedules and step counts are the same as for a
// Reg. The zero value is unusable; construct with NewWords.
type Word[V ~uint64] struct {
	fast *nativeWord // non-nil iff allocated from a bare NativeAllocator
	slow Reg[V]
}

// NewWords allocates n word registers, each initialized to init and named
// prefix[0] … prefix[n-1] (names are formatted only for allocators that
// keep them, as for NewRegs).
func NewWords[V ~uint64](a Allocator, prefix string, n int, init V) []Word[V] {
	words := make([]Word[V], n)
	if na, ok := a.(*NativeAllocator); ok {
		na.count.Add(int64(n))
		cells := make([]nativeWord, n)
		for i := range words {
			cells[i].v.Store(uint64(init))
			words[i] = Word[V]{fast: &cells[i]}
		}
		return words
	}
	for i, r := range NewRegs(a, prefix, n, init) {
		words[i] = Word[V]{slow: r}
	}
	return words
}

// Read returns the current value as a step of process pid.
func (w Word[V]) Read(pid int) V {
	if w.fast != nil {
		return V(w.fast.v.Load())
	}
	return w.slow.Read(pid)
}

// Write stores v as a step of process pid.
func (w Word[V]) Write(pid int, v V) {
	if w.fast != nil {
		w.fast.v.Store(uint64(v))
		return
	}
	w.slow.Write(pid, v)
}
