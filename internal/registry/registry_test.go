package registry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"slmem"
	"slmem/internal/kind"
)

// unwrapped resolves the named instance through Get and returns the slmem
// handle behind it. Built-in kinds cannot fail creation from a valid
// request, so a failure panics, which is safe from any goroutine.
func unwrapped[T any](r *Registry, k Kind, name string, req kind.Request) T {
	inst, _, err := r.Get(k, name, req)
	if err != nil {
		panic(fmt.Sprintf("registry: builtin kind %q: %v", k, err))
	}
	return inst.(kind.Unwrapper).Unwrap().(T)
}

func counterOf(r *Registry, name string) *slmem.PooledCounter {
	return unwrapped[*slmem.PooledCounter](r, KindCounter, name, kind.Request{})
}

func snapshotOf(r *Registry, name string) *slmem.Pool[string] {
	return unwrapped[*slmem.Pool[string]](r, KindSnapshot, name, kind.Request{})
}

func TestRegistryLazyCreateAndIdentity(t *testing.T) {
	r := New(Options{Procs: 4})
	a := counterOf(r, "clicks")
	b := counterOf(r, "clicks")
	if a != b {
		t.Fatal("same name resolved to two counters")
	}
	if c := counterOf(r, "other"); c == a {
		t.Fatal("different names resolved to one counter")
	}
	st := r.Stats()
	if st.Objects["counter"] != 2 {
		t.Fatalf("created %d counters, want 2", st.Objects["counter"])
	}
}

func TestRegistryConcurrentFirstUseAgrees(t *testing.T) {
	r := New(Options{Procs: 4, Shards: 2})
	const goroutines = 32
	counters := make(chan any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counters <- counterOf(r, "hot")
		}()
	}
	wg.Wait()
	close(counters)
	first := <-counters
	for c := range counters {
		if c != first {
			t.Fatal("concurrent first use created distinct objects")
		}
	}
	if n := r.Stats().Objects["counter"]; n != 1 {
		t.Fatalf("created %d counters, want 1", n)
	}
}

func TestRegistryKindsShareOnePool(t *testing.T) {
	r := New(Options{Procs: 3})
	ctx := context.Background()

	if err := counterOf(r, "c").Inc(ctx); err != nil {
		t.Fatal(err)
	}
	if err := unwrapped[*slmem.PooledMaxRegister](r, KindMaxRegister, "m", kind.Request{}).MaxWrite(ctx, 9); err != nil {
		t.Fatal(err)
	}
	if err := snapshotOf(r, "s").Update(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	o := unwrapped[*slmem.PooledObject](r, KindObject, "bag", kind.Request{Op: "execute", Type: "set"})
	if _, err := o.Execute(ctx, "add(1)"); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.PIDsInUse != 0 {
		t.Fatalf("pids in use after quiesce: %d", st.PIDsInUse)
	}
	if st.Pool.Acquires < 4 {
		t.Fatalf("pool acquires = %d, want >= 4 (one per op)", st.Pool.Acquires)
	}
	view, err := snapshotOf(r, "s").Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(view) != 3 {
		t.Fatalf("snapshot has %d components, want Procs=3", len(view))
	}
}

func TestRegistryObjectTypeMismatch(t *testing.T) {
	r := New(Options{Procs: 2})
	inst, _, err := r.Get(KindObject, "x", kind.Request{Op: "execute", Type: "set"})
	if err != nil {
		t.Fatal(err)
	}
	// Get resolves the existing object whatever the request's type; the
	// instance rejects a mismatched type when compiling the op.
	again, _, err := r.Get(KindObject, "x", kind.Request{Op: "execute", Type: "accumulator"})
	if err != nil || again != inst {
		t.Fatalf("second Get = %v, %v; want the existing instance", again, err)
	}
	if _, err := again.Compile(kind.Request{Op: "execute", Type: "accumulator", Invocation: "read()"}); err == nil {
		t.Fatal("type mismatch on existing object not rejected")
	} else if !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, _, err := r.Get(KindObject, "y", kind.Request{Op: "execute", Type: "no-such-type"}); err == nil {
		t.Fatal("unknown type not rejected")
	}
	if names := r.Names(KindObject); len(names) != 1 {
		t.Fatalf("objects registered = %v, want only x (a failed creation registers nothing)", names)
	}
}

func TestRegistryNames(t *testing.T) {
	r := New(Options{Procs: 2, Shards: 4})
	for i := 0; i < 5; i++ {
		counterOf(r, fmt.Sprintf("c%d", i))
	}
	if _, _, err := r.Get(KindMaxRegister, "m0", kind.Request{}); err != nil {
		t.Fatal(err)
	}
	names := r.Names(KindCounter)
	if len(names) != 5 {
		t.Fatalf("Names(counter) = %v, want 5 entries", names)
	}
	for i, name := range names {
		if want := fmt.Sprintf("c%d", i); name != want {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if got := r.Names(KindMaxRegister); len(got) != 1 || got[0] != "m0" {
		t.Fatalf("Names(maxreg) = %v", got)
	}
}

func TestRegistryConcurrentMixedTraffic(t *testing.T) {
	r := New(Options{Procs: 4, Shards: 4})
	ctx := context.Background()
	goroutines, ops := 16, 30
	if testing.Short() {
		goroutines, ops = 8, 10
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				name := fmt.Sprintf("k%d", (g+i)%3)
				var err error
				switch (g + i) % 3 {
				case 0:
					err = counterOf(r, name).Inc(ctx)
				case 1:
					err = snapshotOf(r, name).Update(ctx, name)
				default:
					_, err = counterOf(r, name).Read(ctx)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.PIDsInUse != 0 {
		t.Fatalf("pids in use after quiesce: %d", st.PIDsInUse)
	}
}
