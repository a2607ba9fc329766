package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"time"

	"slmem"
	"slmem/internal/bag" // registers the bag kind; churn probe reads its stats
	"slmem/internal/core"
	"slmem/internal/kind"
	"slmem/internal/memory"
	"slmem/internal/registry"
	slruntime "slmem/internal/runtime"
	"slmem/internal/server"
)

// perfProbe is one measured hot path in the -json summary.
type perfProbe struct {
	// Name identifies the path, e.g. "counter/inc-direct".
	Name string `json:"name"`
	// Mode distinguishes what the number means: "steady" probes measure a
	// stable per-op cost, "growth" probes measure a cost that grows with
	// accumulated state (history length, tombstones) over the probe
	// duration — their ns/op is only comparable across equal -probetime
	// runs.
	Mode string `json:"mode"`
	// Ops is how many operations the probe completed.
	Ops int64 `json:"ops"`
	// NsPerOp is the mean wall-clock cost of one operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the mean number of heap allocations per operation
	// (whole-process Mallocs delta over the probe, like -benchmem).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Registers is how many base registers the probed object allocated —
	// the paper's space metric (constant for the bounded algorithms). Zero
	// for service-layer probes, whose objects live behind the registry.
	Registers int `json:"registers"`
	// SpaceCells, when set, is the number of reachable storage cells the
	// probed object holds after the probe — the bounded-space evidence for
	// the bag churn and universal GC probes (live precedence-graph nodes
	// for the latter).
	SpaceCells int `json:"space_cells,omitempty"`
	// Truncations, when set, is how many times the probed universal
	// object's garbage collector advanced its truncation root during the
	// probe.
	Truncations int64 `json:"truncations,omitempty"`
	// RootVersion, when set, is the probed universal object's truncation
	// root version when the probe ended.
	RootVersion int64 `json:"root_version,omitempty"`
	// GCFailures, when set, is the sum of the probed object's collector
	// coverage and replay failure counters when the probe ended. Nonzero
	// means the truncation protocol broke mid-probe (see Object.GCStats);
	// the field is omitted in the healthy zero case.
	GCFailures int64 `json:"gc_failures,omitempty"`
}

// perfDerived reports the batch-pipeline headline numbers computed from the
// probes: the lease+dispatch overhead one operation pays on the per-request
// server path versus its share of a 64-op batched request, both relative to
// the direct (caller-managed pid) cost of the same counter increment.
type perfDerived struct {
	// PerRequestOverheadNs is server per-request ns/op minus direct ns/op.
	PerRequestOverheadNs float64 `json:"per_request_overhead_ns"`
	// Batch64PerOpOverheadNs is the batched server path's per-op ns (one
	// 64-entry /v1/batch request divided by 64) minus direct ns/op.
	Batch64PerOpOverheadNs float64 `json:"batch64_per_op_overhead_ns"`
	// Batch64OverheadRatio is PerRequestOverheadNs over
	// Batch64PerOpOverheadNs: how many times cheaper the batched path's
	// per-op overhead is. CI's bench-smoke job gates it at >= 6 (the dev
	// box records ~8x in BENCH_*.json).
	Batch64OverheadRatio float64 `json:"batch64_overhead_ratio"`
}

// perfSummary is the one-line JSON document emitted by -json, for recording
// as BENCH_*.json and diffing across PRs.
type perfSummary struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	ProbeMs    int64       `json:"probe_ms"`
	Probes     []perfProbe `json:"probes"`
	Derived    perfDerived `json:"derived"`
}

// batchProbeSize is the batch size of the batched probes and of the derived
// overhead ratio (matching the BenchmarkRegistryBatch/size-64 family).
const batchProbeSize = 64

// warmObjectHistory is the history depth the steady-state universal-object
// probe pre-grows before measuring: deep enough that an O(history) replay
// would dominate (BENCH_0003 measured ~2.9ms/op around this depth), so the
// probe demonstrates the replay cache's O(delta) amortization.
const warmObjectHistory = 10000

// measure runs op in a tight loop for roughly d and returns the op count,
// mean ns/op, and mean allocations per op (whole-process Mallocs delta, so
// run probes one at a time).
func measure(d time.Duration, op func()) (int64, float64, float64) {
	const batch = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ops int64
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			op()
		}
		ops += batch
		if time.Since(start) >= d {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return ops,
		float64(elapsed.Nanoseconds()) / float64(ops),
		float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// emitJSONSummary measures the service-relevant hot paths — direct (caller
// manages the pid), pooled (a lease per operation), per-driver (the generic
// codec path of every registered kind), per-request (one HTTP request per
// operation), and batched (64 operations per request or lease) — and writes
// one JSON line. The pooled/direct pairs quantify the lease overhead the
// runtime layer adds; the driver probes cover each registered kind through
// the same dispatch the server uses; the request/batch pairs quantify what
// /v1/batch amortizes away; bench_test.go carries the full benchmark suite.
func emitJSONSummary(w io.Writer, probeTime time.Duration) error {
	const n = 8
	ctx := context.Background()
	var probes []perfProbe

	add := func(name, mode string, registers int, op func()) float64 {
		ops, nsPerOp, allocsPerOp := measure(probeTime, op)
		probes = append(probes, perfProbe{
			Name: name, Mode: mode, Ops: ops,
			NsPerOp: nsPerOp, AllocsPerOp: allocsPerOp, Registers: registers,
		})
		return nsPerOp
	}
	// addBatched measures op (which performs `size` operations per call) and
	// records per-operation numbers.
	addBatched := func(name, mode string, size int, op func()) float64 {
		batches, nsPerBatch, allocsPerBatch := measure(probeTime, op)
		nsPerOp := nsPerBatch / float64(size)
		probes = append(probes, perfProbe{
			Name: name, Mode: mode, Ops: batches * int64(size),
			NsPerOp: nsPerOp, AllocsPerOp: allocsPerBatch / float64(size),
		})
		return nsPerOp
	}

	var directIncNs float64
	{
		var alloc memory.NativeAllocator
		c := core.NewCounter(&alloc, n)
		directIncNs = add("counter/inc-direct", "steady", alloc.Registers(), func() { c.Inc(0) })
	}
	{
		var alloc memory.NativeAllocator
		c := core.NewCounter(&alloc, n)
		l := slruntime.NewLeaser(n)
		add("counter/inc-pooled", "steady", alloc.Registers(), func() {
			l.With(ctx, func(pid int) error { c.Inc(pid); return nil })
		})
	}
	{
		var alloc memory.NativeAllocator
		s := core.New[uint64](&alloc, n, 0)
		add("snapshot/update-direct", "steady", alloc.Registers(), func() { s.Update(0, 1) })
	}
	{
		var alloc memory.NativeAllocator
		s := core.New[uint64](&alloc, n, 0)
		l := slruntime.NewLeaser(n)
		add("snapshot/scan-pooled", "steady", alloc.Registers(), func() {
			l.With(ctx, func(pid int) error { s.Scan(pid); return nil })
		})
	}

	// Registry layer: a lease plus named-object dispatch per op, against one
	// BatchExecute amortizing the lease over batchProbeSize ops.
	{
		reg := registry.New(registry.Options{Procs: n})
		counter := func() *slmem.PooledCounter {
			inst, _, err := reg.Get(registry.KindCounter, "bench", kind.Request{})
			if err != nil {
				panic(err)
			}
			return inst.(kind.Unwrapper).Unwrap().(*slmem.PooledCounter)
		}
		counter()
		add("registry/counter-inc-perop", "steady", 0, func() {
			if err := counter().Inc(ctx); err != nil {
				panic(err)
			}
		})
		ops := make([]registry.BatchOp, batchProbeSize)
		for i := range ops {
			ops[i] = registry.BatchOp{Kind: registry.KindCounter, Name: "bench", Op: registry.OpInc}
		}
		addBatched("registry/counter-inc-batch64", "steady", batchProbeSize, func() {
			if _, err := reg.BatchExecute(ctx, ops); err != nil {
				panic(err)
			}
		})
	}

	// Server layer: the full per-request path (mux, JSON, lease, dispatch)
	// against one 64-entry /v1/batch request. This is the pair the batch
	// pipeline exists for: the derived ratio below compares their per-op
	// overhead over the direct cost.
	var requestNs, batchNs float64
	{
		srv := server.New(registry.Options{Procs: n})
		requestNs = add("server/counter-inc-request", "steady", 0, func() {
			req := httptest.NewRequest("POST", "/v1/counter/bench/inc", nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				panic(fmt.Sprintf("inc request failed: %d %s", rec.Code, rec.Body))
			}
		})
		entries := make([]server.BatchEntry, batchProbeSize)
		for i := range entries {
			entries[i] = server.BatchEntry{Kind: registry.KindCounter, Name: "bench", Op: registry.OpInc}
		}
		body, err := json.Marshal(entries)
		if err != nil {
			return err
		}
		batchNs = addBatched("server/counter-inc-batch64", "steady", batchProbeSize, func() {
			req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				panic(fmt.Sprintf("batch request failed: %d %s", rec.Code, rec.Body))
			}
		})
	}

	// Driver layer: the generic codec path every registered kind is served
	// through — driver Compile plus one pid lease and Run per op, against a
	// registry-resolved instance. The probe set is not a literal kind list:
	// it enumerates whatever drivers this binary imports (kind.Drivers) and
	// probes each one that supplies a representative request (kind.Prober),
	// so a newly registered kind — the Ellen–Sela bag here — shows up in
	// BENCH_*.json with zero edits to this file.
	//
	// These probes run LAST: the bag's inserted items and whatever history
	// the universal objects retain stay live in the registry, and running
	// them earlier would tax every later probe's GC and skew the derived
	// pair against BENCH_0002 (which had no driver probes). One number here
	// is marked mode:"growth" by construction: bag-insert with no removes
	// accretes live cells — compare growth probes only across equal
	// -probetime runs. (object-execute used to be the other growth probe;
	// every universal object truncates its history, so its node count is
	// bounded and it is steady now.) Their steady-state counterparts follow:
	// object-execute-warm measures the replay-cached path at a fixed
	// pre-grown history depth, bag-churn pairs every insert with a remove
	// so chunk recycling holds live space constant (recorded in
	// space_cells), and object-gc-churn keeps every pool pid active so the
	// low-watermark collector bounds live precedence-graph nodes.
	{
		reg := registry.New(registry.Options{Procs: n})
		for _, d := range kind.Drivers() {
			prober, ok := d.(kind.Prober)
			if !ok {
				continue
			}
			req := prober.Probe()
			inst, pool, err := reg.Get(registry.Kind(d.Kind()), "bench", req)
			if err != nil {
				return fmt.Errorf("driver probe %s: %w", d.Kind(), err)
			}
			mode := "steady"
			if gp, ok := d.(kind.GrowthProber); ok && gp.ProbeGrowth() {
				mode = "growth"
			}
			add("driver/"+d.Kind()+"-"+req.Op, mode, 0, func() {
				compiled, err := inst.Compile(req)
				if err != nil {
					panic(err)
				}
				if err := pool.With(ctx, func(pid int) error {
					_, runErr := compiled.Run(pid)
					return runErr
				}); err != nil {
					panic(err)
				}
			})
		}

		// Steady-state universal execution: pre-grow the object's history to
		// warmObjectHistory nodes, then measure the same compile+lease+run
		// path as driver/object-execute. The replay cache makes the per-op
		// cost O(delta since the leased pid's previous op) instead of
		// O(history), which is what separates this number from the growth
		// probe above.
		{
			req := kind.Request{Op: "execute", Type: "accumulator", Invocation: "addTo(1)"}
			inst, pool, err := reg.Get(registry.Kind("object"), "warm", req)
			if err != nil {
				return fmt.Errorf("warm object probe: %w", err)
			}
			compiled, err := inst.Compile(req)
			if err != nil {
				return fmt.Errorf("warm object probe: %w", err)
			}
			for i := 0; i < warmObjectHistory; i++ {
				if err := pool.With(ctx, func(pid int) error {
					_, runErr := compiled.Run(pid)
					return runErr
				}); err != nil {
					return fmt.Errorf("warm object prewarm: %w", err)
				}
			}
			add("driver/object-execute-warm", "steady", 0, func() {
				c, err := inst.Compile(req)
				if err != nil {
					panic(err)
				}
				if err := pool.With(ctx, func(pid int) error {
					_, runErr := c.Run(pid)
					return runErr
				}); err != nil {
					panic(err)
				}
			})
		}

		// Bounded-space bag churn: each round inserts one item and removes
		// one under a single lease, so chunk recycling keeps live cells
		// constant no matter how many items pass through; space_cells
		// records what is still reachable when the probe ends.
		{
			insReq := kind.Request{Op: "insert", Value: "churn"}
			inst, pool, err := reg.Get(registry.Kind("bag"), "churn", insReq)
			if err != nil {
				return fmt.Errorf("bag churn probe: %w", err)
			}
			insOp, err := inst.Compile(insReq)
			if err != nil {
				return fmt.Errorf("bag churn probe: %w", err)
			}
			remOp, err := inst.Compile(kind.Request{Op: "remove"})
			if err != nil {
				return fmt.Errorf("bag churn probe: %w", err)
			}
			addBatched("driver/bag-churn", "steady", 2, func() {
				if err := pool.With(ctx, func(pid int) error {
					if _, err := insOp.Run(pid); err != nil {
						return err
					}
					_, err := remOp.Run(pid)
					return err
				}); err != nil {
					panic(err)
				}
			})
			uw, ok := inst.(kind.Unwrapper)
			if !ok {
				return fmt.Errorf("bag churn probe: instance does not support Unwrap")
			}
			pb, ok := uw.Unwrap().(*bag.PooledBag)
			if !ok {
				return fmt.Errorf("bag churn probe: unexpected unwrap type %T", uw.Unwrap())
			}
			st, err := pb.Stats(ctx)
			if err != nil {
				return fmt.Errorf("bag churn stats: %w", err)
			}
			probes[len(probes)-1].SpaceCells = st.LiveCells
		}

		// Bounded-memory universal churn: sustained executes through the
		// driver path against a GC-enabled object (the driver default). The
		// low-watermark collector only truncates below what EVERY process
		// has anchored past, so the probe leases all n pids up front and
		// rotates them — an idle pid would pin the graph. space_cells
		// records the live precedence-graph nodes when the probe ends;
		// truncations and root_version record the collector's progress. The
		// paired universal/live-nodes probe prices the GCStats read itself
		// (one root scan plus a delta extraction).
		{
			req := kind.Request{Op: "execute", Type: "counter", Invocation: "inc()"}
			inst, pool, err := reg.Get(registry.Kind("object"), "gc-churn", req)
			if err != nil {
				return fmt.Errorf("object gc-churn probe: %w", err)
			}
			compiled, err := inst.Compile(req)
			if err != nil {
				return fmt.Errorf("object gc-churn probe: %w", err)
			}
			uw, ok := inst.(kind.Unwrapper)
			if !ok {
				return fmt.Errorf("object gc-churn probe: instance does not support Unwrap")
			}
			po, ok := uw.Unwrap().(*slmem.PooledObject)
			if !ok {
				return fmt.Errorf("object gc-churn probe: unexpected unwrap type %T", uw.Unwrap())
			}
			pids := make([]int, n)
			for i := range pids {
				pid, err := pool.Acquire(ctx)
				if err != nil {
					return fmt.Errorf("object gc-churn probe: %w", err)
				}
				pids[i] = pid
			}
			turn := 0
			add("driver/object-gc-churn", "steady", 0, func() {
				if _, err := compiled.Run(pids[turn]); err != nil {
					panic(err)
				}
				turn = (turn + 1) % n
			})
			obj := po.Unpooled()
			var st slmem.ObjectGCStats
			add("universal/live-nodes", "steady", 0, func() { st = obj.GCStats(pids[0]) })
			for _, p := range []*perfProbe{&probes[len(probes)-2], &probes[len(probes)-1]} {
				p.SpaceCells = st.LiveNodes
				p.Truncations = st.Truncations
				p.RootVersion = st.RootVersion
				p.GCFailures = st.CoverageFailures + st.ReplayFailures
			}
			for _, pid := range pids {
				pool.Release(pid)
			}
		}
	}

	derived := perfDerived{
		PerRequestOverheadNs:   requestNs - directIncNs,
		Batch64PerOpOverheadNs: batchNs - directIncNs,
	}
	if derived.Batch64PerOpOverheadNs > 0 {
		derived.Batch64OverheadRatio = derived.PerRequestOverheadNs / derived.Batch64PerOpOverheadNs
	}

	sum := perfSummary{
		Schema:     "slbench/v5",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ProbeMs:    probeTime.Milliseconds(),
		Probes:     probes,
		Derived:    derived,
	}
	enc, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(enc))
	return err
}
