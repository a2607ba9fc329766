package main

import (
	"fmt"
	"slices"
)

// runOps are the register-level operations batch-mixed runs, reported as
// run.<kind>.<op>_us.
var runOps = []string{
	"counter.inc", "counter.read", "maxreg.write", "maxreg.read",
	"snapshot.update", "snapshot.scan", "bag.insert", "bag.remove",
}

// perLayer prints the per-layer metrics: span-derived ones from the traced
// run, counters and the untraced p99 from the untraced run so they describe
// the program as the end-to-end metrics measured it.
func perLayer(r *report, un, tr *outcome, ls layerSamples) {
	us := func(name string, s []int64, q float64) {
		v, beyond, ok := quantile(s, q)
		if !ok {
			r.na(name, "us", fmt.Sprintf("(%d samples: too few beyond the quantile)", len(s)))
			return
		}
		r.set(name, float64(v)/1e3, "us", fmt.Sprintf("(%d samples, %d beyond)", len(s), beyond))
	}
	ratio := func(name string, num, den int64, note string) {
		if den == 0 {
			r.na(name, "ratio", "(nothing to divide by)")
			return
		}
		r.set(name, float64(num)/float64(den), "ratio", fmt.Sprintf("(%d of %d %s)", num, den, note))
	}
	count := func(name string, v float64, applies bool, note string) {
		if !applies {
			r.na(name, "count", "(not exercised by this workload)")
			return
		}
		r.set(name, v, "count", note)
	}

	p99(un, r.set)
	us("http.rtt_self_us.p50", ls.rttSelf, 0.5)
	us("http.rtt_self_us.p99", ls.rttSelf, 0.99)
	us("server.handler_us.p50", ls.handler, 0.5)
	us("server.self_us.p50", ls.self, 0.5)
	us("kind.validate_us.p50", ls.validate, 0.5)
	us("kind.compile_us.p50", ls.compile, 0.5)
	us("registry.resolve_us.p50", ls.resolve, 0.5)
	us("registry.batch_self_us.p50", ls.batchSelf, 0.5)
	us("lease.wait_us.p50", ls.leaseWait, 0.5)
	us("lease.wait_us.p99", ls.leaseWait, 0.99)
	w := un.total
	ratio("lease.blocks_ratio", w.blocks, w.acquires, "lease acquisitions blocked")
	ratio("lease.steal_ratio", w.steals, w.acquires, "lease acquisitions stolen from another stripe")

	for _, op := range runOps {
		us("run."+op+"_us", ls.run[op], 0.5)
	}
	count("bag.space_cells", float64(un.bagCells), un.bags > 0, fmt.Sprintf("(live cells over %d bags at the end of the run)", un.bags))

	exec := ls.run["object.execute"]
	us("run.object.execute_us.p50", exec, 0.5)
	us("run.object.execute_us.p99", exec, 0.99)
	if len(exec) > 0 {
		r.set("run.object.execute_us.max", float64(slices.Max(exec))/1e3, "us", fmt.Sprintf("(%d samples)", len(exec)))
	} else {
		r.na("run.object.execute_us.max", "us", "(no samples)")
	}
	objs := un.objects > 0
	count("universal.truncations", float64(w.truncations), objs, "(collector passes that advanced the root, measured window)")
	if objs {
		ratio("universal.cache_hit_ratio", w.cacheHits, w.cacheHits+w.cacheMisses, "replay-cache lookups hit")
	} else {
		r.na("universal.cache_hit_ratio", "ratio", "(not exercised by this workload)")
	}
	count("universal.cache_misses", float64(w.cacheMisses), objs, "(measured window)")
	count("universal.live_nodes_max", float64(un.liveNodesMax), objs, fmt.Sprintf("(largest over %d objects, read at the window's edges)", un.objects))
	count("universal.gc_failures", float64(un.gcFailures), objs, "(coverage + replay failures)")

	ops := float64(un.ops)
	r.set("go.allocs_per_op", float64(w.mallocs)/ops, "count", "(process-wide, client included, untraced window)")
	r.set("go.gc_cycles", float64(w.gcs), "count", "(untraced window)")
	r.set("go.gc_pause_ms", float64(w.pauseNs)/1e6, "ms", "(total stop-the-world pause, untraced window)")

	tput := func(w window) float64 { return w.res.Throughput }
	traced, untraced := tr.med(tput), un.med(tput)
	r.set("trace.overhead", 1-traced/untraced, "ratio", fmt.Sprintf("(traced %.1f vs untraced %.1f ops/s)", traced, untraced))
	p99 := un.lat.p99
	over := 0
	for _, v := range ls.leaseWait {
		if v > int64(p99) {
			over++
		}
	}
	if len(ls.leaseWait) > 0 {
		r.set("trace.lease_wait_over_untraced_p99", float64(over)/float64(len(ls.leaseWait)), "ratio",
			fmt.Sprintf("(%d of %d lease waits exceed the untraced p99 call latency %v)", over, len(ls.leaseWait), p99))
	} else {
		r.na("trace.lease_wait_over_untraced_p99", "ratio", "(no lease waits)")
	}
	r.set("trace.requests", float64(ls.requests), "count", fmt.Sprintf("(complete traced requests; %d incomplete)", ls.incomplete))
}
