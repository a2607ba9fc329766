package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"slmem"
	"slmem/internal/bag"
	"slmem/internal/kind"
	"slmem/internal/load"
	"slmem/internal/registry"
)

// rateHeadroom is how far the measured call rate may exceed the warmup's;
// the latency log is sized for it so that every measured call is kept and
// the quantiles are exact. A run that outgrows it fails.
const rateHeadroom = 3.0

// latencyLog keeps the latency of every measured call, outside the Go heap.
type latencyLog struct {
	buf []int64
	n   atomic.Int64
	on  atomic.Bool // set during measured windows
}

func (l *latencyLog) add(d time.Duration) {
	if i := l.n.Add(1) - 1; i < int64(len(l.buf)) {
		l.buf[i] = int64(d)
	}
}

// latency is the exact per-call latency distribution of a run's measured
// windows, pooled.
type latency struct {
	n             int
	p50, p99, max time.Duration
	beyond99      int  // samples above p99
	ok99          bool // at least ten samples above p99
}

// Bounds on repeated set-ups (see run.setups): short set-ups get a median
// over many.
const (
	setupBudget = 1500 * time.Millisecond
	maxSetups   = 1001
)

// run is one measured load run against a fresh server.
type run struct {
	w      workload
	seed   int64
	conns  int
	warmup time.Duration
	dur    time.Duration
	tr     *tracer // nil for the untraced run
	// setups is how many times at least the server is started and
	// populated; when it is more than one, more follow, up to maxSetups,
	// while setupBudget lasts. All but the last are torn down again and
	// only their times are kept.
	setups int
	// windows is how many measured windows of length dur run back to back on
	// the last server; the end-to-end figures are medians over them.
	windows int
}

// counters are monotone process and layer counters read at the edges of the
// measured window.
type counters struct {
	cpu          time.Duration
	mallocs      uint64
	gcs          uint32
	pauseNs      uint64
	acquires     int64
	blocks       int64
	steals       int64
	cacheHits    int64
	cacheMisses  int64
	truncations  int64
	liveNodesMax int
}

func (c counters) add(o counters) counters {
	return counters{
		cpu:          c.cpu + o.cpu,
		mallocs:      c.mallocs + o.mallocs,
		gcs:          c.gcs + o.gcs,
		pauseNs:      c.pauseNs + o.pauseNs,
		acquires:     c.acquires + o.acquires,
		blocks:       c.blocks + o.blocks,
		steals:       c.steals + o.steals,
		cacheHits:    c.cacheHits + o.cacheHits,
		cacheMisses:  c.cacheMisses + o.cacheMisses,
		truncations:  c.truncations + o.truncations,
		liveNodesMax: max(c.liveNodesMax, o.liveNodesMax),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		cpu:         c.cpu - o.cpu,
		mallocs:     c.mallocs - o.mallocs,
		gcs:         c.gcs - o.gcs,
		pauseNs:     c.pauseNs - o.pauseNs,
		acquires:    c.acquires - o.acquires,
		blocks:      c.blocks - o.blocks,
		steals:      c.steals - o.steals,
		cacheHits:   c.cacheHits - o.cacheHits,
		cacheMisses: c.cacheMisses - o.cacheMisses,
		truncations: c.truncations - o.truncations,
		// a level, not a count: the larger of the two readings
		liveNodesMax: max(c.liveNodesMax, o.liveNodesMax),
	}
}

// window is one measured stretch of closed-loop load.
type window struct {
	res      load.Result
	delta    counters // over the measured stretch
	heapLive uint64   // after a forced GC at its end
}

// outcome is what one run measured.
type outcome struct {
	setup   []time.Duration
	windows []window
	total   counters // summed over the windows
	// calls, errors and ops are summed over the measured windows; sent
	// counts every call, warmup included.
	calls, errors, ops, sent int64
	lat                      latency
	// end-of-run layer state
	objects      int
	bags         int
	liveNodesMax int
	gcFailures   int64
	bagCells     int
	// output checks
	checks   int
	failures []string
}

// attempted counts measured calls plus output checks; failed counts failed
// calls plus failed checks.
func (o *outcome) attempted() int64 { return o.calls + int64(o.checks) }
func (o *outcome) failed() int64    { return o.errors + int64(len(o.failures)) }

// med returns the median over the windows of f.
func (o *outcome) med(f func(w window) float64) float64 {
	v := make([]float64, len(o.windows))
	for i, w := range o.windows {
		v[i] = f(w)
	}
	return median(v)
}

// layers are the instances whose own counters a run reads.
type layers struct {
	reg     *registry.Registry
	objects []*slmem.PooledObject
	bags    []*bag.PooledBag
}

// create makes every object the entries name through the registry, as the
// server does for the first request naming it, and returns the instances
// whose own counters a run reads.
func create(reg *registry.Registry, entries []registry.BatchOp) (layers, error) {
	l := layers{reg: reg}
	for _, e := range entries {
		inst, _, err := reg.Get(e.Kind, e.Name, kind.Request{Op: string(e.Op), Type: e.Type, Invocation: e.Invocation})
		if err != nil {
			return l, err
		}
		u, ok := inst.(kind.Unwrapper)
		if !ok {
			continue
		}
		switch v := u.Unwrap().(type) {
		case *slmem.PooledObject:
			l.objects = append(l.objects, v)
		case *bag.PooledBag:
			l.bags = append(l.bags, v)
		}
	}
	return l, nil
}

// read samples the counters. GCStats leases a pid of the object's pool.
func (l layers) read(ctx context.Context) (counters, error) {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcs, c.pauseNs = ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	st := l.reg.Stats()
	pools := []slmem.PoolStats{st.Pool}
	for _, kp := range st.KindPools {
		pools = append(pools, kp.Pool)
	}
	for _, p := range pools {
		c.acquires += p.Acquires
		c.blocks += p.Blocks
		c.steals += p.Steals
	}
	for _, o := range l.objects {
		cs := o.Unpooled().CacheStats()
		c.cacheHits += cs.Hits
		c.cacheMisses += cs.Misses
		gs, err := o.GCStats(ctx)
		if err != nil {
			return c, fmt.Errorf("object gc stats: %w", err)
		}
		c.truncations += gs.Truncations
		c.liveNodesMax = max(c.liveNodesMax, gs.LiveNodes)
	}
	return c, nil
}

// setup starts a server, creates every object the workload names, and
// returns with the time both took. The objects are created through the
// registry, not over HTTP: a first connection's set-up, which the warmup
// pays, would otherwise dominate the figure with scheduling noise.
func (r *run) setup() (*instance, traffic, layers, time.Duration, error) {
	var wrap func(http.Handler) http.Handler
	if r.tr != nil {
		wrap = r.tr.handler
	}
	tf := r.w.newTraffic(r.seed, r.tr != nil)
	t0 := time.Now()
	in, err := start(r.w.procs, r.conns, wrap)
	if err != nil {
		return nil, nil, layers{}, 0, err
	}
	lay, err := create(in.srv.Registry(), tf.objects())
	if err != nil {
		in.stop()
		return nil, nil, layers{}, 0, fmt.Errorf("create objects: %w", err)
	}
	return in, tf, lay, time.Since(t0), nil
}

func (r *run) do(ctx context.Context) (*outcome, error) {
	out := &outcome{}
	var in *instance
	var tf traffic
	var lay layers
	began := time.Now()
	for i := 0; i < r.setups || (r.setups > 1 && i < maxSetups && time.Since(began) < setupBudget); i++ {
		if in != nil {
			in.stop()
		}
		var d time.Duration
		var err error
		if in, tf, lay, d, err = r.setup(); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, d)
	}
	defer in.stop()

	before, err := in.client.stats(ctx)
	if err != nil {
		return nil, err
	}

	var bodies sync.Pool
	var lat *latencyLog // set after the warmup, which it does not time
	op := func(ctx context.Context, keys []int) error {
		var id uint64
		if r.tr != nil {
			id = r.tr.id()
		}
		bp, _ := bodies.Get().(*[]byte)
		if bp == nil {
			bp = new([]byte)
		}
		path, body, variant := tf.request((*bp)[:0], keys, id)
		var t0 int64
		if id != 0 {
			t0 = r.tr.now()
		}
		timed := lat != nil && lat.on.Load()
		start := time.Now()
		err := in.client.post(ctx, path, body, id)
		if timed {
			lat.add(time.Since(start))
		}
		if id != 0 {
			r.tr.add(id, phClient, 0, t0, r.tr.now())
		}
		*bp = body
		bodies.Put(bp)
		if err == nil {
			tf.ack(keys, variant)
		}
		return err
	}

	// The warmup is a load run of its own; its call rate sizes the latency
	// log.
	warm, err := load.Run(ctx, load.Config{
		Mode: load.ModeClosed, Workers: r.conns, Measure: r.warmup, Keys: r.w.keys,
		Seed: r.seed, OpsPerCall: r.w.opsPerCall, SampleCap: 1,
	}, op)
	if err != nil {
		return nil, err
	}
	out.sent += warm.TotalCalls
	rate := float64(warm.TotalCalls) / r.warmup.Seconds()
	buf, err := mapped[int64](int(rateHeadroom*rate*r.dur.Seconds()*float64(r.windows)) + 1000)
	if err != nil {
		return nil, err
	}
	lat = &latencyLog{buf: buf}
	defer unmap(buf)
	for i := 0; i < r.windows; i++ {
		w, err := r.window(ctx, lay, op, lat, r.seed+int64(i+1)*7919)
		if err != nil {
			return nil, err
		}
		out.windows = append(out.windows, w)
		out.total = out.total.add(w.delta)
		out.calls += w.res.Calls
		out.errors += w.res.Errors
		out.ops += w.res.Ops
		out.sent += w.res.TotalCalls
	}
	if n := lat.n.Load(); n > int64(len(lat.buf)) {
		return nil, fmt.Errorf("%d measured calls overflowed the %d-entry latency log: the call rate grew more than %gx", n, len(lat.buf), rateHeadroom)
	}
	out.lat = pooled(lat.buf[:lat.n.Load()])

	// End-of-run layer state, then the output checks.
	endState, err := lay.read(ctx)
	if err != nil {
		return nil, err
	}
	out.objects, out.bags = len(lay.objects), len(lay.bags)
	out.liveNodesMax = max(out.total.liveNodesMax, endState.liveNodesMax)
	for _, o := range lay.objects {
		gs, err := o.GCStats(ctx)
		if err != nil {
			return nil, err
		}
		out.gcFailures += gs.CoverageFailures + gs.ReplayFailures
	}
	for _, b := range lay.bags {
		bs, err := b.Stats(ctx)
		if err != nil {
			return nil, err
		}
		out.bagCells += bs.LiveCells
	}

	check := func(failures ...string) {
		out.checks++
		out.failures = append(out.failures, failures...)
	}
	check(tf.check(ctx, in.client)...)
	after, err := in.client.stats(ctx)
	if err != nil {
		return nil, err
	}
	if got, want := totalOps(after)-totalOps(before), out.sent*int64(r.w.opsPerCall); got < want {
		check(fmt.Sprintf("/v1/stats counted %d ops during the run, fewer than the %d the client sent", got, want))
	} else {
		check()
	}
	if out.gcFailures != 0 {
		check(fmt.Sprintf("universal objects report %d gc failures", out.gcFailures))
	} else {
		check()
	}
	if n := in.ln.accepted.Load(); n > int64(r.conns) {
		check(fmt.Sprintf("server accepted %d connections, more than the %d configured", n, r.conns))
	} else {
		check()
	}
	return out, nil
}

// window runs one measured window of the closed loop, logging its calls'
// latencies in lat, and reads the counters at its edges and the live heap
// after it.
func (r *run) window(ctx context.Context, lay layers, op load.Op, lat *latencyLog, seed int64) (window, error) {
	var w window
	var start counters
	var readErr error
	cfg := load.Config{
		Mode:       load.ModeClosed,
		Workers:    r.conns,
		Measure:    r.dur,
		Keys:       r.w.keys,
		Seed:       seed,
		OpsPerCall: r.w.opsPerCall,
		SampleCap:  1, // the latency log keeps every call
		OnMeasureStart: func() {
			lat.on.Store(true)
			start, readErr = lay.read(ctx)
			if r.tr != nil {
				r.tr.active.Store(true)
			}
		},
		OnMeasureEnd: func() {
			lat.on.Store(false)
			if r.tr != nil {
				r.tr.active.Store(false)
			}
			end, err := lay.read(ctx)
			if readErr == nil {
				readErr = err
			}
			w.delta = end.sub(start)
		},
	}
	var err error
	if w.res, err = load.Run(ctx, cfg, op); err != nil {
		return w, err
	}
	if readErr != nil {
		return w, readErr
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only live program state remains.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapLive = ms.HeapAlloc
	return w, nil
}

// pooled summarizes the latencies; it sorts them in place.
func pooled(samples []int64) latency {
	l := latency{n: len(samples)}
	if l.n == 0 {
		return l
	}
	p50, _, _ := quantile(samples, 0.5)
	p99, beyond, ok := quantile(samples, 0.99)
	l.p50, l.p99, l.beyond99, l.ok99 = time.Duration(p50), time.Duration(p99), beyond, ok
	l.max = time.Duration(samples[l.n-1])
	return l
}

// median returns the median of v.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the exact nearest-rank q-quantile of the samples, with the
// number of samples above it. ok is false when fewer than ten samples lie
// beyond it, so the percentile is not reported.
func quantile(samples []int64, q float64) (v int64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	slices.Sort(samples)
	idx := min(max(int(q*float64(n)+0.5)-1, 0), n-1)
	beyond = n - 1 - idx
	return samples[idx], beyond, beyond >= 10
}

func joinFailures(f []string) string {
	if len(f) > 8 {
		f = append(f[:8:8], fmt.Sprintf("... and %d more", len(f)-8))
	}
	return strings.Join(f, "; ")
}
