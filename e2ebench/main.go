// Command e2ebench is the repository's end-to-end benchmark. For one
// workload it starts an in-process slserve (server.New) on a loopback TCP
// listener, drives it from the same process with a closed loop over two
// client connections, checks the server's state against every acknowledged
// operation, and prints each metric by name with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":U},...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the same untraced run is followed by a traced run, and
// the metrics are the per-layer ones (see trace.go and DESIGN.md).
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload counter-http --seed 1 --seconds 20 --trace 0
//
// The command exits 1 when an output check fails and 2 when the run itself
// cannot be carried out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	_ "slmem/internal/bag" // registers the bag kind
)

const (
	// connections is the closed loop's client count, one request in flight
	// each; it is capped at the CPU count so the client cannot outnumber the
	// cores the server runs on.
	connections = 2
	// setupReps is how often the -trace 0 run starts and populates a server;
	// setup_s is the median.
	setupReps = 15
	// windows is how many equal windows the measured -seconds are cut into;
	// the end-to-end figures are medians over them, which keeps a burst of
	// outside load in one window from moving a run's result.
	windows       = 10
	warmup        = 2 * time.Second
	tracedWarmup  = time.Second
	minTracedRun  = time.Second
	maxTracedRun  = 5 * time.Second
	traceCapacity = 1 << 20 // spans; 24 MiB outside the Go heap
)

func main() { os.Exit(mainErr()) }

func mainErr() int {
	var (
		name     = flag.String("workload", "", "workload: counter-http, batch-mixed or object-http")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 10, "measured seconds, cut into equal windows")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced run")
		traceOut = flag.String("trace-out", filepath.Join(".bench_build", "trace"), "directory the traced run's spans are written to")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: want -workload counter-http|batch-mixed|object-http, -seconds > 0, -trace 0|1\n")
		return 2
	}
	conns := min(connections, runtime.NumCPU())
	fmt.Printf("env go=%s gomaxprocs=%d nproc=%d seed=%d workload=%s connections=%d procs=%d ops_per_call=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, w.name, conns, w.procs, w.opsPerCall, *seconds, *trace)

	ctx := context.Background()
	dur := time.Duration(*seconds * float64(time.Second) / windows)
	base := &run{w: *w, seed: *seed, conns: conns, warmup: warmup, dur: dur, setups: setupReps, windows: windows}
	if *trace == 1 {
		base.setups = 1
	}
	untraced, err := base.do(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: untraced run: %v\n", err)
		return 2
	}
	report := newReport()
	report.check("untraced", untraced)
	endToEnd(report, untraced)

	if *trace == 1 {
		traced, ls, err := tracedRun(ctx, base, untraced, *traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: traced run: %v\n", err)
			return 2
		}
		report.check("traced", traced)
		report.metrics = map[string]metric{}
		perLayer(report, untraced, traced, ls)
	}
	return report.print()
}

// tracedRun registers the tracing drivers and repeats the run through them,
// with the same seed, writing its spans to dir. Its length is cut so the
// spans fit the tracer's buffer.
func tracedRun(ctx context.Context, base *run, untraced *outcome, dir string) (*outcome, layerSamples, error) {
	tr, err := newTracer(traceCapacity)
	if err != nil {
		return nil, layerSamples{}, err
	}
	defer tr.release()
	if err := tr.register("counter", "maxreg", "snapshot", "object", "bag"); err != nil {
		return nil, layerSamples{}, err
	}
	spansPerCall := float64(3*base.w.opsPerCall + 2)
	callRate := untraced.med(func(w window) float64 { return float64(w.res.Calls) / w.res.Elapsed.Seconds() })
	fits := time.Duration(0.8 * float64(traceCapacity) / spansPerCall / callRate * float64(time.Second))
	r := *base
	r.tr, r.warmup, r.dur, r.setups, r.windows = tr, tracedWarmup, max(min(base.dur*time.Duration(base.windows), maxTracedRun, fits), minTracedRun), 1, 1
	out, err := r.do(ctx)
	if err != nil {
		return nil, layerSamples{}, err
	}
	spans := tr.recorded()
	if d := tr.dropped.Load(); d > 0 {
		fmt.Printf("trace dropped %d spans past the %d-span buffer\n", d, traceCapacity)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, layerSamples{}, err
	}
	path := filepath.Join(dir, base.w.name+".tsv")
	if err := tr.write(path, spans); err != nil {
		return nil, layerSamples{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("trace %d spans of %d requests over %.2fs written to %s\n", len(spans), tr.nextID.Load(), r.dur.Seconds(), path)
	return out, tr.analyze(spans), nil // analyze copies what it keeps
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric and prints it with a note (sample counts).
func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{v, unit}
	show(name, v, unit, note)
}

// show prints a metric the result line does not carry.
func show(name string, v float64, unit, note string) {
	fmt.Printf("metric %-36s %14.6g %-6s %s\n", name, v, unit, note)
}

// na prints a metric the workload does not exercise, or that has too few
// samples; the result line carries it as 0 so every run reports the same
// names.
func (r *report) na(name, unit, why string) {
	r.metrics[name] = metric{0, unit}
	fmt.Printf("metric %-36s %14s %-6s %s\n", name, "n/a", unit, why)
}

func (r *report) check(label string, o *outcome) {
	r.attempted += o.attempted()
	r.failed += o.failed()
	status := "ok"
	if len(o.failures) > 0 {
		status = "FAILED: " + joinFailures(o.failures)
	}
	fmt.Printf("check %s: %d output checks, %d failed calls of %d: %s\n", label, o.checks, o.errors, o.calls, status)
}

// print writes the result line and returns the exit code.
func (r *report) print() int {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if r.failed != 0 {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// p99 reports the run's exact per-call p99 through put, or says why it is
// omitted.
func p99(o *outcome, put func(name string, v float64, unit, note string)) {
	if !o.lat.ok99 {
		fmt.Printf("metric latency_p99_ms omitted: %d samples leave fewer than 10 beyond it\n", o.lat.n)
		return
	}
	put("latency_p99_ms", ms(o.lat.p99), "ms", fmt.Sprintf("(per call, exact over %d samples, %d beyond; max %.3f ms)", o.lat.n, o.lat.beyond99, ms(o.lat.max)))
}

// endToEnd prints the end-to-end metrics of the untraced run: rates are
// medians over its measured windows, latency quantiles exact over every
// measured call.
func endToEnd(r *report, o *outcome) {
	nw := len(o.windows)
	fmt.Print("windows ops/s")
	for _, w := range o.windows {
		fmt.Printf(" %.0f", w.res.Throughput)
	}
	fmt.Println()
	r.set("throughput_ops_s", o.med(func(w window) float64 { return w.res.Throughput }), "ops/s",
		fmt.Sprintf("(median of %d windows; %d ops in %d calls)", nw, o.ops, o.calls))
	r.set("latency_p50_ms", ms(o.lat.p50), "ms", fmt.Sprintf("(per call, exact over %d samples)", o.lat.n))
	// latency_p99_ms is printed here but carried as a per-layer metric:
	// on object-http it sits at the sparse edge of the collector-pass calls
	// and is not steady enough to bound (see DESIGN.md).
	p99(o, show)
	// error_rate is usually 0, so the result line carries it as the
	// contract's attempted and failed counts rather than as a metric.
	show("error_rate", float64(o.failed())/float64(o.attempted()), "ratio",
		fmt.Sprintf("(%d failed of %d attempted calls and checks)", o.failed(), o.attempted()))
	r.set("cpu_us_per_op", o.med(func(w window) float64 { return float64(w.delta.cpu.Microseconds()) / float64(w.res.Ops) }), "us",
		fmt.Sprintf("(process CPU, median of %d windows)", nw))
	r.set("heap_live_mb", o.med(func(w window) float64 { return float64(w.heapLive) / (1 << 20) }), "MiB",
		fmt.Sprintf("(after a forced GC, median of %d window ends)", nw))
	if len(o.setup) > 0 {
		s := make([]float64, len(o.setup))
		for i, d := range o.setup {
			s[i] = d.Seconds()
		}
		r.set("setup_s", median(s), "s", fmt.Sprintf("(median of %d set-ups, %.4f..%.4f)", len(s), slices.Min(s), slices.Max(s)))
	}
}
