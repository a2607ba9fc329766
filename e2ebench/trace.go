package main

import (
	"bufio"
	"cmp"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"slmem/internal/kind"
)

// The traced run records spans from outside the program: a wrapper around
// the server's http.Handler, and pass-through drivers registered through
// kind.Register under their own kind names ("traced-counter", ...), each
// delegating to the builtin or bag driver. The client tags every measured
// request with an id, in the X-Trace-Id header for the handler wrapper and
// as a "<id>|" prefix of the request's type field for the drivers, which
// strip it before delegating. All spans of one request share that id.

const (
	traceHeader = "X-Trace-Id"
	tracePrefix = "traced-"
)

// Span phases.
const (
	phClient   = iota // client round trip, from send to reply read
	phHandler         // server.Server.ServeHTTP
	phValidate        // Driver.Validate
	phCompile         // Instance.Compile
	phRun             // Compiled.Run
)

var phaseNames = [...]string{"client", "handler", "validate", "compile", "run"}

// span is one timed interval; start and end are nanoseconds since the
// tracer's epoch. op indexes tracer.ops for driver spans.
type span struct {
	id         uint32
	phase, op  uint8
	start, end int64
}

// tracer keeps spans in a preallocated buffer outside the Go heap; spans
// past its capacity are counted and dropped, and the run is sized so that
// does not happen.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	nextID  atomic.Uint32
	// active is set during the measured window: only then does the client
	// tag requests.
	active atomic.Bool
	ops    []string // "counter.inc", ... indexed by span.op
}

func newTracer(capacity int) (*tracer, error) {
	spans, err := mapped[span](capacity)
	if err != nil {
		return nil, err
	}
	return &tracer{epoch: time.Now(), spans: spans}, nil
}

// release unmaps the span buffer; the spans must no longer be used.
func (t *tracer) release() error {
	err := unmap(t.spans)
	t.spans = nil
	return err
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(id uint64, phase, op uint8, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{id: uint32(id), phase: phase, op: op, start: start, end: end}
}

// id returns the next request id, or 0 outside the measured window.
func (t *tracer) id() uint64 {
	if !t.active.Load() {
		return 0
	}
	return uint64(t.nextID.Add(1))
}

func formatID(id uint64) string { return strconv.FormatUint(id, 10) }

// register installs a tracing driver for each named kind. Op indexes are
// assigned here, before any request, so the drivers only read them.
func (t *tracer) register(kindNames ...string) error {
	for _, name := range kindNames {
		d, ok := kind.Lookup(name)
		if !ok {
			return fmt.Errorf("kind %q is not registered", name)
		}
		ops := map[string]uint8{}
		for _, op := range d.Ops() {
			ops[op.Name] = uint8(len(t.ops))
			t.ops = append(t.ops, name+"."+op.Name)
		}
		kind.Register(&tracingDriver{Driver: d, name: tracePrefix + name, t: t, ops: ops})
	}
	return nil
}

// untag splits the "<id>|" trace tag off req.Type. Requests without a tag
// (set-up, warmup and read-back traffic) return id 0 and are not traced.
func untag(req kind.Request) (uint64, kind.Request) {
	i := strings.IndexByte(req.Type, '|')
	if i < 0 {
		return 0, req
	}
	id, _ := strconv.ParseUint(req.Type[:i], 10, 32) // an empty tag is id 0
	req.Type = req.Type[i+1:]
	return id, req
}

// tracingDriver delegates to a registered driver under its own kind name,
// keeping its Doc, Ops and Options, and times Validate.
type tracingDriver struct {
	kind.Driver
	name string
	t    *tracer
	ops  map[string]uint8
}

func (d *tracingDriver) Kind() string { return d.name }

func (d *tracingDriver) Validate(req kind.Request) error {
	id, req := untag(req)
	t0 := d.t.now()
	err := d.Driver.Validate(req)
	if id != 0 {
		d.t.add(id, phValidate, d.ops[req.Op], t0, d.t.now())
	}
	return err
}

func (d *tracingDriver) New(env kind.Env) (kind.Instance, error) {
	_, env.Req = untag(env.Req)
	inner, err := d.Driver.New(env)
	if err != nil {
		return nil, err
	}
	return &tracingInstance{inner: inner, d: d}, nil
}

// tracingInstance times Compile and returns a step that times Run. It
// forwards kind.Batcher and kind.Unwrapper to the wrapped instance.
type tracingInstance struct {
	inner kind.Instance
	d     *tracingDriver
}

func (ti *tracingInstance) Compile(req kind.Request) (kind.Compiled, error) {
	id, req := untag(req)
	t := ti.d.t
	t0 := t.now()
	c, err := ti.inner.Compile(req)
	t1 := t.now()
	if id == 0 || err != nil {
		return c, err
	}
	op := ti.d.ops[req.Op]
	t.add(id, phCompile, op, t0, t1)
	return &tracedStep{inner: c, t: t, id: id, op: op}, nil
}

func (ti *tracingInstance) BeginBatch(pid int) {
	if b, ok := ti.inner.(kind.Batcher); ok {
		b.BeginBatch(pid)
	}
}

func (ti *tracingInstance) EndBatch(pid int) {
	if b, ok := ti.inner.(kind.Batcher); ok {
		b.EndBatch(pid)
	}
}

func (ti *tracingInstance) Unwrap() any {
	if u, ok := ti.inner.(kind.Unwrapper); ok {
		return u.Unwrap()
	}
	return nil
}

// tracedStep times Compiled.Run. Its compile span ends where the lease wait
// begins, so the gap to the run span is the time the request waited for a
// pid on the real request path.
type tracedStep struct {
	inner kind.Compiled
	t     *tracer
	id    uint64
	op    uint8
}

func (s *tracedStep) Run(pid int) (kind.Result, error) {
	t0 := s.t.now()
	res, err := s.inner.Run(pid)
	s.t.add(s.id, phRun, s.op, t0, s.t.now())
	return res, err
}

// handler wraps the server handler, recording its span for tagged requests.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := t.now()
		next.ServeHTTP(w, r)
		t1 := t.now()
		if v := r.Header[traceHeader]; len(v) == 1 {
			if id, err := strconv.ParseUint(v[0], 10, 32); err == nil && id != 0 {
				t.add(id, phHandler, 0, t0, t1)
			}
		}
	})
}

// recorded returns the spans kept, sorted by request id and start time.
func (t *tracer) recorded() []span {
	n := min(t.n.Load(), int64(len(t.spans)))
	s := t.spans[:n]
	slices.SortFunc(s, func(a, b span) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.start, b.start)
	})
	return s
}

// write saves the spans as tab-separated lines: request id, phase, op,
// start and end in nanoseconds since the tracer's epoch.
func (t *tracer) write(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tphase\top\tstart_ns\tend_ns")
	var line []byte
	for _, s := range spans {
		op := "-"
		if s.phase >= phValidate {
			op = t.ops[s.op]
		}
		line = strconv.AppendUint(line[:0], uint64(s.id), 10)
		line = append(line, '\t')
		line = append(line, phaseNames[s.phase]...)
		line = append(line, '\t')
		line = append(line, op...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		w.Write(line) // a write error resurfaces from Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSamples are the per-layer durations (nanoseconds) derived from the
// spans of complete requests.
type layerSamples struct {
	requests   int // requests with a client and a handler span
	incomplete int // tagged requests missing either
	rttSelf    []int64
	handler    []int64
	self       []int64
	validate   []int64
	compile    []int64
	resolve    []int64
	batchSelf  []int64
	leaseWait  []int64
	run        map[string][]int64 // by "kind.op"
}

// analyze folds the spans of each request into per-layer samples:
//
//   - http rtt self: client round trip minus the handler span;
//   - server self: handler span minus the dispatch extent, which runs from
//     the first driver span's start to the last one's end and so covers
//     validation, registry resolution, compilation, the lease and the runs;
//   - registry resolve: from each Validate's return to the next Compile's
//     start, the registry lookup between them;
//   - lease wait: from the last Compile's return to the first Run's start;
//   - batch self (requests with more than one entry): dispatch extent minus
//     run spans and lease wait, i.e. BatchExecute's own bookkeeping plus
//     validation and compilation.
func (t *tracer) analyze(spans []span) layerSamples {
	ls := layerSamples{run: map[string][]int64{}}
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].id == spans[i].id {
			j++
		}
		ls.add(t, spans[i:j])
		i = j
	}
	return ls
}

func (ls *layerSamples) add(t *tracer, req []span) {
	var client, handler *span
	var nValidate int
	var lastValidate *span
	first, last := int64(-1), int64(-1)
	lastCompile, firstRun, runSum := int64(-1), int64(-1), int64(0)
	for i := range req {
		s := &req[i]
		if s.phase >= phValidate {
			if first < 0 {
				first = s.start
			}
			last = max(last, s.end)
		}
		switch s.phase {
		case phClient:
			client = s
		case phHandler:
			handler = s
		case phValidate:
			ls.validate = append(ls.validate, s.end-s.start)
			lastValidate = s
			nValidate++
		case phCompile:
			ls.compile = append(ls.compile, s.end-s.start)
			if lastValidate != nil {
				ls.resolve = append(ls.resolve, s.start-lastValidate.end)
				lastValidate = nil
			}
			lastCompile = max(lastCompile, s.end)
		case phRun:
			name := t.ops[s.op]
			ls.run[name] = append(ls.run[name], s.end-s.start)
			if firstRun < 0 {
				firstRun = s.start
			}
			runSum += s.end - s.start
		}
	}
	if client == nil || handler == nil {
		ls.incomplete++
		return
	}
	ls.requests++
	hdur := handler.end - handler.start
	ls.rttSelf = append(ls.rttSelf, client.end-client.start-hdur)
	ls.handler = append(ls.handler, hdur)
	if first < 0 {
		return
	}
	ls.self = append(ls.self, hdur-(last-first))
	if lastCompile < 0 || firstRun < 0 {
		return
	}
	wait := firstRun - lastCompile
	ls.leaseWait = append(ls.leaseWait, wait)
	if nValidate > 1 {
		ls.batchSelf = append(ls.batchSelf, last-first-runSum-wait)
	}
}
