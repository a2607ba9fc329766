package main

import (
	"encoding/json"
	"slices"
	"testing"

	"slmem/internal/kind"
	"slmem/internal/server"
)

func TestTaggedBodiesRoundTrip(t *testing.T) {
	if b := encode("", "", "", "", false).append(nil, 0); len(b) != 0 {
		t.Fatalf("operandless untraced body = %q, want none", b)
	}
	body := encode("", "", "accumulator", "addTo(1)", true).append(nil, 42)
	var req server.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("traced body %q: %v", body, err)
	}
	id, kreq := untag(kind.Request{Op: "execute", Type: req.Type, Invocation: req.Invocation})
	if id != 42 || kreq.Type != "accumulator" || kreq.Invocation != "addTo(1)" {
		t.Fatalf("untag(%q) = %d, %+v", req.Type, id, kreq)
	}
	// Warmup traffic of a traced run carries an empty tag: id 0, untraced.
	if id, kreq := untag(kind.Request{Type: "|"}); id != 0 || kreq.Type != "" {
		t.Fatalf("untag(\"|\") = %d, %+v", id, kreq)
	}
}

func TestAnalyze(t *testing.T) {
	tr, err := newTracer(0)
	if err != nil {
		t.Fatal(err)
	}
	tr.ops = []string{"counter.inc"}
	spans := []span{
		// A single-op request: client 0..100, handler 20..80, validate
		// 30..32, compile 35..36, run 40..50.
		{id: 1, phase: phClient, start: 0, end: 100},
		{id: 1, phase: phHandler, start: 20, end: 80},
		{id: 1, phase: phValidate, start: 30, end: 32},
		{id: 1, phase: phCompile, start: 35, end: 36},
		{id: 1, phase: phRun, start: 40, end: 50},
		// A two-entry batch: V C V C, lease, R R.
		{id: 2, phase: phClient, start: 200, end: 400},
		{id: 2, phase: phHandler, start: 210, end: 390},
		{id: 2, phase: phValidate, start: 220, end: 221},
		{id: 2, phase: phCompile, start: 223, end: 224},
		{id: 2, phase: phValidate, start: 225, end: 226},
		{id: 2, phase: phCompile, start: 226, end: 228},
		{id: 2, phase: phRun, start: 240, end: 250},
		{id: 2, phase: phRun, start: 251, end: 260},
		// A request whose client span was lost.
		{id: 3, phase: phHandler, start: 500, end: 510},
	}
	ls := tr.analyze(spans)
	check := func(name string, got, want []int64) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if ls.requests != 2 || ls.incomplete != 1 {
		t.Errorf("requests %d incomplete %d, want 2 and 1", ls.requests, ls.incomplete)
	}
	check("rttSelf", ls.rttSelf, []int64{40, 20})
	check("handler", ls.handler, []int64{60, 180})
	check("self", ls.self, []int64{60 - 20, 180 - 40})
	check("resolve", ls.resolve, []int64{3, 2, 0})
	check("leaseWait", ls.leaseWait, []int64{4, 12})
	check("batchSelf", ls.batchSelf, []int64{40 - 19 - 12})
	check("run", ls.run["counter.inc"], []int64{10, 10, 9})
}
