package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"slmem/internal/registry"
)

// TestBatchBodyBufferReuse sends batches whose bodies arrive with a true
// Content-Length, an unknown one (-1), and one that understates the body,
// so the pooled body buffer is reused, sized from the header, and grown
// past it. Each batch stores values in fresh snapshots, and the objects
// keep those strings; scanning every snapshot afterwards proves no decoded
// string still pointed into a buffer a later batch overwrote.
func TestBatchBodyBufferReuse(t *testing.T) {
	srv := New(registry.Options{Procs: 2})
	want := map[string]string{} // snapshot name -> value stored in it
	for round := 0; round < 6; round++ {
		entries := make([]BatchEntry, 3+round)
		for j := range entries {
			name := fmt.Sprintf("reuse-%d-%d", round, j)
			value := fmt.Sprintf("v%d.%d-%s", round, j, strings.Repeat("x", 10*round))
			want[name] = value
			entries[j] = BatchEntry{Kind: registry.KindSnapshot, Name: name, Op: registry.OpUpdate, Value: value}
		}
		body, err := json.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
		switch round % 3 {
		case 1:
			req = httptest.NewRequest("POST", "/v1/batch", io.MultiReader(bytes.NewReader(body)))
			req.ContentLength = -1
		case 2:
			req.ContentLength = 1 // understated: the buffer must grow
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("round %d: batch %d %s", round, rec.Code, rec.Body)
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.OK || resp.Stats.Ops != len(entries) {
			t.Fatalf("round %d: reply %+v (%v)", round, resp, err)
		}
	}
	for name, value := range want {
		rec := do(t, srv, "POST", "/v1/snapshot/"+name+"/scan", nil)
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != 200 || !slices.Contains(resp.View, value) {
			t.Errorf("snapshot %q: code %d reply %s, want a component %q", name, rec.Code, rec.Body, value)
		}
	}
}

// TestBatchBodyPresizeBounded sends a batch whose header declares the
// largest allowed body but whose body stalls after a few bytes. While the
// handler waits for the rest, it must hold no more than a small presized
// buffer: reserving the declared length up front would let idle
// connections pin maxBatchBytes each.
func TestBatchBodyPresizeBounded(t *testing.T) {
	srv := New(registry.Options{Procs: 2})
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/v1/batch", pr)
	req.ContentLength = maxBatchBytes

	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, req)
	}()
	// The write returns once the handler has read these bytes; it then
	// blocks reading the rest.
	if _, err := pw.Write([]byte(`[{"kind":`)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&during)
	pw.Close()
	<-done

	if grew := during.TotalAlloc - before.TotalAlloc; grew >= maxBatchBytes/8 {
		t.Errorf("stalled body: %d bytes allocated before it arrived, want well under the declared %d", grew, maxBatchBytes)
	}
	if rec.Code != 400 {
		t.Errorf("truncated batch: status %d, want 400", rec.Code)
	}
}
