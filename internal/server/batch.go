package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"slmem/internal/kind"
	"slmem/internal/registry"
)

// Batch request limits. MaxBatchOps is the default cap on entries per batch
// (configurable via WithMaxBatchOps); maxBatchBytes caps the request body.
const (
	MaxBatchOps   = 1024
	maxBatchBytes = 8 << 20
)

// BatchEntry is one operation in a POST /v1/batch request body, which is a
// JSON array of these. It is the wire form of a registry.BatchOp: kind and
// name select the object, op the operation, value the operand (decimal for
// maxreg write, component text for snapshot update), and type + invocation
// drive object execute.
type BatchEntry = registry.BatchOp

// BatchStats aggregates a batch reply: how many ops ran, how many failed,
// and how many pid leases the whole batch cost (one per distinct pool its
// valid entries touch — 1 for shared-pool kinds, +1 per dedicated-pool kind
// mixed in, 0 when every entry failed validation or was introspection-only)
// — the amortization the endpoint exists for.
type BatchStats struct {
	Ops       int   `json:"ops"`
	Failed    int   `json:"failed"`
	Leases    int   `json:"leases"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// BatchResponse is the JSON shape of POST /v1/batch replies. Results holds
// one Response per submitted entry, positionally; OK is true only when every
// entry succeeded. A whole-batch failure (malformed body, oversized batch,
// lease never acquired) carries Error and no Results.
type BatchResponse struct {
	OK      bool       `json:"ok"`
	Results []Response `json:"results,omitempty"`
	Stats   BatchStats `json:"stats"`
	Error   string     `json:"error,omitempty"`
}

// handleBatch serves POST /v1/batch: decode the entry array, run it through
// the registry under one pid lease, and report per-entry results plus
// aggregate stats. Per-entry failures do not fail the batch (partial-failure
// semantics); the HTTP status is non-200 only when the batch as a whole
// could not run.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.countEndpoint("batch")

	buf := getBatchBody(r.ContentLength)
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxBatchBytes+1)); err != nil {
		putBatchBody(buf)
		s.replyBatch(w, http.StatusBadRequest, BatchResponse{Error: "read request body: " + err.Error()})
		return
	}
	if buf.Len() > maxBatchBytes {
		putBatchBody(buf)
		s.replyBatch(w, http.StatusRequestEntityTooLarge,
			BatchResponse{Error: fmt.Sprintf("batch body exceeds %d bytes", maxBatchBytes)})
		return
	}
	entries, err := decodeBatchEntries(buf.Bytes(), s.maxBatchOps)
	// Both decoders copy every string they keep, so the body is free now.
	putBatchBody(buf)
	if errors.Is(err, errBatchTooMany) {
		s.replyBatch(w, http.StatusRequestEntityTooLarge,
			BatchResponse{Error: fmt.Sprintf("batch exceeds %d entries", s.maxBatchOps)})
		return
	}
	if err != nil {
		s.replyBatch(w, http.StatusBadRequest, BatchResponse{Error: err.Error()})
		return
	}
	if len(entries) == 0 {
		s.replyBatch(w, http.StatusBadRequest, BatchResponse{Error: "empty batch"})
		return
	}

	out, err := s.reg.BatchExecute(r.Context(), entries)
	if err != nil {
		// The lease was never acquired: the client went away (or timed out)
		// while the batch queued for a pid. Same mapping as single ops.
		s.replyBatch(w, http.StatusServiceUnavailable, BatchResponse{Error: err.Error()})
		return
	}

	results := make([]Response, len(out.Results))
	failed := 0
	for i, res := range out.Results {
		if res.Err != nil {
			results[i] = Response{Error: res.Err.Error()}
			failed++
			continue
		}
		results[i] = Response{OK: true, Value: res.Value, View: res.View}
	}
	// Count ops per kind by run length: batches are usually homogeneous, so
	// this is one counter update instead of one sync.Map hit per entry.
	var runKind string
	var run int64
	for i := range entries {
		k := string(entries[i].Kind)
		if _, known := kind.Lookup(k); !known {
			continue
		}
		if k != runKind {
			if run > 0 {
				s.countOps(runKind, run)
			}
			runKind, run = k, 0
		}
		run++
	}
	if run > 0 {
		s.countOps(runKind, run)
	}
	s.batches.Add(1)
	s.batchOps.Add(int64(len(entries)))

	s.replyBatch(w, http.StatusOK, BatchResponse{
		OK:      failed == 0,
		Results: results,
		Stats: BatchStats{
			Ops:       len(entries),
			Failed:    failed,
			Leases:    out.Leases,
			ElapsedUS: time.Since(start).Microseconds(),
		},
	})
}

// batchBodies recycles batch request-body buffers across requests.
// Buffers grown past maxPooledBody are dropped instead, so one large batch
// does not pin its buffer.
var batchBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const (
	maxPooledBody = 1 << 20
	// maxBodyPresize bounds how much of a declared Content-Length is
	// reserved before any body bytes arrive; past it the buffer grows only
	// as data does, so a client that declares a large body and never sends
	// it pins no more than this.
	maxBodyPresize = 64 << 10
)

// getBatchBody returns an empty pooled body buffer with room for
// contentLength bytes (at most maxBodyPresize) plus the bytes.MinRead that
// ReadFrom keeps free before each Read, so the final Read that sees EOF
// does not grow it.
func getBatchBody(contentLength int64) *bytes.Buffer {
	buf := batchBodies.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(int(min(max(contentLength, 0), maxBodyPresize)) + bytes.MinRead)
	return buf
}

func putBatchBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		batchBodies.Put(buf)
	}
}

// errBatchTooMany marks a batch rejected for exceeding the entry cap; both
// decode paths stop at the cap instead of materializing an unbounded slice
// first (an 8 MiB body can hold millions of "{}" entries).
var errBatchTooMany = errors.New("too many batch entries")

// decodeBatchEntries decodes the request body — a JSON array of entries —
// stopping as soon as more than max entries appear. The reflection-free
// fast path handles the common flat shape; anything else (escaped strings,
// unknown keys, malformed JSON) is re-decoded by an encoding/json streaming
// decoder for identical accept/reject semantics.
func decodeBatchEntries(body []byte, max int) ([]BatchEntry, error) {
	entries, ok, tooMany := fastDecodeBatch(body, max)
	if tooMany {
		return nil, errBatchTooMany
	}
	if ok {
		return entries, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("bad batch body (want a JSON array of entries): %w", err)
	}
	if tok == nil {
		// JSON null decodes to no entries, as json.Unmarshal would.
		return nil, nil
	}
	if d, isDelim := tok.(json.Delim); !isDelim || d != '[' {
		return nil, fmt.Errorf("bad batch body: want a JSON array of entries, got %v", tok)
	}
	for dec.More() {
		if len(entries) >= max {
			return nil, errBatchTooMany
		}
		var e BatchEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("bad batch entry %d: %w", len(entries), err)
		}
		entries = append(entries, e)
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return nil, fmt.Errorf("bad batch body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("bad batch body: trailing data after the entry array")
	}
	return entries, nil
}

// replyBatch writes a batch reply, counting whole-batch and per-entry
// failures into the server failure metric. The body is built by the
// reflection-free encoder (appendBatchResponse), whose output is
// byte-identical to encoding/json's.
func (s *Server) replyBatch(w http.ResponseWriter, status int, resp BatchResponse) {
	if resp.Error != "" || resp.Stats.Failed > 0 {
		s.failures.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf := appendBatchResponse(make([]byte, 0, 64+32*len(resp.Results)), resp)
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		log.Printf("server: write batch response: %v", err)
	}
}
