package server

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"slmem/internal/kind"
	"slmem/internal/registry"
)

// intern resolves b against the driver registry's vocabulary (kind names,
// op names, reserved introspection ops) without allocating, falling back to
// a fresh string for anything outside it. Batch bodies repeat kind and op
// in every entry, so this removes two allocations per entry on the common
// path.
func intern(b []byte) string {
	if s, ok := kind.Intern(b); ok {
		return s
	}
	return string(b)
}

// fastDecodeBatch decodes a JSON array of flat batch entries — objects whose
// keys and values are plain strings — without encoding/json's per-entry
// reflection, which would otherwise dominate the cost of a large batch
// (roughly 800ns of the ~1.4us a batched op costs end to end).
//
// It is deliberately partial: any input outside the fast shape — escaped
// strings, non-string values, unknown keys, nested structures, or malformed
// JSON — returns ok=false, and the caller falls back to encoding/json for
// identical semantics (including the error message on truly bad input). The
// fast path therefore never changes what the endpoint accepts; it only
// changes how fast the common shape parses.
//
// Decoding stops once more than max entries appear (tooMany=true): the
// entry cap must bound allocation during decoding, not just be checked
// after an unbounded slice was built.
func fastDecodeBatch(data []byte, max int) (entries []registry.BatchOp, ok, tooMany bool) {
	p := fastParser{buf: data}
	p.ws()
	if !p.eat('[') {
		return nil, false, false
	}
	p.ws()
	if p.eat(']') {
		p.ws()
		return entries, p.done(), false
	}
	// Every entry opens with '{', so the body's '{' count bounds the entry
	// count: one allocation instead of append's doublings.
	entries = make([]registry.BatchOp, 0, min(bytes.Count(data, []byte{'{'}), max))
	for {
		if len(entries) >= max {
			return nil, false, true
		}
		p.ws()
		if !p.eat('{') {
			return nil, false, false
		}
		var e registry.BatchOp
		p.ws()
		if !p.eat('}') {
			for {
				key, kok := p.str()
				if !kok {
					return nil, false, false
				}
				p.ws()
				if !p.eat(':') {
					return nil, false, false
				}
				p.ws()
				val, vok := p.str()
				if !vok {
					return nil, false, false
				}
				// string(key) in a switch does not allocate.
				switch string(key) {
				case "kind":
					e.Kind = registry.Kind(intern(val))
				case "name":
					e.Name = string(val)
				case "op":
					e.Op = registry.Op(intern(val))
				case "value":
					e.Value = string(val)
				case "type":
					e.Type = string(val)
				case "invocation":
					e.Invocation = string(val)
				default:
					// Unknown key: its value might not even be a string;
					// let encoding/json decide what to do with it.
					return nil, false, false
				}
				p.ws()
				if p.eat(',') {
					p.ws()
					continue
				}
				if p.eat('}') {
					break
				}
				return nil, false, false
			}
		}
		entries = append(entries, e)
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			break
		}
		return nil, false, false
	}
	p.ws()
	return entries, p.done(), false
}

// fastDecodeRequest decodes a single-operation request body — a flat JSON
// object whose keys and values are plain strings — without encoding/json's
// reflection, the same trick fastDecodeBatch plays for batch bodies (the
// ROADMAP follow-up from the batch PR). Like it, the fast path is
// deliberately partial: escapes, non-string values, unknown keys, nested
// structures, or malformed JSON return ok=false and the caller falls back
// to encoding/json for identical accept/reject semantics.
func fastDecodeRequest(data []byte) (req Request, ok bool) {
	p := fastParser{buf: data}
	p.ws()
	if !p.eat('{') {
		return Request{}, false
	}
	p.ws()
	if !p.eat('}') {
		for {
			key, kok := p.str()
			if !kok {
				return Request{}, false
			}
			p.ws()
			if !p.eat(':') {
				return Request{}, false
			}
			p.ws()
			val, vok := p.str()
			if !vok {
				return Request{}, false
			}
			// string(key) in a switch does not allocate.
			switch string(key) {
			case "value":
				req.Value = string(val)
			case "type":
				req.Type = string(val)
			case "invocation":
				req.Invocation = string(val)
			default:
				// Unknown key: its value might not even be a string; let
				// encoding/json decide what to do with it.
				return Request{}, false
			}
			p.ws()
			if p.eat(',') {
				p.ws()
				continue
			}
			if p.eat('}') {
				break
			}
			return Request{}, false
		}
	}
	p.ws()
	return req, p.done()
}

// --- Fast-path response encoding ---------------------------------------------

// appendJSONString appends s as a JSON string literal, byte-identical to
// encoding/json's output. The fast path covers ASCII needing no escapes;
// anything else — control characters, quotes, backslashes, the
// HTML-escaped set (<, >, &), non-ASCII — is delegated to json.Marshal so
// the escaping rules (including U+2028/U+2029 and invalid-UTF-8
// replacement) stay exactly encoding/json's.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				// Marshaling a string cannot fail; keep the reply valid JSON
				// if it somehow does.
				return append(buf, `""`...)
			}
			return append(buf, enc...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendResponse appends the JSON encoding of one Response, byte-identical
// to encoding/json's (field order, omitempty semantics).
func appendResponse(buf []byte, r Response) []byte {
	if r.OK {
		buf = append(buf, `{"ok":true`...)
	} else {
		buf = append(buf, `{"ok":false`...)
	}
	if r.Value != "" {
		buf = append(buf, `,"value":`...)
		buf = appendJSONString(buf, r.Value)
	}
	if len(r.View) > 0 {
		buf = append(buf, `,"view":[`...)
		for i, v := range r.View {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, v)
		}
		buf = append(buf, ']')
	}
	if r.Error != "" {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, r.Error)
	}
	return append(buf, '}')
}

// appendBatchResponse appends the JSON encoding of a BatchResponse,
// byte-identical to encoding/json's. A 64-entry batch reply costs one
// buffer instead of a reflective walk over 64 structs — the encode-side
// half of the batch fast path (fastDecodeBatch is the decode-side half).
func appendBatchResponse(buf []byte, r BatchResponse) []byte {
	if r.OK {
		buf = append(buf, `{"ok":true`...)
	} else {
		buf = append(buf, `{"ok":false`...)
	}
	if len(r.Results) > 0 {
		buf = append(buf, `,"results":[`...)
		for i, res := range r.Results {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendResponse(buf, res)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"stats":{"ops":`...)
	buf = appendInt(buf, int64(r.Stats.Ops))
	buf = append(buf, `,"failed":`...)
	buf = appendInt(buf, int64(r.Stats.Failed))
	buf = append(buf, `,"leases":`...)
	buf = appendInt(buf, int64(r.Stats.Leases))
	buf = append(buf, `,"elapsed_us":`...)
	buf = appendInt(buf, r.Stats.ElapsedUS)
	buf = append(buf, '}')
	if r.Error != "" {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, r.Error)
	}
	return append(buf, '}')
}

// appendInt appends the decimal encoding of n.
func appendInt(buf []byte, n int64) []byte {
	return strconv.AppendInt(buf, n, 10)
}

// fastParser is a cursor over a JSON document supporting exactly the tokens
// fastDecodeBatch needs.
type fastParser struct {
	buf []byte
	pos int
}

// ws skips JSON whitespace.
func (p *fastParser) ws() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *fastParser) eat(c byte) bool {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// done reports whether the whole document was consumed.
func (p *fastParser) done() bool { return p.pos == len(p.buf) }

// str consumes a string literal and returns its raw bytes. It reports false
// on anything that is not a simple string: escapes (backslash), control
// characters, and invalid UTF-8 bail out so the fallback path handles them
// with full encoding/json fidelity (which replaces invalid sequences with
// U+FFFD — the fast path must not decode the same bytes differently).
func (p *fastParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	nonASCII := false
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		if c == '"' {
			s := p.buf[start:p.pos]
			p.pos++
			// The scan above already proved pure-ASCII strings valid; only
			// strings with high bytes need the full UTF-8 check.
			if nonASCII && !utf8.Valid(s) {
				return nil, false
			}
			return s, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		nonASCII = nonASCII || c >= 0x80
		p.pos++
	}
	return nil, false
}
