package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"slmem/internal/registry"
	"slmem/internal/server"
)

// instance is one in-process slserve on a loopback TCP listener plus the
// client that drives it.
type instance struct {
	srv    *server.Server
	http   *http.Server
	ln     *countingListener
	served chan struct{} // closed when Serve returns
	client *client
}

// countingListener counts accepted connections, so a run can prove it used
// no more than its configured client connections.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// start serves a fresh server.New on a loopback listener; wrap, when set,
// wraps the server's handler (the traced run's span recorder).
func start(procs, conns int, wrap func(http.Handler) http.Handler) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{
		srv:    server.New(registry.Options{Procs: procs}),
		ln:     &countingListener{Listener: ln},
		served: make(chan struct{}),
	}
	var h http.Handler = in.srv
	if wrap != nil {
		h = wrap(h)
	}
	in.http = &http.Server{Handler: h}
	go func() {
		defer close(in.served)
		_ = in.http.Serve(in.ln) // returns http.ErrServerClosed after stop
	}()
	in.client = &client{
		base: "http://" + ln.Addr().String(),
		http: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
			Timeout: 30 * time.Second,
		},
	}
	return in, nil
}

// stop closes the client's connections and the server, and waits for the
// serving goroutine to return.
func (in *instance) stop() {
	in.client.http.CloseIdleConnections()
	_ = in.http.Close() // closes the listener and every connection
	<-in.served
}

// client is the load generator's HTTP client.
type client struct {
	base string
	http *http.Client
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// post sends one call and requires a 200 reply whose envelope reports ok.
// For /v1/batch the envelope is ok only when every entry succeeded. traceID,
// when nonzero, is sent in the X-Trace-Id header for the traced handler.
func (c *client) post(ctx context.Context, path string, body []byte, traceID uint64) error {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, rd)
	if err != nil {
		return err
	}
	if traceID != 0 {
		req.Header[traceHeader] = []string{formatID(traceID)}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(buf.Bytes(), []byte(`{"ok":true`)) {
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// readAll runs ops through /v1/batch in chunks of batchOps entries and
// returns one result per op; any failed entry is an error. It reads the
// objects back after the measured windows.
func (c *client) readAll(ctx context.Context, ops []registry.BatchOp) ([]server.Response, error) {
	out := make([]server.Response, 0, len(ops))
	for len(ops) > 0 {
		n := min(len(ops), batchOps)
		body, err := json.Marshal(ops[:n])
		if err != nil {
			return nil, err
		}
		var reply server.BatchResponse
		if err := c.do(ctx, http.MethodPost, "/v1/batch", body, &reply); err != nil {
			return nil, err
		}
		if !reply.OK || len(reply.Results) != n {
			return nil, fmt.Errorf("batch of %d entries: ok=%v, %d results, %d failed, error %q",
				n, reply.OK, len(reply.Results), reply.Stats.Failed, reply.Error)
		}
		out = append(out, reply.Results...)
		ops = ops[n:]
	}
	return out, nil
}

// stats fetches GET /v1/stats.
func (c *client) stats(ctx context.Context) (server.Stats, error) {
	var st server.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

func (c *client) do(ctx context.Context, method, path string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// totalOps sums the per-kind operation counters of a stats document.
func totalOps(st server.Stats) int64 {
	var n int64
	for _, v := range st.Ops {
		n += v
	}
	return n
}
