package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/trace"
)

// env is one booted server in this process and the keep-alive client
// that drives it over loopback.
type env struct {
	reg    *core.Registry
	base   string
	client *http.Client
	stop   context.CancelFunc
	done   chan error
}

// opHeader carries the op index of a traced request to the server-side
// span wrapper.
const opHeader = "X-Bench-Op"

// serverSpans wraps the handler and records ServeHTTP's start (since
// epoch) and duration, in nanoseconds, for requests that carry opHeader.
// The spans live in memory, indexed by op.
type serverSpans struct {
	next    http.Handler
	epoch   time.Time
	at, dur []atomic.Int64
}

func newServerSpans(epoch time.Time, slots int) *serverSpans {
	return &serverSpans{epoch: epoch, at: make([]atomic.Int64, slots), dur: make([]atomic.Int64, slots)}
}

func (s *serverSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.Header.Get(opHeader))
	if err != nil || i < 0 || i >= len(s.dur) {
		s.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	s.next.ServeHTTP(w, r)
	s.at[i].Store(int64(start.Sub(s.epoch)))
	s.dur[i].Store(int64(time.Since(start)))
}

// await waits until the span of every op in ops is recorded: the wrapper
// stores it just after the client has read the response.
func (s *serverSpans) await(ops []int) error {
	deadline := time.Now().Add(5 * time.Second)
	for _, i := range ops {
		for s.dur[i].Load() == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("no server span for traced op %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// newHandler builds the HTTP handler with chordalctl -serve's defaults:
// the 256-request limiter, a tracer sampling nothing that retains
// queries slower than 500 ms, and an access log (here into a discarded
// sink). Cache size, shards and workers stay at their defaults.
func newHandler(reg *core.Registry) *httpd.Handler {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	tracer := trace.New(trace.Config{SlowQuery: 500 * time.Millisecond, Logger: logger})
	return httpd.New(reg, httpd.WithMaxInFlight(httpd.DefaultMaxInFlight),
		httpd.WithTracer(tracer), httpd.WithAccessLog(logger))
}

// newRegistry boots the catalog with opts: from one snapshot per scheme
// when snaps is set, otherwise by compiling every scheme.
func newRegistry(cat *catalog, snaps [][]byte, opts []core.Option) (*core.Registry, error) {
	reg := core.NewRegistry()
	for i, s := range cat.schemes {
		if snaps != nil {
			if _, err := reg.LoadSnapshot(s.name, snaps[i], opts...); err != nil {
				return nil, fmt.Errorf("boot %s: %w", s.name, err)
			}
			continue
		}
		reg.Set(s.name, s.graph, opts...)
	}
	return reg, nil
}

// boot starts a server for in on a loopback listener; a non-nil spans
// wraps the handler.
func boot(in *inputs, spans *serverSpans) (*env, error) {
	reg, err := newRegistry(in.cat, in.snaps, in.opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{reg: reg, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	var h http.Handler = newHandler(reg)
	if spans != nil {
		spans.next = h
		h = spans
	}
	var ctx context.Context
	ctx, e.stop = context.WithCancel(context.Background())
	go func() { e.done <- httpd.Serve(ctx, ln, h, 0) }()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        8,
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
	return e, nil
}

// close stops the server and waits for it to exit.
func (e *env) close() error {
	e.client.CloseIdleConnections()
	e.stop()
	return <-e.done
}

// send issues one op and reads the whole response. traceID, when ≥ 0,
// marks the request for the server-side span wrapper.
func (e *env) send(o *op, traceID int, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, e.base+o.kind.path(), bytes.NewReader(o.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(traceID))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// untimed sends ops on the given number of closed-loop clients and
// returns every failure, joined. Set-up uses it for warm-up and fill.
func (e *env) untimed(ops []op, clients int) error {
	var mu sync.Mutex
	var errs error
	forEach(len(ops), clients, func(buf *bytes.Buffer, i int) {
		status, err := e.send(&ops[i], -1, buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", ops[i].kind.path(), status, bytes.TrimSpace(buf.Bytes()))
		}
		if err != nil {
			mu.Lock()
			errs = errors.Join(errs, err)
			mu.Unlock()
		}
	})
	return errs
}

// fill sends each scheme's fill queries in chunks until its answer cache
// holds Capacity entries, so every later distinct query evicts.
func (e *env) fill(in *inputs, clients int) error {
	const chunk = 64
	for si, s := range in.cat.schemes {
		svc, ok := e.reg.Get(s.name)
		if !ok {
			return fmt.Errorf("fill: %s not registered", s.name)
		}
		for sent, st := 0, svc.Stats(); st.Entries < st.Capacity; sent, st = sent+chunk, svc.Stats() {
			ops, err := in.fill.take(si, sent+chunk)
			if err != nil {
				return fmt.Errorf("fill: %s cache holds %d of %d entries: %w", s.name, st.Entries, st.Capacity, err)
			}
			if err := e.untimed(ops[sent:], clients); err != nil {
				return err
			}
		}
	}
	return nil
}

// forEach runs f over indices [0, n) on the given number of closed-loop
// workers, each with its own response buffer, and waits for them.
func forEach(n, workers int, f func(buf *bytes.Buffer, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(&buf, i)
			}
		}()
	}
	wg.Wait()
}
