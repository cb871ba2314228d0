package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/trace"
)

// doTrace is do plus an inbound traceparent header.
func doTrace(t *testing.T, h http.Handler, method, path, body, traceparent string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	if traceparent != "" {
		r.Header.Set("traceparent", traceparent)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// findTrace returns the retained trace with the given id, if any.
func findTrace(tr *trace.Tracer, id string) *trace.Recorded {
	for _, rec := range tr.Recent() {
		if rec.TraceID == id {
			return rec
		}
	}
	return nil
}

func TestTracesEndpointWithoutTracer(t *testing.T) {
	h := New(testRegistry())
	w := do(t, h, "GET", "/v1/traces", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	// Empty list, not null: probes need not know the tracing config.
	if body := strings.TrimSpace(w.Body.String()); body != `{"traces":[]}` {
		t.Fatalf("body = %s, want empty traces list", body)
	}
}

// TestTraceparentAdoption checks the W3C header contract: a sampled
// inbound traceparent forces retention under that trace id with the
// remote span as parent; an unsampled one is adopted but not retained.
func TestTraceparentAdoption(t *testing.T) {
	tracer := trace.New(trace.Config{}) // SampleProb 0: only forced traces kept
	h := New(testRegistry(), WithTracer(tracer))

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const psid = "00f067aa0ba902b7"
	w := doTrace(t, h, "POST", "/v1/connect",
		`{"scheme":"lib","labels":["A","C"]}`, "00-"+tid+"-"+psid+"-01")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	rec := findTrace(tracer, tid)
	if rec == nil {
		t.Fatalf("sampled traceparent not retained; ring: %+v", tracer.Recent())
	}
	if rec.ParentSpan != psid {
		t.Fatalf("parent span = %q, want %q", rec.ParentSpan, psid)
	}
	if rec.Reason != "sampled" {
		t.Fatalf("reason = %q, want sampled", rec.Reason)
	}
	if rec.Name != "/v1/connect" {
		t.Fatalf("name = %q, want /v1/connect", rec.Name)
	}
	if got := rec.Spans[0].Attrs["scheme"]; got != "lib" {
		t.Fatalf("root scheme attr = %v, want lib", got)
	}

	// The same trace must come back on the wire via GET /v1/traces.
	var resp TracesResponse
	if err := json.Unmarshal(do(t, h, "GET", "/v1/traces", "").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range resp.Traces {
		found = found || r.TraceID == tid
	}
	if !found {
		t.Fatalf("trace %s missing from /v1/traces response", tid)
	}

	// Unsampled flags: the id is adopted but the trace is dropped.
	const tid2 = "aaaabbbbccccddddeeeeffff00001111"
	doTrace(t, h, "POST", "/v1/connect",
		`{"scheme":"lib","labels":["A","C"]}`, "00-"+tid2+"-"+psid+"-00")
	if findTrace(tracer, tid2) != nil {
		t.Fatalf("unsampled traceparent was retained")
	}
}

// TestSlowQueryForensics is the PR's acceptance scenario: a deliberately
// slow exact-DP query must yield a /v1/traces entry whose phase spans
// account for the request wall time, with the same trace id in the
// slow-query log, the access log, and the solve-histogram exemplar.
func TestSlowQueryForensics(t *testing.T) {
	reg := testRegistry()
	reg.Set("grid", gen.GridBipartite(10, 10))

	var logBuf bytes.Buffer
	var mu sync.Mutex // slog handler vs. direct reads below
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{w: &logBuf, mu: &mu}, nil))
	tracer := trace.New(trace.Config{SlowQuery: 5 * time.Millisecond, Logger: logger})
	h := New(reg, WithTracer(tracer), WithAccessLog(logger))

	// 13 spread-out terminals on a 10x10 grid force about 27ms of
	// Dreyfus–Wagner DP on a 2-core x86 host (12 take about 11ms): five
	// times the 5ms slow threshold, and large enough that the phase spans
	// dominate the request wall time.
	labels := make([]string, 13)
	for i := range labels {
		labels[i] = fmt.Sprintf("g%d_%d", (i*10)/len(labels), (i*7)%10)
	}
	body, _ := json.Marshal(map[string]any{
		"scheme": "grid", "labels": labels, "method": "exact",
	})
	start := time.Now()
	w := do(t, h, "POST", "/v1/connect", string(body))
	wall := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}

	recent := tracer.Recent()
	if len(recent) != 1 {
		t.Fatalf("retained %d traces, want 1", len(recent))
	}
	rec := recent[0]
	if rec.Reason != "slow" {
		t.Fatalf("reason = %q, want slow", rec.Reason)
	}
	if got := rec.Spans[0].Attrs["scheme"]; got != "grid" {
		t.Fatalf("root scheme attr = %v, want grid", got)
	}

	// Top-level phase spans (limiter, decode, cache, planner, solve,
	// render — not the nested solve.* phases) must tile the request:
	// their sum within 10% of the measured wall time.
	var phaseSum float64
	solveAttrs := map[string]any{}
	for _, sp := range rec.Spans[1:] {
		if strings.HasPrefix(sp.Name, "solve.") {
			continue
		}
		phaseSum += sp.DurationMS
		if sp.Name == "solve" {
			solveAttrs = sp.Attrs
		}
	}
	wallMS := float64(wall) / float64(time.Millisecond)
	if phaseSum < 0.9*wallMS || phaseSum > 1.1*wallMS {
		t.Errorf("phase spans sum to %.2fms, want within 10%% of wall %.2fms (trace %+v)",
			phaseSum, wallMS, rec)
	}
	if solveAttrs["method"] != "exact" {
		t.Errorf("solve span method attr = %v, want exact", solveAttrs["method"])
	}

	// The same trace id must appear in the slow-query log line and in
	// the access log line for the request.
	mu.Lock()
	logs := logBuf.String()
	mu.Unlock()
	var slowLine, requestLine map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		switch m["msg"] {
		case "slow query":
			slowLine = m
		case "request":
			requestLine = m
		}
	}
	if slowLine == nil {
		t.Fatalf("no slow-query log line in %s", logs)
	}
	if slowLine["trace_id"] != rec.TraceID {
		t.Errorf("slow-query log trace_id = %v, want %s", slowLine["trace_id"], rec.TraceID)
	}
	if _, ok := slowLine["phase_solve_ms"]; !ok {
		t.Errorf("slow-query log has no phase_solve_ms breakdown: %v", slowLine)
	}
	if requestLine == nil || requestLine["trace_id"] != rec.TraceID {
		t.Errorf("access log line = %v, want trace_id %s", requestLine, rec.TraceID)
	}

	// The solve-duration histogram's exemplar must link back to the
	// retained trace, and the /metrics exposition must render it.
	if id, _, ok := h.solveDur.Exemplar(); !ok || id != rec.TraceID {
		t.Errorf("solve histogram exemplar = %q/%v, want %s", id, ok, rec.TraceID)
	}
	scrape := do(t, h, "GET", "/metrics", "").Body.String()
	exemplar := "# exemplar " + MetricSolveDuration
	found := false
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, exemplar) && strings.Contains(line, "trace_id="+rec.TraceID) {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s line carrying trace_id=%s in /metrics scrape", exemplar, rec.TraceID)
	}
}

// lockedWriter serializes writes so the test can read the buffer while
// handler goroutines may still be logging.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestTracesAndMetricsDuringRegistryChurn hammers the monitoring GETs
// while the registry swaps and drops schemes under query traffic. It
// checks nothing panics and that every retained trace attributes the
// exact scheme epoch its response was computed against — no stale-epoch
// attribution across pool reuse or concurrent swaps.
func TestTracesAndMetricsDuringRegistryChurn(t *testing.T) {
	reg := testRegistry()
	tracer := trace.New(trace.Config{RingSize: 4096})
	h := New(reg, WithTracer(tracer))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/v1/traces"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("GET", p, nil))
				if w.Code != http.StatusOK {
					t.Errorf("GET %s = %d during churn", p, w.Code)
					return
				}
			}
		}(path)
	}
	// Churn: re-install "lib" (epoch climbs) and add/drop a transient
	// scheme so the scrape bridges see schemes vanish mid-walk.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Set("lib", fig3c())
			if i%2 == 0 {
				reg.Set("churn", payroll())
			} else {
				reg.Drop("churn")
			}
		}
	}()

	// Every query carries a unique forced-sampled traceparent, so each
	// retained trace can be paired with the response it produced.
	queries := []string{`["A","C"]`, `["A","B"]`, `["B","C"]`}
	wantEpoch := make(map[string]uint64)
	for i := 0; i < 300; i++ {
		tid := fmt.Sprintf("%032x", i+1)
		w := doTrace(t, h, "POST", "/v1/connect",
			`{"scheme":"lib","labels":`+queries[i%len(queries)]+`}`,
			fmt.Sprintf("00-%s-00f067aa0ba902b7-01", tid))
		if w.Code != http.StatusOK {
			t.Fatalf("connect %d = %d: %s", i, w.Code, w.Body.String())
		}
		var resp ConnectResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		wantEpoch[tid] = resp.Epoch
	}
	close(stop)
	wg.Wait()

	checked := 0
	for _, rec := range tracer.Recent() {
		epoch, ok := wantEpoch[rec.TraceID]
		if !ok {
			continue
		}
		attrs := rec.Spans[0].Attrs
		if attrs["scheme"] != "lib" {
			t.Errorf("trace %s scheme attr = %v, want lib", rec.TraceID, attrs["scheme"])
		}
		if got, _ := attrs["epoch"].(int64); uint64(got) != epoch {
			t.Errorf("trace %s epoch attr = %v, response epoch %d", rec.TraceID, attrs["epoch"], epoch)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("paired only %d traces with responses, want >= 100", checked)
	}

	// A final scrape after the churn settles must still render the
	// planner histograms for every surviving scheme.
	scrape := do(t, h, "GET", "/metrics", "").Body.String()
	if !strings.Contains(scrape, MetricPlannerGroupSize+"_count{scheme=\"lib\"}") {
		t.Errorf("planner group-size series for lib missing from scrape")
	}
	if !strings.Contains(scrape, MetricPlannerSharedBuild) {
		t.Errorf("planner shared-build series missing from scrape")
	}
}
