package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Defaults for the handler knobs; override with the With… options.
const (
	DefaultMaxInFlight      = 256
	DefaultMaxBodyBytes     = 1 << 20 // 1 MiB
	DefaultMaxSnapshotBytes = 64 << 20
	DefaultMaxTimeout       = 30 * time.Second
	DefaultInterpLimit      = 5
)

// Handler serves the v1 HTTP API over a Registry. It is an http.Handler;
// all methods are safe for concurrent use (the Registry may be updated —
// Set/Drop or the PUT/DELETE admin endpoints — while the handler is
// serving).
type Handler struct {
	reg         *core.Registry
	mux         *http.ServeMux
	sem         chan struct{} // nil: unlimited
	maxBody     int64
	maxSnapshot int64
	maxTimeout  time.Duration
	schemeOpts  []core.Option

	// Observability (metrics.go). met is the scrape registry behind
	// GET /metrics; the named instruments are the ones the request path
	// touches directly.
	met      *metrics.Registry
	solveDur *metrics.Histogram // query-endpoint latency; drives Retry-After
	sheds    *metrics.Counter
	swaps    *metrics.Counter
	// reqSeries maps an (endpoint, method, code) triple to its request
	// series, copy-on-write under reqMu, so a request finds them without
	// the registry rebuilding label signatures.
	reqSeries atomic.Pointer[map[requestKey]requestSeries]
	reqMu     sync.Mutex

	// Tracing (trace.go). Both nil by default: an untraced, unlogged
	// handler does no per-request tracing work whatsoever.
	tracer    *trace.Tracer
	accessLog *slog.Logger
}

// HandlerOption configures New.
type HandlerOption func(*Handler)

// WithMaxInFlight bounds concurrently-served requests; excess requests are
// shed immediately with 429/overloaded and a Retry-After header rather
// than queued. Non-positive means unlimited.
func WithMaxInFlight(n int) HandlerOption {
	return func(h *Handler) {
		if n > 0 {
			h.sem = make(chan struct{}, n)
		} else {
			h.sem = nil
		}
	}
}

// WithMaxBodyBytes bounds request body size (413 beyond it).
func WithMaxBodyBytes(n int64) HandlerOption {
	return func(h *Handler) { h.maxBody = n }
}

// WithMaxSnapshotBytes bounds PUT /v1/schemes/{name} upload size — scheme
// uploads are binary catalogs, legitimately much larger than query bodies,
// so they get their own cap (413 beyond it).
func WithMaxSnapshotBytes(n int64) HandlerOption {
	return func(h *Handler) { h.maxSnapshot = n }
}

// WithSchemeOptions sets the construction options (WithMaxTerminals,
// WithWorkers, …) applied to every scheme installed through the PUT admin
// endpoint, so uploaded schemes get the same budgets as the ones the
// server booted with.
func WithSchemeOptions(opts ...core.Option) HandlerOption {
	return func(h *Handler) { h.schemeOpts = opts }
}

// WithMaxTimeout caps the per-request deadline. Requests without a
// timeout_ms get exactly this deadline; larger timeout_ms values are
// clamped to it. Non-positive disables the cap (requests then run on the
// connection's context alone).
func WithMaxTimeout(d time.Duration) HandlerOption {
	return func(h *Handler) { h.maxTimeout = d }
}

// New returns a Handler serving reg.
func New(reg *core.Registry, opts ...HandlerOption) *Handler {
	h := &Handler{
		reg:         reg,
		maxBody:     DefaultMaxBodyBytes,
		maxSnapshot: DefaultMaxSnapshotBytes,
		maxTimeout:  DefaultMaxTimeout,
		sem:         make(chan struct{}, DefaultMaxInFlight),
	}
	for _, o := range opts {
		o(h)
	}
	h.initMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/connect", h.handleConnect)
	mux.HandleFunc("POST /v1/batch", h.handleBatch)
	mux.HandleFunc("POST /v1/interpretations", h.handleInterpretations)
	mux.HandleFunc("GET /v1/schemes", h.handleSchemes)
	mux.HandleFunc("GET /v1/stats", h.handleStats)
	mux.HandleFunc("GET /metrics", h.handleMetrics)
	mux.HandleFunc("GET /v1/traces", h.handleTraces)
	mux.HandleFunc("GET /v1/schemes/{name}/snapshot", h.handleSnapshotDownload)
	mux.HandleFunc("PUT /v1/schemes/{name}", h.handleSchemeUpload)
	mux.HandleFunc("DELETE /v1/schemes/{name}", h.handleSchemeDelete)
	h.mux = mux
	return h
}

// ServeHTTP applies the in-flight limiter, then routes. Shedding happens
// before routing so an overloaded server does even less work per rejected
// request. Read-only GETs (/v1/schemes, /v1/stats, /metrics) are exempt:
// they do no solver work, and monitoring must keep answering precisely
// when the limiter is rejecting query traffic. Snapshot downloads are the
// exception among GETs — each one buffers a full encoded epoch, so they
// take a limiter slot like any other expensive request.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint := endpointLabel(r)
	start := time.Now()
	tr, r := h.startTrace(r, endpoint)
	if h.sem != nil && (r.Method != http.MethodGet || strings.HasSuffix(r.URL.Path, "/snapshot")) {
		lsp := tr.StartSpan("limiter")
		select {
		case h.sem <- struct{}{}:
			lsp.End()
			defer func() { <-h.sem }()
		default:
			// Sheds count on requests_total (code 429) but not the duration
			// histogram: no routed work happened, and a flood of free
			// rejections would drag the latency distribution toward zero.
			lsp.Annotate("outcome", "shed")
			lsp.End()
			h.sheds.Inc()
			h.met.Counter(MetricRequestsTotal,
				"HTTP requests by endpoint, method and status code.",
				metrics.L("endpoint", endpoint), metrics.L("method", methodLabel(r.Method)),
				metrics.L("code", strconv.Itoa(http.StatusTooManyRequests))).Inc()
			w.Header().Set("Retry-After", h.retryAfterSeconds())
			writeError(w, http.StatusTooManyRequests, CodeOverloaded,
				"server is at its in-flight request limit")
			h.finishRequest(tr, r, endpoint, http.StatusTooManyRequests, time.Since(start))
			return
		}
	}
	sw := &statusWriter{ResponseWriter: w}
	h.mux.ServeHTTP(sw, r)
	status := sw.status
	if status == 0 { // handler never wrote; net/http implies 200
		status = http.StatusOK
	}
	d := time.Since(start)
	traceID := h.finishRequest(tr, r, endpoint, status, d)
	h.observeRequest(endpoint, r.Method, status, d, traceID)
}

// resolveScheme looks the scheme up, defaulting to the sole registered
// scheme when the request leaves the name empty. The returned epoch is
// read atomically with the Service, so the response attributes the answer
// to the compile that actually produced it even if a concurrent Set swaps
// the scheme mid-query.
func (h *Handler) resolveScheme(name string) (*core.Service, string, uint64, error) {
	if name == "" {
		if names := h.reg.Names(); len(names) == 1 {
			name = names[0]
		} else {
			return nil, "", 0, fmt.Errorf("%w: request names no scheme and %d are registered",
				core.ErrUnknownScheme, len(names))
		}
	}
	svc, epoch, ok := h.reg.Lookup(name)
	if !ok {
		return nil, "", 0, fmt.Errorf("%w: %q", core.ErrUnknownScheme, name)
	}
	return svc, name, epoch, nil
}

// resolveTerminals returns the query's terminal ids, translating labels
// when the request used them. Validation proper (range, duplicates,
// budget) stays in core — this only rejects the ambiguous both-set case
// and unknown labels.
func resolveTerminals(svc *core.Service, terminals []int, labels []string) ([]int, *ErrorBody) {
	if len(labels) == 0 {
		return terminals, nil
	}
	if len(terminals) > 0 {
		return nil, &ErrorBody{
			Status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: "set either terminals or labels, not both",
		}
	}
	// Resolve against the frozen view: it carries the same label index and
	// never forces a snapshot-loaded scheme to thaw its mutable graph.
	g := svc.Connector().Frozen().G()
	out := make([]int, len(labels))
	for i, l := range labels {
		id, ok := g.ID(l)
		if !ok {
			return nil, &ErrorBody{
				Status: http.StatusUnprocessableEntity, Code: CodeUnknownLabel,
				Message: fmt.Sprintf("unknown node label %q", l),
			}
		}
		out[i] = id
	}
	return out, nil
}

// requestContext derives the query context: the connection's context,
// bounded by timeout_ms clamped to the server cap (or by the cap alone
// when the request named none). Negative timeout_ms is a client bug the
// caller must reject before getting here — see checkTimeout.
func (h *Handler) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := time.Duration(timeoutMS) * time.Millisecond
	if h.maxTimeout > 0 && (d <= 0 || d > h.maxTimeout) {
		d = h.maxTimeout
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// checkTimeout rejects a negative timeout_ms: a client that computed an
// impossible deadline should fail fast, not be promoted to the server's
// full budget.
func checkTimeout(timeoutMS int64) *ErrorBody {
	if timeoutMS < 0 {
		return &ErrorBody{
			Status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: "timeout_ms must be non-negative",
		}
	}
	return nil
}

// normalizeInterp validates an InterpSpec and applies the default limit —
// the single source of those rules for /v1/connect and
// /v1/interpretations alike.
func normalizeInterp(spec InterpSpec) (maxAux, limit int, eb *ErrorBody) {
	if spec.MaxAux < 0 || spec.Limit < 0 {
		return 0, 0, &ErrorBody{
			Status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: "max_aux and limit must be non-negative",
		}
	}
	limit = spec.Limit
	if limit == 0 {
		limit = DefaultInterpLimit
	}
	return spec.MaxAux, limit, nil
}

// queryOptions folds the wire fields into core query options.
func queryOptions(method string, exactLimit int, interp *InterpSpec, bypass bool) ([]core.QueryOption, *ErrorBody) {
	m, ok := parseMethod(method)
	if !ok {
		return nil, &ErrorBody{
			Status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: fmt.Sprintf("unknown method %q (want auto, algorithm-1, algorithm-2, exact or heuristic)", method),
		}
	}
	var opts []core.QueryOption
	if m != core.MethodAuto {
		opts = append(opts, core.WithMethod(m))
	}
	if exactLimit < 0 {
		return nil, &ErrorBody{
			Status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: "exact_limit must be non-negative",
		}
	}
	if exactLimit > 0 {
		opts = append(opts, core.WithQueryExactLimit(exactLimit))
	}
	if interp != nil {
		maxAux, limit, eb := normalizeInterp(*interp)
		if eb != nil {
			return nil, eb
		}
		opts = append(opts, core.WithInterpretations(maxAux, limit))
	}
	if bypass {
		opts = append(opts, core.WithCacheBypass())
	}
	return opts, nil
}

func (h *Handler) handleConnect(w http.ResponseWriter, r *http.Request) {
	var req ConnectRequest
	if !h.decode(w, r, &req) {
		return
	}
	svc, name, epoch, err := h.resolveScheme(req.Scheme)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	annotateScheme(r, name, epoch)
	terms, eb := resolveTerminals(svc, req.Terminals, req.Labels)
	if eb != nil {
		writeErrorBody(w, eb)
		return
	}
	opts, eb := queryOptions(req.Method, req.ExactLimit, req.Interpretations, req.CacheBypass)
	if eb != nil {
		writeErrorBody(w, eb)
		return
	}
	if eb := checkTimeout(req.TimeoutMS); eb != nil {
		writeErrorBody(w, eb)
		return
	}
	ctx, cancel := h.requestContext(r, req.TimeoutMS)
	defer cancel()
	conn, err := svc.Connect(ctx, terms, opts...)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	rsp := trace.FromContext(r.Context()).StartSpan("render")
	resp := ConnectResponse{
		Scheme: name,
		Epoch:  epoch,
		Answer: answerOf(svc, conn),
	}
	rsp.End()
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !h.decode(w, r, &req) {
		return
	}
	svc, name, epoch, err := h.resolveScheme(req.Scheme)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	annotateScheme(r, name, epoch)
	opts, eb := queryOptions(req.Method, req.ExactLimit, nil, req.CacheBypass)
	if eb != nil {
		writeErrorBody(w, eb)
		return
	}
	if eb := checkTimeout(req.TimeoutMS); eb != nil {
		writeErrorBody(w, eb)
		return
	}
	ctx, cancel := h.requestContext(r, req.TimeoutMS)
	defer cancel()
	results := svc.ConnectBatch(ctx, req.Queries, opts...)
	rsp := trace.FromContext(r.Context()).StartSpan("render")
	resp := BatchResponse{
		Scheme:  name,
		Epoch:   epoch,
		Results: make([]BatchItem, len(results)),
	}
	for i, res := range results {
		item := BatchItem{Terminals: nonNilInts(res.Terminals)}
		if res.Err != nil {
			status, code := errorStatus(res.Err)
			item.Error = &ErrorBody{Status: status, Code: code, Message: res.Err.Error()}
			resp.Failed++
		} else {
			a := answerOf(svc, res.Conn)
			item.Answer = &a
		}
		resp.Results[i] = item
	}
	rsp.End()
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleInterpretations(w http.ResponseWriter, r *http.Request) {
	var req InterpretationsRequest
	if !h.decode(w, r, &req) {
		return
	}
	svc, name, epoch, err := h.resolveScheme(req.Scheme)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	annotateScheme(r, name, epoch)
	terms, eb := resolveTerminals(svc, req.Terminals, req.Labels)
	if eb != nil {
		writeErrorBody(w, eb)
		return
	}
	maxAux, limit, eb := normalizeInterp(InterpSpec{MaxAux: req.MaxAux, Limit: req.Limit})
	if eb != nil {
		writeErrorBody(w, eb)
		return
	}
	if eb := checkTimeout(req.TimeoutMS); eb != nil {
		writeErrorBody(w, eb)
		return
	}
	ctx, cancel := h.requestContext(r, req.TimeoutMS)
	defer cancel()
	interps, err := svc.Connector().Interpretations(ctx, terms, maxAux, limit)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, InterpretationsResponse{
		Scheme:          name,
		Epoch:           epoch,
		Interpretations: interpBodies(svc, interps),
	})
}

func (h *Handler) handleSchemes(w http.ResponseWriter, r *http.Request) {
	resp := SchemesResponse{Schemes: []SchemeInfo{}}
	for _, name := range h.reg.Names() {
		// Entry reads service, epoch and source atomically, so a listing
		// taken during a swap never pairs one epoch with another's source.
		svc, epoch, source, ok := h.reg.Entry(name)
		if !ok { // dropped between Names and Entry
			continue
		}
		c := svc.Connector()
		fb := c.Frozen()
		cl := c.Class()
		guarantee := "none"
		switch {
		case cl.Chordal62:
			guarantee = "optimal-steiner (Theorem 5)"
		case cl.AlphaV1():
			guarantee = "v2-minimal (Theorem 3)"
		}
		// Only a non-default provenance travels the wire: live compiles
		// stay implicit so the field flags snapshot-booted epochs.
		if source == core.SourceCompiled {
			source = ""
		}
		resp.Schemes = append(resp.Schemes, SchemeInfo{
			Name:    name,
			Epoch:   epoch,
			Source:  source,
			V1Nodes: len(fb.V1()),
			V2Nodes: len(fb.V2()),
			Arcs:    fb.M(),
			Class: ClassBody{
				Chordal41:   cl.Chordal41,
				Chordal62:   cl.Chordal62,
				Chordal61:   cl.Chordal61,
				V1Chordal:   cl.V1Chordal,
				V1Conformal: cl.V1Conformal,
				V2Chordal:   cl.V2Chordal,
				V2Conformal: cl.V2Conformal,
			},
			Guarantee: guarantee,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Schemes: map[string]SchemeStats{}}
	for _, name := range h.reg.Names() {
		svc, epoch, ok := h.reg.Lookup(name)
		if !ok {
			continue
		}
		st := svc.Stats()
		resp.Schemes[name] = SchemeStats{
			Epoch:        epoch,
			Hits:         st.Hits,
			Misses:       st.Misses,
			Evictions:    st.Evictions,
			Bypasses:     st.Bypasses,
			Removals:     st.Removals,
			WarmFills:    st.WarmFills,
			Entries:      st.Entries,
			Shards:       st.Shards,
			Capacity:     st.Capacity,
			ShardEntries: st.ShardEntries,
			CostAdded:    st.CostAddedNanos,
			CostEvicted:  st.CostEvictedNanos,
			CostRemoved:  st.CostRemovedNanos,
			CostResident: st.CostResidentNanos,
			CostSaved:    st.CostSavedNanos,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshotDownload streams the named scheme's compiled epoch in the
// internal/snapshot binary format: what a client PUTs back (here or to
// another server) boots with zero recompilation. The epoch header
// attributes the bytes to the compile that produced them. With
// ?warmup=1 the file also carries the scheme's current settled answer
// cache as the optional warmup section, so the process booting from it
// starts with those answers resident (first queries are cache hits).
func (h *Handler) handleSnapshotDownload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	svc, epoch, ok := h.reg.Lookup(name)
	if !ok {
		writeQueryError(w, fmt.Errorf("%w: %q", core.ErrUnknownScheme, name))
		return
	}
	save := svc.SaveSnapshot
	if r.URL.Query().Get("warmup") == "1" {
		save = svc.SaveWarmSnapshot
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set("X-Scheme-Epoch", strconv.FormatUint(epoch, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleSchemeUpload installs (or replaces) a scheme from the request
// body: a snapshot (sniffed by magic) revives with zero rework, anything
// else is parsed as the graphio bipartite text format and compiled live.
// Either way the swap is atomic — in-flight queries on the old epoch
// finish cleanly.
func (h *Handler) handleSchemeUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.maxSnapshot))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("scheme upload exceeds %d bytes", h.maxSnapshot))
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, "reading body: "+err.Error())
		return
	}
	if len(data) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"empty body (want a snapshot or a bipartite scheme in text form)")
		return
	}
	// Build the Service first, install with Registry.Swap second: the swap
	// returns this install's own epoch, so concurrent admin calls racing on
	// the same name can never misattribute the response (a readback via
	// Epoch/Source could observe a later install).
	start := time.Now()
	var svc *core.Service
	var source, kind string
	if snapshot.IsSnapshot(data) {
		snap, err := snapshot.Decode(data)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, CodeBadSnapshot, err.Error())
			return
		}
		svc = core.OpenSnapshot(snap, h.schemeOpts...)
		source = core.SourceSnapshot(snap.Version)
		kind = "snapshot"
	} else {
		b, err := graphio.ReadBipartite(bytes.NewReader(data))
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, CodeBadScheme, err.Error())
			return
		}
		svc = core.Open(b, h.schemeOpts...)
		source = core.SourceCompiled
		kind = "compiled"
	}
	epoch := h.reg.Swap(name, svc, source)
	h.swaps.Inc()
	h.met.Histogram(MetricInstallDuration,
		"Time to decode/compile and atomically install an uploaded scheme.",
		metrics.DefLatencyBounds(), metrics.L("source", kind)).
		ObserveDuration(time.Since(start))
	writeJSON(w, http.StatusOK, UploadResponse{
		Scheme: name,
		Epoch:  epoch,
		Source: source,
	})
}

// handleSchemeDelete drops the named scheme: 404 when unknown, otherwise
// the catalog entry is gone for new lookups while queries already holding
// the old epoch finish cleanly (copy-on-write Registry semantics).
func (h *Handler) handleSchemeDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !h.reg.Drop(name) {
		writeQueryError(w, fmt.Errorf("%w: %q", core.ErrUnknownScheme, name))
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Scheme: name, Dropped: true})
}

// answerOf renders a solved Connection for the wire. Slices are always
// non-nil so clients (and golden files) see [] rather than null. Labels
// come off the frozen view, keeping the render path thaw-free.
func answerOf(svc *core.Service, conn core.Connection) Answer {
	g := svc.Connector().Frozen().G()
	edges := make([][2]int, len(conn.Tree.Edges))
	for i, e := range conn.Tree.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	return Answer{
		Method:          conn.Method.String(),
		Optimal:         conn.Optimal,
		V2Optimal:       conn.V2Optimal,
		Rationale:       conn.Rationale,
		Nodes:           nonNilInts(conn.Tree.Nodes),
		Labels:          g.Labels(conn.Tree.Nodes),
		Edges:           edges,
		Interpretations: interpBodies(svc, conn.Interps),
	}
}

// interpBodies renders ranked interpretations; nil in, nil out (the field
// is omitempty — absence means "not requested").
func interpBodies(svc *core.Service, interps []core.Interpretation) []InterpretationBody {
	if interps == nil {
		return nil
	}
	g := svc.Connector().Frozen().G()
	out := make([]InterpretationBody, len(interps))
	for i, ip := range interps {
		out[i] = InterpretationBody{
			Nodes:     nonNilInts(ip.Nodes),
			Labels:    g.Labels(ip.Nodes),
			Auxiliary: nonNilInts(ip.Auxiliary),
		}
	}
	return out
}

// nonNilInts copies s so JSON renders [] for empty and the response does
// not alias solver-owned memory.
func nonNilInts(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// decode parses the single-JSON-object request body with unknown fields
// rejected and the configured size cap applied; on failure it writes the
// error response and returns false.
func (h *Handler) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dsp := trace.FromContext(r.Context()).StartSpan("decode")
	r.Body = http.MaxBytesReader(w, r.Body, h.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		dsp.End()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", h.maxBody))
			return false
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	if dec.More() {
		dsp.End()
		writeError(w, http.StatusBadRequest, CodeBadRequest, "trailing data after JSON body")
		return false
	}
	dsp.End()
	return true
}

// writeQueryError maps a typed query error to its HTTP response.
func writeQueryError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	writeError(w, status, code, err.Error())
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeErrorBody(w, &ErrorBody{Status: status, Code: code, Message: msg})
}

func writeErrorBody(w http.ResponseWriter, eb *ErrorBody) {
	writeJSON(w, eb.Status, eb)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding a value built from already-valid data cannot fail except on
	// a broken connection, which has no useful recovery.
	_ = enc.Encode(v)
}
