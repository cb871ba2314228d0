package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/reference"
	"repro/internal/steiner"
)

// TestRandomizedEquivalence is the property harness of this package: over
// ≥200 random schemes spanning the taxonomy (trees, complete bipartite,
// α-acyclic incidence graphs, unconstrained random graphs — acyclic and
// cyclic alike), every wire answer must be bit-for-bit the answer of
//
//	(1) the cached frozen Service the handler actually calls, and
//	(2) an independent uncached frozen Connector,
//
// and (3) it must meet the guarantee its flags claim, checked against the
// brute-force oracles of internal/reference. Every wire failure must carry
// exactly the status/code the in-process typed error maps to. Any
// divergence is a silent-corruption bug at the network boundary.
func TestRandomizedEquivalence(t *testing.T) {
	const schemeCount = 200
	r := rand.New(rand.NewSource(1985))
	reg := core.NewRegistry()
	ts := httptest.NewServer(New(reg, WithMaxInFlight(0)))
	defer ts.Close()

	for i := 0; i < schemeCount; i++ {
		b := randomScheme(r, i)
		if b.N() == 0 {
			continue
		}
		name := fmt.Sprintf("s%d", i)
		svc := reg.Set(name, b)
		fresh := core.New(b) // recompiled independently, no cache

		for q := 0; q < 4; q++ {
			terms := randomTerminals(r, b.N())
			req := ConnectRequest{Scheme: name, Terminals: terms}
			switch q {
			case 1:
				req.Method = "heuristic"
			case 2:
				req.CacheBypass = true
			case 3:
				req.ExactLimit = 1 + r.Intn(6)
			}
			assertEquivalent(t, ts, b, svc, fresh, req)
		}

		// Error taxonomy parity on queries that must fail validation.
		for _, terms := range [][]int{{}, {0, 0}, {b.N() + 7}, {-1}} {
			assertEquivalent(t, ts, b, svc, fresh, ConnectRequest{Scheme: name, Terminals: terms})
		}

		if !reg.Drop(name) {
			t.Fatalf("scheme %s vanished", name)
		}
	}
}

// randomScheme rotates through scheme families so every dispatch arm —
// Algorithm 2, Algorithm 1, exact, heuristic — and the disconnected case
// come up across the sweep.
func randomScheme(r *rand.Rand, i int) *bipartite.Graph {
	switch i % 4 {
	case 0:
		// Cyclic, connected: exact/heuristic territory.
		return gen.RandomConnectedBipartite(r, 3+r.Intn(5), 2+r.Intn(4), 0.2+0.4*r.Float64())
	case 1:
		// α-acyclic H¹ incidence graphs: Algorithm 1 territory; may be
		// disconnected, exercising ErrDisconnectedTerminals parity.
		return bipartite.FromHypergraph(gen.AlphaAcyclic(r, 3+r.Intn(4), 2, 2)).B
	case 2:
		// Trees are (6,2)-chordal: Algorithm 2 with full guarantees.
		return gen.RandomTree(r, 4+r.Intn(9))
	default:
		// Complete bipartite: (6,2)-chordal with dense adjacency.
		return gen.CompleteBipartite(2+r.Intn(3), 2+r.Intn(3))
	}
}

// randomTerminals picks 1–4 distinct node ids (either side).
func randomTerminals(r *rand.Rand, n int) []int {
	k := 1 + r.Intn(4)
	if k > n {
		k = n
	}
	return r.Perm(n)[:k]
}

// queryOpts mirrors the wire fields of req as in-process query options.
func queryOpts(req ConnectRequest) []core.QueryOption {
	var opts []core.QueryOption
	if req.Method != "" {
		m, ok := parseMethod(req.Method)
		if !ok {
			panic("test built an invalid method")
		}
		opts = append(opts, core.WithMethod(m))
	}
	if req.ExactLimit > 0 {
		opts = append(opts, core.WithQueryExactLimit(req.ExactLimit))
	}
	if req.CacheBypass {
		opts = append(opts, core.WithCacheBypass())
	}
	return opts
}

// checkGuarantees holds an answer to the paper's theorems through the
// brute-force oracles of internal/reference (the harness's schemes are
// small enough for them): an answer flagged Optimal has the minimum node
// count (Theorem 5, Dreyfus–Wagner), one flagged V2Optimal the minimum
// number of V2 nodes (Theorem 3), and a heuristic answer at most twice
// the minimum. Every tree must be a valid tree over the terminals.
func checkGuarantees(t *testing.T, b *bipartite.Graph, fb *bipartite.Frozen, conn core.Connection, terms []int) {
	t.Helper()
	if err := conn.Tree.ValidateFrozen(fb.G(), terms); err != nil {
		t.Fatalf("%v %s: invalid tree %v: %v", terms, conn.Method, conn.Tree, err)
	}
	nodes := conn.Tree.Nodes.Len()
	if conn.Optimal || conn.Method == core.MethodHeuristic {
		opt := reference.SteinerMinimumNodes(b.G(), terms)
		if conn.Optimal && nodes != opt {
			t.Fatalf("%v %s: flagged optimal with %d nodes, optimum %d", terms, conn.Method, nodes, opt)
		}
		if conn.Method == core.MethodHeuristic && nodes > 2*opt {
			t.Fatalf("%v heuristic: %d nodes, over twice the optimum %d", terms, nodes, opt)
		}
	}
	if conn.V2Optimal {
		if got, want := steiner.V2Count(b, conn.Tree), reference.MinimumV2Count(b, terms); got != want {
			t.Fatalf("%v %s: flagged V2-optimal with %d V2 nodes, optimum %d", terms, conn.Method, got, want)
		}
	}
}

func assertEquivalent(t *testing.T, ts *httptest.Server, b *bipartite.Graph, svc *core.Service, fresh *core.Connector, req ConnectRequest) {
	t.Helper()
	ctx := context.Background()
	opts := queryOpts(req)
	wantConn, wantErr := fresh.Connect(ctx, req.Terminals, opts...)
	svcConn, svcErr := svc.Connect(ctx, req.Terminals, opts...)

	// Frozen paths agree with each other (cached or not).
	if (wantErr == nil) != (svcErr == nil) {
		t.Fatalf("%s %v: connector err %v, service err %v", req.Scheme, req.Terminals, wantErr, svcErr)
	}
	if wantErr == nil && !sameConnection(wantConn, svcConn) {
		t.Fatalf("%s %v: connector %v != service %v", req.Scheme, req.Terminals, wantConn.Tree, svcConn.Tree)
	}

	// The wire answer.
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/connect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if wantErr != nil {
		wantStatus, wantCode := errorStatus(wantErr)
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s %v: error body: %v", req.Scheme, req.Terminals, err)
		}
		if resp.StatusCode != wantStatus || eb.Code != wantCode {
			t.Fatalf("%s %v: wire %d/%s, in-process %d/%s (%v)",
				req.Scheme, req.Terminals, resp.StatusCode, eb.Code, wantStatus, wantCode, wantErr)
		}
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %v: wire status %d but in-process answered", req.Scheme, req.Terminals, resp.StatusCode)
	}
	var wire ConnectResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Method != wantConn.Method.String() ||
		wire.Optimal != wantConn.Optimal || wire.V2Optimal != wantConn.V2Optimal {
		t.Fatalf("%s %v: wire %s/%v/%v, in-process %s/%v/%v", req.Scheme, req.Terminals,
			wire.Method, wire.Optimal, wire.V2Optimal,
			wantConn.Method, wantConn.Optimal, wantConn.V2Optimal)
	}
	if !sameTreeWire(wire.Answer, wantConn.Tree) {
		t.Fatalf("%s %v: wire tree %v/%v != in-process %v",
			req.Scheme, req.Terminals, wire.Nodes, wire.Edges, wantConn.Tree)
	}

	checkGuarantees(t, b, fresh.Frozen(), wantConn, req.Terminals)
}

// sameConnection compares two in-process answers bit for bit.
func sameConnection(a, b core.Connection) bool {
	if a.Method != b.Method || a.Optimal != b.Optimal || a.V2Optimal != b.V2Optimal {
		return false
	}
	if !a.Tree.Nodes.Equal(b.Tree.Nodes) || len(a.Tree.Edges) != len(b.Tree.Edges) {
		return false
	}
	for i := range a.Tree.Edges {
		if a.Tree.Edges[i] != b.Tree.Edges[i] {
			return false
		}
	}
	return true
}

// sameTreeWire compares a wire answer against an in-process tree bit for
// bit: same node sequence, same edge sequence.
func sameTreeWire(a Answer, tr steiner.Tree) bool {
	if len(a.Nodes) != tr.Nodes.Len() || len(a.Edges) != len(tr.Edges) {
		return false
	}
	for i, v := range tr.Nodes {
		if a.Nodes[i] != v {
			return false
		}
	}
	for i, e := range tr.Edges {
		if a.Edges[i] != [2]int{e.U, e.V} {
			return false
		}
	}
	return true
}

// TestBatchEquivalence drives /v1/batch against ConnectBatch on a few
// random schemes: same order, same answers, same per-query errors.
func TestBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	reg := core.NewRegistry()
	ts := httptest.NewServer(New(reg))
	defer ts.Close()

	for i := 0; i < 20; i++ {
		b := randomScheme(r, i)
		if b.N() == 0 {
			continue
		}
		name := fmt.Sprintf("b%d", i)
		svc := reg.Set(name, b)
		queries := make([][]int, 6)
		for q := range queries {
			queries[q] = randomTerminals(r, b.N())
		}
		queries = append(queries, []int{}, []int{b.N() + 1}) // error parity

		want := svc.ConnectBatch(context.Background(), queries, core.WithCacheBypass())
		body, _ := json.Marshal(BatchRequest{Scheme: name, Queries: queries, CacheBypass: true})
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var wire BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d err %v", resp.StatusCode, err)
		}
		if len(wire.Results) != len(want) {
			t.Fatalf("batch: %d wire results, want %d", len(wire.Results), len(want))
		}
		for j, w := range want {
			item := wire.Results[j]
			if w.Err != nil {
				wantStatus, wantCode := errorStatus(w.Err)
				if item.Error == nil || item.Error.Code != wantCode || item.Error.Status != wantStatus {
					t.Fatalf("batch %s query %d: wire error %+v, want %d/%s", name, j, item.Error, wantStatus, wantCode)
				}
				continue
			}
			if item.Answer == nil || !sameTreeWire(*item.Answer, w.Conn.Tree) {
				t.Fatalf("batch %s query %d: wire %+v != in-process %v", name, j, item.Answer, w.Conn.Tree)
			}
		}
		reg.Drop(name)
	}
}
