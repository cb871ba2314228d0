package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/httpd"
	"repro/internal/steiner"
)

// verify checks one response body against the scheme's oracle: an
// independent Connector compiled from the same graph. It returns the
// answer methods the body carries (connect and batch ops), so the caller
// can tally method shares.
func verify(ctx context.Context, cat *catalog, o *op, body []byte) ([]core.Method, error) {
	s := cat.schemes[o.scheme]
	switch o.kind {
	case kindConnect:
		var r httpd.ConnectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Scheme != s.name {
			return nil, fmt.Errorf("answered by scheme %q, asked %q", r.Scheme, s.name)
		}
		m, err := checkAnswer(ctx, s, o.terms, &r.Answer)
		return []core.Method{m}, err
	case kindBatch:
		var r httpd.BatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Scheme != s.name || r.Failed != 0 || len(r.Results) != len(o.batch) {
			return nil, fmt.Errorf("batch on %q: %d results, %d failed, want %d on %q",
				r.Scheme, len(r.Results), r.Failed, len(o.batch), s.name)
		}
		methods := make([]core.Method, len(o.batch))
		for i, item := range r.Results {
			if item.Answer == nil || !slices.Equal(item.Terminals, o.batch[i]) {
				return nil, fmt.Errorf("batch item %d: no answer for %v", i, o.batch[i])
			}
			m, err := checkAnswer(ctx, s, o.batch[i], item.Answer)
			if err != nil {
				return nil, fmt.Errorf("batch item %d: %w", i, err)
			}
			methods[i] = m
		}
		return methods, nil
	case kindInterp:
		var r httpd.InterpretationsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		want, err := s.oracle.Interpretations(ctx, o.terms, o.maxAux, o.limit)
		if err != nil {
			return nil, err
		}
		if r.Scheme != s.name || len(r.Interpretations) != len(want) {
			return nil, fmt.Errorf("interpretations of %v: %d on %q, oracle has %d", o.terms, len(r.Interpretations), r.Scheme, len(want))
		}
		for i, ip := range r.Interpretations {
			if !slices.Equal(ip.Nodes, want[i].Nodes) || !slices.Equal(ip.Auxiliary, want[i].Auxiliary) {
				return nil, fmt.Errorf("interpretation %d of %v differs from the oracle's", i, o.terms)
			}
		}
		return nil, nil
	}
	return nil, fmt.Errorf("unknown op kind %d", o.kind)
}

// checkAnswer compares a wire answer with the oracle's on nodes, edges,
// method and guarantee flags, and validates the wire tree as a connection
// of the terminals in the scheme.
func checkAnswer(ctx context.Context, s *scheme, terms []int, a *httpd.Answer) (core.Method, error) {
	want, err := s.oracle.Connect(ctx, terms)
	if err != nil {
		return 0, fmt.Errorf("oracle on %v: %w", terms, err)
	}
	edges := make([]graph.Edge, len(a.Edges))
	for i, e := range a.Edges {
		edges[i] = graph.Edge{U: e[0], V: e[1]}
	}
	switch {
	case a.Method != want.Method.String():
		return 0, fmt.Errorf("%v: method %s, oracle %s", terms, a.Method, want.Method)
	case a.Optimal != want.Optimal || a.V2Optimal != want.V2Optimal:
		return 0, fmt.Errorf("%v: flags optimal=%v v2_optimal=%v, oracle %v %v", terms, a.Optimal, a.V2Optimal, want.Optimal, want.V2Optimal)
	case !slices.Equal(a.Nodes, []int(want.Tree.Nodes)) || !slices.Equal(edges, want.Tree.Edges):
		return 0, fmt.Errorf("%v: tree differs from the oracle's", terms)
	}
	tree := steiner.Tree{Nodes: a.Nodes, Edges: edges}
	if err := tree.ValidateFrozen(s.oracle.Frozen().G(), terms); err != nil {
		return 0, fmt.Errorf("%v: %w", terms, err)
	}
	return want.Method, nil
}
