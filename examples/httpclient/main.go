// HTTP client example: boot the chordalctl HTTP surface in-process
// (internal/httpd over a two-scheme Registry), then drive it with plain
// net/http requests exactly as an external consumer would — list the
// schemes, answer minimal-connection queries by label, run a batch,
// read the cache stats, and shut down gracefully.
//
//	go run ./examples/httpclient
//
// Against a standalone server, start `chordalctl -serve :8080 -registry
// library=lib.txt,payroll=pay.txt` and point the same requests at it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	chordal "repro"
	"repro/internal/httpd"
)

// library builds a small conceptual scheme: attributes on V1, relation
// schemes on V2.
func library() *chordal.Bipartite {
	b := chordal.NewBipartite()
	attrs := map[string]int{}
	for _, a := range []string{"reader", "book", "author", "branch"} {
		attrs[a] = b.AddV1(a)
	}
	// A slice, not a map, so node ids and therefore the printed order are
	// the same on every run.
	for _, rel := range []struct {
		name string
		over []string
	}{
		{"borrows", []string{"reader", "book"}},
		{"wrote", []string{"author", "book"}},
		{"holds", []string{"branch", "book"}},
	} {
		r := b.AddV2(rel.name)
		for _, a := range rel.over {
			b.AddEdge(attrs[a], r)
		}
	}
	return b
}

func payroll() *chordal.Bipartite {
	b := chordal.NewBipartite()
	e := b.AddV1("ename")
	f := b.AddV1("floor")
	w := b.AddV2("works")
	b.AddEdge(e, w)
	b.AddEdge(f, w)
	return b
}

func main() {
	// Compile both schemes into a registry and serve it on a loopback port.
	reg := chordal.NewRegistry()
	reg.Set("library", library())
	reg.Set("payroll", payroll())

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- httpd.Serve(ctx, l, httpd.New(reg, httpd.WithMaxInFlight(64)), time.Second)
	}()
	fmt.Println("serving on", base)

	// GET /v1/schemes — what can this server answer?
	var schemes httpd.SchemesResponse
	getJSON(base+"/v1/schemes", &schemes)
	for _, s := range schemes.Schemes {
		fmt.Printf("scheme %q: %d+%d nodes, %d arcs, guarantee: %s\n",
			s.Name, s.V1Nodes, s.V2Nodes, s.Arcs, s.Guarantee)
	}

	// POST /v1/connect — how are reader and author conceptually connected?
	var conn httpd.ConnectResponse
	postJSON(base+"/v1/connect", httpd.ConnectRequest{
		Scheme:    "library",
		Labels:    []string{"reader", "author"},
		TimeoutMS: 2000,
	}, &conn)
	fmt.Printf("reader–author via %s: %v (optimal=%v)\n", conn.Method, conn.Labels, conn.Optimal)

	// The same query with ranked alternative interpretations.
	postJSON(base+"/v1/connect", httpd.ConnectRequest{
		Scheme:          "library",
		Labels:          []string{"reader", "author"},
		Interpretations: &httpd.InterpSpec{MaxAux: 3, Limit: 3},
	}, &conn)
	for i, ip := range conn.Interpretations {
		fmt.Printf("  interpretation %d: %v\n", i+1, ip.Labels)
	}

	// POST /v1/batch — many queries, one round trip, answers in order.
	var batch httpd.BatchResponse
	postJSON(base+"/v1/batch", httpd.BatchRequest{
		Scheme:  "library",
		Queries: [][]int{{0, 1}, {0, 2}, {0, 1}, {99}},
	}, &batch)
	for i, item := range batch.Results {
		if item.Error != nil {
			fmt.Printf("batch %d: %s (%d %s)\n", i+1, item.Error.Message, item.Error.Status, item.Error.Code)
			continue
		}
		fmt.Printf("batch %d: %v\n", i+1, item.Answer.Labels)
	}

	// GET /v1/stats — the duplicate batch query above was a cache hit.
	var stats httpd.StatsResponse
	getJSON(base+"/v1/stats", &stats)
	st := stats.Schemes["library"]
	fmt.Printf("library cache: %d hits, %d misses, %d entries\n", st.Hits, st.Misses, st.Entries)

	// Cancel the serve context: graceful shutdown — outstanding solver work
	// is canceled and already-computed responses flush before the server
	// fully stops.
	stop()
	if err := <-served; err != nil {
		log.Fatal("shutdown:", err)
	}
	fmt.Println("server stopped cleanly")
}

func getJSON(url string, dst any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, dst)
}

func postJSON(url string, body, dst any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, dst)
}

func decode(resp *http.Response, dst any) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s: %s: %s", resp.Request.URL, resp.Status, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatal(err)
	}
}
