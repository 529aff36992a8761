package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bandana/internal/core"
	"bandana/internal/server"
)

// wireNode is a node serving both HTTP (counted) and bwp.
type wireNode struct {
	*countingNode
	wireAddr string
}

func newWireNode(t *testing.T, store *core.Store) *wireNode {
	t.Helper()
	n := &wireNode{countingNode: &countingNode{}}
	srv := server.New(store)
	inner := srv.Handler()
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			n.batches.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(n.srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeWire(ln)
	n.wireAddr = ln.Addr().String()
	return n
}

// TestRouterSpeaksWireToNodes routes a mixed batch across a bwp-enabled
// node and an HTTP-only node: vectors must be bit-identical to direct store
// lookups on both paths, the wire node must see no HTTP batch traffic, and
// the router stats must attribute the traffic to the right transport.
func TestRouterSpeaksWireToNodes(t *testing.T) {
	storeA := buildClusterStore(t, 41)
	storeB := buildClusterStore(t, 41) // same seed: same vectors on both
	nodeA := newWireNode(t, storeA)
	nodeB := newCountingNode(t, storeB, 0)

	cfg := &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "node-a", Addr: nodeA.srv.URL, WireAddr: nodeA.wireAddr, Role: RolePrimary},
			{ID: "node-b", Addr: nodeB.srv.URL, Role: RolePrimary},
		},
	}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	ids := make([]uint32, 0, 120)
	for id := uint32(0); id < 2048; id += 17 {
		ids = append(ids, id)
	}
	resp := postRouterBatch(t, routerSrv.URL, "t0", ids)
	if len(resp.Errors) != 0 {
		t.Fatalf("healthy cluster returned errors: %+v", resp.Errors)
	}
	for i, id := range ids {
		want, err := storeA.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Vectors[i]) != len(want) {
			t.Fatalf("id %d: missing vector", id)
		}
		for k := range want {
			if math.Float32bits(resp.Vectors[i][k]) != math.Float32bits(want[k]) {
				t.Fatalf("id %d[%d]: routed vector %v differs from store's %v", id, k, resp.Vectors[i][k], want[k])
			}
		}
	}
	// The wire node's HTTP batch endpoint must have stayed quiet; the
	// HTTP-only node must have served its share over JSON.
	if got := nodeA.batches.Load(); got != 0 {
		t.Fatalf("bwp-enabled node received %d HTTP batches", got)
	}
	if nodeB.batches.Load() == 0 {
		t.Fatal("HTTP-only node received no traffic")
	}

	var stats RouterStats
	sresp, err := http.Get(routerSrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, ns := range stats.Nodes {
		switch ns.ID {
		case "node-a":
			if ns.WireAddr == "" || ns.WireRequests == 0 || ns.WireFallbacks != 0 {
				t.Fatalf("wire node stats wrong: %+v", ns)
			}
		case "node-b":
			if ns.WireRequests != 0 {
				t.Fatalf("HTTP-only node credited with wire requests: %+v", ns)
			}
		}
	}

	// A node-side rejection over bwp keeps client-error semantics: 404, no
	// failover, no node error counters.
	r404, err := http.Get(routerSrv.URL + "/v1/lookup?table=no-such-table&id=1")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table over bwp: status %d, want 404", r404.StatusCode)
	}
}

// TestRouterFallsBackToHTTPWhenWireDies points a node's wireAddr at a dead
// port: every batch must still succeed over HTTP, with the fallback counter
// moving — nodes not (or no longer) speaking bwp degrade transparently: the
// fallback feeds the same edge encoder, so its body is the wire path's.
func TestRouterFallsBackToHTTPWhenWireDies(t *testing.T) {
	storeA := buildClusterStore(t, 43)
	nodeA := newCountingNode(t, storeA, 0)

	// A port that was listening a moment ago and now refuses: the network
	// shape of a wire listener that died (or was never enabled).
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	cfg := &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "node-a", Addr: nodeA.srv.URL, WireAddr: deadAddr, Role: RolePrimary},
		},
	}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1, NodeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	resp := postRouterBatch(t, routerSrv.URL, "t0", []uint32{1, 2, 3})
	if len(resp.Errors) != 0 {
		t.Fatalf("fallback batch returned errors: %+v", resp.Errors)
	}
	if nodeA.batches.Load() == 0 {
		t.Fatal("HTTP endpoint never received the fallback")
	}
	var stats RouterStats
	sresp, err := http.Get(routerSrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes[0].WireFallbacks == 0 {
		t.Fatalf("fallback counter did not move: %+v", stats.Nodes[0])
	}

	// The same store behind a live bwp listener, through a second router.
	live := newWireNode(t, storeA)
	wireRT, err := NewRouter(&Config{
		IDRangeSize: 64,
		Nodes:       []Node{{ID: "node-a", Addr: live.srv.URL, WireAddr: live.wireAddr, Role: RolePrimary}},
	}, RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	wireSrv := httptest.NewServer(wireRT.Handler())
	defer wireSrv.Close()
	ids := []uint32{1, 2, 3, 900, 64, 2047}
	_, overHTTP := rawRouterBatch(t, routerSrv.URL, "t0", ids)
	_, overWire := rawRouterBatch(t, wireSrv.URL, "t0", ids)
	if live.batches.Load() != 0 {
		t.Fatal("the live wire node was asked over HTTP")
	}
	if len(overWire) < 64*len(ids) || !bytes.Equal(overHTTP, overWire) {
		t.Fatalf("fallback body differs from the wire path's\nhttp: %.200s\nwire: %.200s", overHTTP, overWire)
	}
}
