package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"bandana/internal/core"
	"bandana/internal/metrics"
	"bandana/internal/table"
	"bandana/internal/wire"
)

// The tests in this file pin the router's JSON edge: vectors cross the router
// as the fp16 bytes the node sent and become text through fp16.AppendJSON,
// and the bodies must stay what encoding/json wrote for the decoded floats.

// rawRouterGet and rawRouterBatch return the status and the exact body.
func rawRouterGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func rawRouterBatch(t *testing.T, routerURL, tbl string, ids []uint32) (int, []byte) {
	t.Helper()
	req, _ := json.Marshal(BatchRequest{Table: tbl, IDs: ids})
	resp, err := http.Post(routerURL+"/v1/batch", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); resp.StatusCode == http.StatusOK && cl == "" {
		t.Fatalf("batch response carries no Content-Length (body %d bytes)", len(body))
	}
	return resp.StatusCode, body
}

// memStore is a one-table mem-backend store whose cache holds the table.
func memStore(t *testing.T, name string, vectors int) *core.Store {
	t.Helper()
	g := table.Generate(name, table.GenerateOptions{NumVectors: vectors, Dim: 64, NumClusters: 32, Seed: 5})
	s, err := core.Open(core.Config{Tables: []*table.Table{g.Table}, DRAMBudgetVectors: vectors, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRouterBatchBodyIsEncodingJSON pins compatibility: with one owner dead
// (nulls and a sorted errors array) and a table name encoding/json escapes,
// the body is byte for byte json.NewEncoder over a BatchResponse holding the
// store's decoded floats.
func TestRouterBatchBodyIsEncodingJSON(t *testing.T) {
	const tbl = "a<b"
	store := memStore(t, tbl, 2048)
	live := newWireNode(t, store)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	cfg := &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "node-a", Addr: live.srv.URL, WireAddr: live.wireAddr, Role: RolePrimary},
			{ID: "node-b", Addr: dead.URL, Role: RolePrimary},
		},
	}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	// Descending ids: the dead node's errors arrive grouped, not in order.
	ids := make([]uint32, 0, 128)
	for id := 2040; id >= 0; id -= 17 {
		ids = append(ids, uint32(id))
	}
	status, body := rawRouterBatch(t, routerSrv.URL, tbl, ids)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}

	// The error texts are the transport's; everything else is rebuilt from
	// the store and the membership.
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("body does not parse: %v\n%s", err, body)
	}
	want := BatchResponse{Table: tbl, Vectors: make([][]float32, len(ids))}
	for i, id := range ids {
		owner, err := cfg.Owner(tbl, id)
		if err != nil {
			t.Fatal(err)
		}
		if owner == "node-a" {
			if want.Vectors[i], err = store.Lookup(0, id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want.Errors = append(want.Errors, IDError{Index: i, ID: id, Node: "node-b"})
	}
	if len(want.Errors) == 0 || len(want.Errors) == len(ids) {
		t.Fatalf("%d of %d ids on the dead node: the batch must mix served and failed ids", len(want.Errors), len(ids))
	}
	if len(got.Errors) != len(want.Errors) {
		t.Fatalf("%d per-id errors, want %d", len(got.Errors), len(want.Errors))
	}
	for i := range want.Errors {
		if got.Errors[i].Error == "" {
			t.Fatalf("error %d has no text: %+v", i, got.Errors[i])
		}
		want.Errors[i].Error = got.Errors[i].Error
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Fatalf("router body differs from encoding/json's\n got: %.300s\nwant: %.300s", body, buf.Bytes())
	}
	if !bytes.Contains(body, []byte(`{"table":"a\u003cb",`)) {
		t.Fatalf("table name not escaped as encoding/json escapes it: %.60s", body)
	}

	// /v1/lookup, same rule.
	served := 0
	for want.Vectors[served] == nil {
		served++
	}
	id, vec := ids[served], want.Vectors[served]
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(LookupResponse{Table: tbl, ID: id, Vector: vec, Node: "node-a"}); err != nil {
		t.Fatal(err)
	}
	status, body = rawRouterGet(t, routerSrv.URL+"/v1/lookup?table=a%3Cb&id="+strconv.Itoa(int(id)))
	if status != http.StatusOK || !bytes.Equal(body, buf.Bytes()) {
		t.Fatalf("lookup: status %d\n got: %.200s\nwant: %.200s", status, body, buf.Bytes())
	}
}

// TestRouterNonFiniteVectorIsAPerIDError: JSON has no NaN or infinity. A
// stored vector holding one used to turn the whole batch into a 200 with an
// empty body; it is that id's error now and the other ids are served.
func TestRouterNonFiniteVectorIsAPerIDError(t *testing.T) {
	store := memStore(t, "t0", 256)
	const infID, nanID = 7, 130
	for id, bits := range map[uint32]uint16{infID: 0x7C00, nanID: 0x7E00} {
		raw, err := store.LookupBatchRaw(0, []uint32{id})
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), raw[0]...)
		bad[10], bad[11] = byte(bits), byte(bits>>8)
		if err := store.UpdateVectorRaw(0, id, bad); err != nil {
			t.Fatal(err)
		}
	}
	node := newWireNode(t, store)
	cfg := &Config{IDRangeSize: 64, Nodes: []Node{
		{ID: "node-a", Addr: node.srv.URL, WireAddr: node.wireAddr, Role: RolePrimary},
	}}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	ids := []uint32{nanID, 1, infID, 2, 200}
	status, body := rawRouterBatch(t, routerSrv.URL, "t0", ids)
	if status != http.StatusOK || len(body) == 0 {
		t.Fatalf("status %d, %d body bytes", status, len(body))
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("body does not parse: %v\n%s", err, body)
	}
	wantErrs := []IDError{
		{Index: 0, ID: nanID, Node: "node-a", Error: errNonFinite},
		{Index: 2, ID: infID, Node: "node-a", Error: errNonFinite},
	}
	if len(resp.Errors) != 2 || resp.Errors[0] != wantErrs[0] || resp.Errors[1] != wantErrs[1] {
		t.Fatalf("errors = %+v, want %+v", resp.Errors, wantErrs)
	}
	for i, id := range ids {
		if bad := id == infID || id == nanID; bad != (resp.Vectors[i] == nil) {
			t.Fatalf("id %d: vector %v", id, resp.Vectors[i])
		}
	}

	for _, id := range []uint32{infID, nanID} {
		status, body := rawRouterGet(t, routerSrv.URL+"/v1/lookup?table=t0&id="+strconv.Itoa(int(id)))
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || status != http.StatusInternalServerError || !strings.Contains(e.Error, errNonFinite) {
			t.Fatalf("lookup of id %d: status %d body %q, want a 500 naming the non-finite value", id, status, body)
		}
	}
	if status, _ := rawRouterGet(t, routerSrv.URL+"/v1/lookup?table=t0&id=1"); status != http.StatusOK {
		t.Fatalf("finite lookup after the failed ones: status %d", status)
	}
}

// raceEnabled is set by race_test.go in a -race build, whose runtime drops a
// share of sync.Pool puts on purpose: an allocation gate over a pooled
// buffer cannot hold under it.
var raceEnabled bool

// discardWriter is the cheapest http.ResponseWriter: the alloc gate measures
// the router, not net/http.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestRouterBatchAllocsFlatInVectors is the router's allocation gate: a
// batch's gather and write allocate per batch and per owner (the scatter
// arrays, the goroutine and its hedging state, the headers) and nothing per
// vector — the body is rendered into a pooled buffer straight from the
// node's response frame. The node runs in this process, so its share (and
// the bwp client's) is measured through a direct bwp call and subtracted:
// core's small-batch path ends below 64 ids, which is not the router's
// doing. CI's alloc-gate step runs this without -race.
func TestRouterBatchAllocsFlatInVectors(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	store := memStore(t, "t0", 1024)
	node := newWireNode(t, store)
	cfg := &Config{IDRangeSize: 64, Nodes: []Node{
		{ID: "node-a", Addr: node.srv.URL, WireAddr: node.wireAddr, Role: RolePrimary},
	}}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := wire.Dial(node.wireAddr, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	st := rt.state.Load()
	w := &discardWriter{h: make(http.Header)}
	ctx := context.Background()
	measure := func(n int) float64 {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(i * 2)
		}
		routed := func() {
			vecs, errs := rt.gatherBatch(ctx, st, "t0", ids)
			if len(errs) != 0 || len(vecs[n-1]) != 128 {
				t.Fatalf("gather: %d errors, last vector %d bytes", len(errs), len(vecs[n-1]))
			}
			writeBatch(w, st, "t0", ids, vecs, errs)
		}
		nodeOnly := func() {
			if _, _, err := direct.LookupBatchRaw(ctx, "t0", ids); err != nil {
				t.Fatal(err)
			}
		}
		// After two batches the cache holds the ids, the pooled body has
		// grown to size and the fp16 text table is built.
		routed()
		routed()
		nodeOnly()
		total, fetch := testing.AllocsPerRun(50, routed), testing.AllocsPerRun(50, nodeOnly)
		t.Logf("%d ids: %.0f allocs per routed batch, %.0f of them the bwp round trip", n, total, fetch)
		return total - fetch
	}
	small, large := measure(8), measure(512)
	if large > small+2 || small > large+2 {
		t.Fatalf("the router allocates %.0f times for 8 ids and %.0f for 512: allocations grow with the vectors", small, large)
	}
}

// TestRouterMetricsExposition scrapes the router's /metrics after a batch:
// the text must validate, and the two stage series (and their /v1/stats
// twins) must have observed the batch.
func TestRouterMetricsExposition(t *testing.T) {
	store := memStore(t, "t0", 256)
	node := newWireNode(t, store)
	cfg := &Config{IDRangeSize: 64, Nodes: []Node{
		{ID: "node-a", Addr: node.srv.URL, WireAddr: node.wireAddr, Role: RolePrimary},
	}}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()
	postRouterBatch(t, routerSrv.URL, "t0", []uint32{1, 2, 3})
	postRouterBatch(t, routerSrv.URL, "t0", []uint32{4, 5})

	_, text := rawRouterGet(t, routerSrv.URL+"/metrics")
	if _, err := metrics.ValidateExposition(bytes.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`bandana_router_stage_duration_us_count{stage="gather"} 2` + "\n",
		`bandana_router_stage_duration_us_count{stage="serialize"} 2` + "\n",
		`bandana_router_stage_duration_us{stage="serialize",quantile="0.5"} `,
		`bandana_node_wire_requests_total{node="node-a"} 2` + "\n",
		`bandana_node_wire_fallbacks_total{node="node-a"} 0` + "\n",
		// One open connection to the node: its 12 KiB read buffer.
		`bandana_wire_buffer_bytes 12288` + "\n",
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
	stats := getRouterStats(t, routerSrv.URL)
	if g, s := stats.Router.Stages.Gather, stats.Router.Stages.Serialize; g.Count != 2 || s.Count != 2 || g.Mean <= 0 || s.Mean <= 0 {
		t.Fatalf("router.stagesUS after two batches: gather %+v serialize %+v", g, s)
	}
}

// TestRouterStatsProbesNodes: the router's /v1/stats reads each node's
// health, lookups, hit ratio, read-only flag and snapshot seq from the
// node's own /v1/stats (the JSON view of its registry), and marks a node it
// cannot reach not alive.
func TestRouterStatsProbesNodes(t *testing.T) {
	primary := buildClusterStore(t, 13)
	nodeA := newCountingNode(t, primary, 0)
	_, replicaStore := bootstrapReplica(t, nodeA.srv.URL)
	defer replicaStore.Close()
	nodeB := newCountingNode(t, replicaStore, 0)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cfg := &Config{IDRangeSize: 64, Nodes: []Node{
		{ID: "node-a", Addr: nodeA.srv.URL, Role: RolePrimary},
		{ID: "node-b", Addr: nodeB.srv.URL, Role: RoleReplica, ReplicaOf: "node-a"},
		{ID: "node-c", Addr: dead.URL, Role: RoleReplica, ReplicaOf: "node-a"},
	}}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()
	postRouterBatch(t, routerSrv.URL, "t0", []uint32{1, 2, 3, 100, 900})
	postRouterBatch(t, routerSrv.URL, "t0", []uint32{1, 2, 7})

	stats := getRouterStats(t, routerSrv.URL)
	for _, n := range stats.Nodes {
		var store *core.Store
		switch n.ID {
		case "node-a":
			store = primary
		case "node-b":
			store = replicaStore
		default:
			if n.Alive || n.ProbeError == "" {
				t.Errorf("%s is down, yet probes alive=%v, error %q", n.ID, n.Alive, n.ProbeError)
			}
			continue
		}
		var lookups, hits int64
		for _, ts := range store.Stats() {
			lookups, hits = lookups+ts.Lookups, hits+ts.Hits
		}
		var hitRate float64
		if lookups > 0 {
			hitRate = float64(hits) / float64(lookups)
		}
		if !n.Alive || n.ProbeError != "" || n.Lookups != lookups || n.HitRate != hitRate ||
			n.ReadOnly != store.ReadOnly() || n.SnapshotSeq != store.SnapshotSeq() {
			t.Errorf("%s probes %+v, want alive with %d lookups, hit rate %v, read-only %v, seq %d",
				n.ID, n, lookups, hitRate, store.ReadOnly(), store.SnapshotSeq())
		}
	}
	if stats.Nodes[0].Lookups == 0 || !stats.Nodes[1].ReadOnly {
		t.Fatalf("the probe saw no traffic on the primary or no replica: %+v", stats.Nodes)
	}
}
