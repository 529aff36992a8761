package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bandana/internal/core"
	"bandana/internal/nvm"
	"bandana/internal/server"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// buildClusterStore builds a small two-table store, honouring the
// BANDANA_TEST_BACKEND matrix the rest of the repo's suites use.
func buildClusterStore(t *testing.T, seed int64) *core.Store {
	t.Helper()
	return buildSizedClusterStore(t, seed, 2048)
}

// buildSizedClusterStore is buildClusterStore with a chosen table size (the
// incremental-follow tests need a primary large enough that the transfer-size
// claim is measurable).
func buildSizedClusterStore(t *testing.T, seed int64, vectorsPerTable int) *core.Store {
	t.Helper()
	cfg := core.Config{Tables: clusterTables(seed, vectorsPerTable), DRAMBudgetVectors: 256, Seed: seed}
	switch os.Getenv("BANDANA_TEST_BACKEND") {
	case core.BackendFile:
		cfg.Backend = core.BackendFile
		cfg.DataDir = filepath.Join(t.TempDir(), "store")
	case core.BackendFile + "-direct":
		dir := t.TempDir()
		if !nvm.DirectIOSupported(dir) {
			t.Skipf("skipping: filesystem at %s rejects O_DIRECT", dir)
		}
		cfg.Backend = core.BackendFile
		cfg.DataDir = filepath.Join(dir, "store")
		cfg.Direct = true
	}
	s, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// clusterTables generates the two tables ("t0", "t1", dim 64) every cluster
// test store holds; equal seeds give equal vectors.
func clusterTables(seed int64, vectorsPerTable int) []*table.Table {
	tables := make([]*table.Table, 2)
	for i := range tables {
		name := fmt.Sprintf("t%d", i)
		g := table.Generate(name, table.GenerateOptions{
			NumVectors: vectorsPerTable, Dim: 64, NumClusters: 32, Seed: seed + int64(i),
		})
		tables[i] = g.Table
	}
	return tables
}

// countingNode wraps a node server and counts the /v1/batch requests it
// actually served, so tests can assert where the router sent traffic.
type countingNode struct {
	srv     *httptest.Server
	batches atomic.Int64
}

func newCountingNode(t *testing.T, store *core.Store, delay time.Duration) *countingNode {
	t.Helper()
	n := &countingNode{}
	inner := server.New(store).Handler()
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			n.batches.Add(1)
			if delay > 0 {
				time.Sleep(delay)
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

// bootstrapReplica builds a replica of primaryURL in a temp dir and returns
// the replica plus its opened store.
func bootstrapReplica(t *testing.T, primaryURL string) (*Replica, *core.Store) {
	t.Helper()
	rep, err := NewReplica(ReplicaOptions{
		PrimaryURL:   primaryURL,
		DataDir:      filepath.Join(t.TempDir(), "replica"),
		PollInterval: 25 * time.Millisecond,
		ChunkBytes:   32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := rep.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	return rep, store
}

func postRouterBatch(t *testing.T, routerURL, tbl string, ids []uint32) *BatchResponse {
	t.Helper()
	status, body := rawRouterBatch(t, routerURL, tbl, ids)
	if status != http.StatusOK {
		t.Fatalf("router /v1/batch: status %d: %s", status, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestClusterEndToEnd is the acceptance walk: a primary and a replica
// bootstrapped from its snapshot stream serve byte-identical vectors, and a
// router scatter-gathers one mixed batch across both nodes with no errors.
func TestClusterEndToEnd(t *testing.T) {
	primary := buildClusterStore(t, 7)
	nodeA := newCountingNode(t, primary, 0)

	_, replicaStore := bootstrapReplica(t, nodeA.srv.URL)
	defer replicaStore.Close()

	// Property check: every vector of every table is byte-identical.
	for ti := 0; ti < primary.NumTables(); ti++ {
		for id := uint32(0); id < 2048; id += 17 { // sampled sweep
			want, err := primary.Lookup(ti, id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replicaStore.Lookup(ti, id)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("table %d id %d: dim mismatch", ti, id)
			}
			for k := range want {
				if want[k] != got[k] {
					t.Fatalf("table %d id %d[%d]: %v != %v", ti, id, k, got[k], want[k])
				}
			}
		}
	}
	if !replicaStore.ReadOnly() {
		t.Fatal("replica must serve read-only")
	}

	// Router over both nodes (the replica serves the same image, so it can
	// own partitions as a second primary in routing terms).
	nodeB := newCountingNode(t, replicaStore, 0)
	cfg := &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "node-a", Addr: nodeA.srv.URL, Role: RolePrimary},
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
	aBefore, bBefore := nodeA.batches.Load(), nodeB.batches.Load()
	resp := postRouterBatch(t, routerSrv.URL, "t1", ids)
	if len(resp.Errors) != 0 {
		t.Fatalf("healthy cluster returned errors: %+v", resp.Errors)
	}
	for i, id := range ids {
		want, err := primary.Lookup(1, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Vectors[i]) != len(want) {
			t.Fatalf("id %d: missing vector", id)
		}
		for k := range want {
			if resp.Vectors[i][k] != want[k] {
				t.Fatalf("id %d[%d]: scatter-gathered vector differs", id, k)
			}
		}
	}
	if nodeA.batches.Load() == aBefore || nodeB.batches.Load() == bBefore {
		t.Fatalf("batch was not scattered across both nodes (a: %d->%d, b: %d->%d)",
			aBefore, nodeA.batches.Load(), bBefore, nodeB.batches.Load())
	}
}

// TestRouterNodeLossDegradesToPerIDErrors kills one node and asserts the
// router answers with per-id errors confined to the dead node's partitions.
func TestRouterNodeLossDegradesToPerIDErrors(t *testing.T) {
	primary := buildClusterStore(t, 11)
	nodeA := newCountingNode(t, primary, 0)
	second := buildClusterStore(t, 11)
	nodeB := newCountingNode(t, second, 0)

	cfg := &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "node-a", Addr: nodeA.srv.URL, Role: RolePrimary},
			{ID: "node-b", Addr: nodeB.srv.URL, Role: RolePrimary},
		},
	}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1, NodeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	ids := make([]uint32, 256)
	for i := range ids {
		ids[i] = uint32(i * 8)
	}
	nodeB.srv.Close() // node loss

	resp := postRouterBatch(t, routerSrv.URL, "t0", ids)
	if len(resp.Errors) == 0 {
		t.Fatal("expected per-id errors for the dead node's partitions")
	}
	errIDs := map[uint32]bool{}
	for _, e := range resp.Errors {
		if e.Node != "node-b" {
			t.Fatalf("error attributed to %s, want node-b: %+v", e.Node, e)
		}
		errIDs[e.ID] = true
	}
	for i, id := range ids {
		owner, err := cfg.Owner("t0", id)
		if err != nil {
			t.Fatal(err)
		}
		if dead := owner == "node-b"; dead != errIDs[id] {
			t.Fatalf("id %d (owner %s): error=%v want %v", id, owner, errIDs[id], dead)
		}
		if owner == "node-a" && len(resp.Vectors[i]) == 0 {
			t.Fatalf("id %d owned by the surviving node came back empty", id)
		}
	}
}

// TestRouterPassesThroughClientErrors pins that a node-side 4xx (the
// client's own bad request) keeps its status instead of turning into a 502,
// does not trigger failover, and does not inflate node error counters.
func TestRouterPassesThroughClientErrors(t *testing.T) {
	primary := buildClusterStore(t, 31)
	nodeA := newCountingNode(t, primary, 0)
	_, replicaStore := bootstrapReplica(t, nodeA.srv.URL)
	defer replicaStore.Close()
	nodeB := newCountingNode(t, replicaStore, 0)

	cfg := &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "node-a", Addr: nodeA.srv.URL, Role: RolePrimary},
			{ID: "node-b", Addr: nodeB.srv.URL, Role: RoleReplica, ReplicaOf: "node-a"},
		},
	}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	resp, err := http.Get(routerSrv.URL + "/v1/lookup?table=no-such-table&id=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table through router: status %d, want 404", resp.StatusCode)
	}
	if got := nodeB.batches.Load(); got != 0 {
		t.Fatalf("client error failed over to the replica (%d requests)", got)
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
	for _, n := range stats.Nodes {
		if n.Errors != 0 {
			t.Fatalf("node %s error counter = %d after a client-side 404", n.ID, n.Errors)
		}
	}
}

// TestRouterHedgesToReplica pins the tail-latency path: a slow primary with
// a fast replica answers within the hedge budget, not the primary's.
func TestRouterHedgesToReplica(t *testing.T) {
	primary := buildClusterStore(t, 13)
	slowA := newCountingNode(t, primary, 250*time.Millisecond)

	_, replicaStore := bootstrapReplica(t, slowA.srv.URL)
	defer replicaStore.Close()
	fastB := newCountingNode(t, replicaStore, 0)

	cfg := &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "node-a", Addr: slowA.srv.URL, Role: RolePrimary},
			{ID: "node-b", Addr: fastB.srv.URL, Role: RoleReplica, ReplicaOf: "node-a"},
		},
	}
	rt, err := NewRouter(cfg, RouterOptions{HedgeAfter: 10 * time.Millisecond, NodeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	start := time.Now()
	resp := postRouterBatch(t, routerSrv.URL, "t0", []uint32{1, 2, 3, 100, 900})
	elapsed := time.Since(start)
	if len(resp.Errors) != 0 {
		t.Fatalf("hedged batch returned errors: %+v", resp.Errors)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("hedged read took %s; the replica should have answered well before the slow primary's 250ms", elapsed)
	}
	if fastB.batches.Load() == 0 {
		t.Fatal("replica never received the hedged request")
	}

	// The hedge counters surface in the router stats.
	var stats RouterStats
	sresp, err := http.Get(routerSrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	var hedges int64
	for _, n := range stats.Nodes {
		if n.ID == "node-a" {
			hedges = n.Hedges
		}
	}
	if hedges == 0 {
		t.Fatal("hedge counter did not move")
	}
}

// TestRouterReloadMovesPartitionWithoutDroppingRequests hammers the router
// while the membership is swapped under it (the SIGHUP path calls the same
// Reload): no request may fail, and after the reload the drained node stops
// receiving traffic.
func TestRouterReloadMovesPartitionWithoutDroppingRequests(t *testing.T) {
	storeA := buildClusterStore(t, 17)
	storeB := buildClusterStore(t, 17)
	nodeA := newCountingNode(t, storeA, 0)
	nodeB := newCountingNode(t, storeB, 0)

	mk := func(pinAllToA bool) *Config {
		cfg := &Config{
			IDRangeSize: 64,
			Nodes: []Node{
				{ID: "node-a", Addr: nodeA.srv.URL, Role: RolePrimary},
				{ID: "node-b", Addr: nodeB.srv.URL, Role: RolePrimary},
			},
		}
		if pinAllToA {
			parts := make([]int, 32)
			for i := range parts {
				parts[i] = i
			}
			cfg.Nodes[0].Partitions = map[string][]int{"t0": parts, "t1": parts}
		}
		return cfg
	}
	rt, err := NewRouter(mk(false), RouterOptions{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	ids := make([]uint32, 128)
	for i := range ids {
		ids[i] = uint32(i * 16)
	}

	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(BatchRequest{Table: "t0", IDs: ids})
				resp, err := http.Post(routerSrv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					return
				}
				var out BatchResponse
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if derr != nil || resp.StatusCode != http.StatusOK || len(out.Errors) != 0 {
					failures.Add(1)
					return
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	if err := rt.Reload(mk(true)); err != nil { // move every partition to node-a
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the membership reload", n)
	}

	// After the reload, node-b must no longer receive batch traffic.
	bBefore := nodeB.batches.Load()
	for i := 0; i < 5; i++ {
		resp := postRouterBatch(t, routerSrv.URL, "t0", ids)
		if len(resp.Errors) != 0 {
			t.Fatalf("post-reload batch returned errors: %+v", resp.Errors)
		}
	}
	if got := nodeB.batches.Load(); got != bBefore {
		t.Fatalf("drained node still received %d batches after reload", got-bBefore)
	}
}

// tornTransport injects a connection failure into the blocks download after
// a number of successful chunks — the network-visible shape of a replica
// killed (or partitioned) mid-stream.
type tornTransport struct {
	base      http.RoundTripper
	mu        sync.Mutex
	chunks    int
	failAfter int
}

func (tt *tornTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.Contains(req.URL.RawQuery, "part=blocks") {
		tt.mu.Lock()
		tt.chunks++
		n := tt.chunks
		tt.mu.Unlock()
		if n > tt.failAfter {
			return nil, fmt.Errorf("torn stream (injected after %d chunks)", tt.failAfter)
		}
	}
	return tt.base.RoundTrip(req)
}

// TestReplicaResumesTornStream kills the snapshot download mid-stream and
// re-bootstraps with a fresh Replica (a new process in production): the
// second attempt must resume from the persisted partial instead of starting
// over, and the result must pass the end-to-end CRC and serve identical
// vectors.
func TestReplicaResumesTornStream(t *testing.T) {
	primary := buildClusterStore(t, 19)
	node := httptest.NewServer(server.New(primary).Handler())
	defer node.Close()

	dataDir := filepath.Join(t.TempDir(), "replica")
	const chunk = 32 << 10

	// First attempt: the stream dies after 4 chunks (128 KB of ~1 MB).
	torn, err := NewReplica(ReplicaOptions{
		PrimaryURL: node.URL,
		DataDir:    dataDir,
		ChunkBytes: chunk,
		HTTPClient: &http.Client{Transport: &tornTransport{base: http.DefaultTransport, failAfter: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := torn.Bootstrap(); err == nil {
		t.Fatal("torn bootstrap unexpectedly succeeded")
	}
	partial := filepath.Join(dataDir, "incoming", "blocks.partial")
	st, err := os.Stat(partial)
	if err != nil {
		t.Fatalf("no partial survived the torn stream: %v", err)
	}
	if st.Size() != 4*chunk {
		t.Fatalf("partial holds %d bytes, want %d", st.Size(), 4*chunk)
	}

	// Second attempt (fresh process): must resume at the partial's offset.
	rep, err := NewReplica(ReplicaOptions{PrimaryURL: node.URL, DataDir: dataDir, ChunkBytes: chunk})
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := rep.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := rep.Stats().LastResumeOffset; got != 4*chunk {
		t.Fatalf("bootstrap resumed at offset %d, want %d", got, 4*chunk)
	}
	for id := uint32(0); id < 2048; id += 97 {
		want, err := primary.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("id %d[%d]: resumed replica serves wrong bytes", id, k)
			}
		}
	}
}

// TestReplicaFollowsSeqAdvance advances the primary after bootstrap by a
// structural mutation — a Train, which changes placement and invalidates the
// update-log window, so no stream of vector records can carry a follower
// across it — and checks the polling loop full re-syncs and swaps the new
// image in. (Plain vector updates are tailed without a swap; see
// incremental_test.go.)
func TestReplicaFollowsSeqAdvance(t *testing.T) {
	primary := buildClusterStore(t, 23)
	node := httptest.NewServer(server.New(primary).Handler())
	defer node.Close()

	rep, first := bootstrapReplica(t, node.URL)
	srv := server.New(first)
	// Swapped-out stores are closed by the server; the final one is ours.
	defer func() { srv.CurrentStore().Close() }()
	var swaps atomic.Int64
	go rep.Run(func(next *core.Store) {
		swaps.Add(1)
		srv.SwapStore(next)
	})
	defer rep.Stop()

	// An update, then the Train: the re-synced image must carry both the new
	// bytes and the new layout.
	updated := make([]float32, 64)
	for i := range updated {
		updated[i] = float32(i) + 0.5
	}
	if err := primary.UpdateVector(0, 42, updated); err != nil {
		t.Fatal(err)
	}
	traces := make([]*trace.Trace, 2)
	for i := range traces {
		traces[i] = trace.GenerateTable(trace.Profile{
			Name: fmt.Sprintf("t%d", i), NumVectors: 2048, AvgLookups: 16, CompulsoryMissFrac: 0.05,
			Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: int64(3 + i),
		}, 100)
	}
	if _, err := primary.Train(traces, core.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := primary.Lookup(0, 42)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for swaps.Load() == 0 || rep.ActiveSeq() != primary.SnapshotSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-synced across the primary's Train (replica stats: %+v)", rep.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	got, err := srv.CurrentStore().Lookup(0, 42)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("re-synced replica serves wrong bytes for the updated vector at [%d]", k)
		}
	}
	if rep.Stats().Syncs < 2 {
		t.Fatalf("expected at least 2 syncs (bootstrap + follow), got %d", rep.Stats().Syncs)
	}
}

// TestReplicaResyncsOnPrimarySeqRegression simulates a primary restart that
// presents a *smaller* seq than the replica recorded (new process, new
// history, clock stepped back): the replica must treat any seq change — not
// only an increase — as a new image and re-sync.
func TestReplicaResyncsOnPrimarySeqRegression(t *testing.T) {
	primary1 := buildClusterStore(t, 29)
	nodeSrv := server.New(primary1)
	node := httptest.NewServer(nodeSrv.Handler())
	defer node.Close()
	// primary1 is closed by the swap below; the swapped-in store is ours.
	defer func() { nodeSrv.CurrentStore().Close() }()

	rep, first := bootstrapReplica(t, node.URL)
	if rep.ActiveSeq() <= 5 {
		t.Fatalf("boot-stamped seq unexpectedly tiny: %d", rep.ActiveSeq())
	}
	repSrv := server.New(first)
	defer func() { repSrv.CurrentStore().Close() }()
	go rep.Run(repSrv.SwapStore)
	defer rep.Stop()

	// "Restart" the primary with different data and a numerically smaller
	// seq than anything the replica has seen.
	g := table.Generate("t0", table.GenerateOptions{NumVectors: 2048, Dim: 64, NumClusters: 32, Seed: 999})
	g2 := table.Generate("t1", table.GenerateOptions{NumVectors: 2048, Dim: 64, NumClusters: 32, Seed: 998})
	primary2, err := core.Open(core.Config{
		Tables: []*table.Table{g.Table, g2.Table}, DRAMBudgetVectors: 256,
		Seed: 29, InitialSnapshotSeq: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodeSrv.SwapStore(primary2) // closes primary1 once drained

	want, err := primary2.Lookup(0, 42)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, lerr := repSrv.CurrentStore().Lookup(0, 42)
		if lerr == nil {
			match := len(got) == len(want)
			for k := 0; match && k < len(want); k++ {
				match = got[k] == want[k]
			}
			if match {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-synced after the primary's seq regressed (stats: %+v)", rep.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := rep.ActiveSeq(); got != 5 {
		t.Fatalf("replica active seq = %d, want the restarted primary's 5", got)
	}
}
