package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bandana/internal/core"
	"bandana/internal/nvm"
	"bandana/internal/server"
)

// The tests in this file cover what only a process boundary adds to the
// in-process e2e tests: a node that dies by SIGKILL with its connections
// open, and a primary that comes back from its data dir. The node is this
// test binary re-executed (TestProcessNodeChild, the idiom of core's
// TestMigrationCrashChild); every listener binds port 0 and the child
// reports the addresses it was given. They are skipped under -short.

const (
	// nodeChildModeEnv marks the child and picks its backend: "mem", or
	// "file" for a Sync: always store under nodeChildDirEnv (written on the
	// first start, reopened on later ones). nodeChildAddrEnv is the HTTP
	// listen address; a restarted primary is given its predecessor's, since
	// that is the URL its followers hold.
	nodeChildModeEnv = "BANDANA_NODE_CHILD"
	nodeChildDirEnv  = "BANDANA_NODE_CHILD_DIR"
	nodeChildAddrEnv = "BANDANA_NODE_CHILD_ADDR"

	nodeChildSeed    = 47
	nodeChildVectors = 2048
)

// TestProcessNodeChild is the node subprocess: a store behind server.New
// with an HTTP and a bwp listener. It announces both addresses on stdout and
// serves until its stdin closes — the parent holds the other end, so the
// child cannot outlive it. Skipped in normal runs.
func TestProcessNodeChild(t *testing.T) {
	mode := os.Getenv(nodeChildModeEnv)
	if mode == "" {
		t.Skip("node child only runs under the process tests")
	}
	cfg := core.Config{DRAMBudgetVectors: 256, Seed: nodeChildSeed}
	if mode == "file" {
		cfg.Backend, cfg.DataDir, cfg.Sync = core.BackendFile, os.Getenv(nodeChildDirEnv), nvm.SyncAlways
	}
	if !core.DirInitialized(cfg.DataDir) {
		cfg.Tables = clusterTables(nodeChildSeed, nodeChildVectors)
	}
	store, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := server.New(store)
	httpLn, err := net.Listen("tcp", os.Getenv(nodeChildAddrEnv))
	if err != nil {
		t.Fatal(err)
	}
	defer httpLn.Close()
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wireLn.Close()
	go srv.ServeWire(wireLn)
	go http.Serve(httpLn, srv.Handler())
	fmt.Printf("node-child http=%s wire=%s\n", httpLn.Addr(), wireLn.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin)
}

// nodeChild is a running TestProcessNodeChild.
type nodeChild struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
}

// startNodeChild starts a node process and waits for its addresses. addr is
// the HTTP listen address.
func startNodeChild(t *testing.T, mode, dir, addr string) *nodeChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestProcessNodeChild$")
	cmd.Env = append(os.Environ(),
		nodeChildModeEnv+"="+mode, nodeChildDirEnv+"="+dir, nodeChildAddrEnv+"="+addr)
	cmd.Stderr = os.Stderr
	if _, err := cmd.StdinPipe(); err != nil { // held open until the child is reaped
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &nodeChild{cmd: cmd}
	t.Cleanup(c.kill9)
	ready := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if n, _ := fmt.Sscanf(sc.Text(), "node-child http=%s wire=%s", &c.httpAddr, &c.wireAddr); n == 2 {
				ready <- true
				_, _ = io.Copy(io.Discard, stdout)
				return
			}
		}
		ready <- false
	}()
	select {
	case ok := <-ready:
		if !ok {
			t.Fatal("node child exited before announcing its addresses")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("node child did not come up in 30s")
	}
	return c
}

// kill9 SIGKILLs the child and reaps it. Safe to call twice.
func (c *nodeChild) kill9() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// await polls cond until it holds; the process tests' bounds are all
// generous multiples of what a loaded CI box needs.
func await(t *testing.T, bound time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(bound)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", bound, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getRouterStats(t *testing.T, routerURL string) *RouterStats {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestRouterSurvivesNodeKill9MidStream: two bwp nodes, one of them a child
// process, under a continuous batch stream through the router; the child is
// SIGKILLed mid-stream. Every router response must stay 200 — the severed
// bwp connection and the refused HTTP fallback degrade to per-id errors,
// confined to the dead node's partitions — and a Reload without the node
// clears them.
func TestRouterSurvivesNodeKill9MidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a node process")
	}
	nodeA := newWireNode(t, buildClusterStore(t, nodeChildSeed))
	child := startNodeChild(t, "mem", "", "127.0.0.1:0")
	cfg := &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "node-a", Addr: nodeA.srv.URL, WireAddr: nodeA.wireAddr, Role: RolePrimary},
			{ID: "node-b", Addr: "http://" + child.httpAddr, WireAddr: child.wireAddr, Role: RolePrimary},
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
	if resp := postRouterBatch(t, routerSrv.URL, "t0", ids); len(resp.Errors) != 0 {
		t.Fatalf("healthy cluster returned errors: %+v", resp.Errors[0])
	}

	var served atomic.Int64
	var failure atomic.Pointer[string]
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(BatchRequest{Table: "t0", IDs: ids})
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(routerSrv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("router /v1/batch: %s", resp.Status)
				}
			}
			if err != nil {
				msg := err.Error()
				failure.Store(&msg)
				return
			}
			served.Add(1)
		}
	}()
	streamAdvances := func(what string) {
		t.Helper()
		from := served.Load()
		await(t, 10*time.Second, what, func() bool { return served.Load() >= from+5 || failure.Load() != nil })
	}
	streamAdvances("the stream to flow before the kill")
	child.kill9()
	streamAdvances("the stream to keep flowing after the kill")

	resp := postRouterBatch(t, routerSrv.URL, "t0", ids)
	errIDs := map[uint32]bool{}
	for _, e := range resp.Errors {
		if e.Node != "node-b" {
			t.Fatalf("error attributed to %s, want node-b: %+v", e.Node, e)
		}
		errIDs[e.ID] = true
	}
	if len(errIDs) == 0 {
		t.Fatal("no per-id errors after killing node-b")
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
	close(stop)
	<-done
	if msg := failure.Load(); msg != nil {
		t.Fatalf("the stream saw a request-level failure: %s", *msg)
	}
	for _, ns := range getRouterStats(t, routerSrv.URL).Nodes {
		if ns.WireRequests == 0 {
			t.Fatalf("the stream never reached %s over bwp: %+v", ns.ID, ns)
		}
		if dead := ns.ID == "node-b"; dead != (ns.WireFallbacks > 0) {
			t.Fatalf("wire fallbacks on the wrong node (only node-b's stream was severed): %+v", ns)
		}
	}

	survivors := *cfg
	survivors.Nodes = cfg.Nodes[:1]
	if err := rt.Reload(&survivors); err != nil {
		t.Fatal(err)
	}
	if resp := postRouterBatch(t, routerSrv.URL, "t0", ids); len(resp.Errors) != 0 {
		t.Fatalf("errors persist after a reload without the dead node: %+v", resp.Errors[0])
	}
}

// TestReplicaFollowsPrimaryAcrossKill9: an in-process Replica follows a
// file-backed Sync: always primary running in a child, under a /v1/update
// stream that retries through outages. Before the crash the replica must
// converge incrementally (the bootstrap is its only sync; every record
// arrives as a delta). The primary is then SIGKILLed at the stream's
// midpoint and restarted from the same data dir at the same address: the
// replica must keep polling through the refused connections, re-converge to
// the final seq inside a bound and serve the final bytes. (A full re-sync is
// allowed there — a restart may invalidate the tail position — a stall is
// not.)
func TestReplicaFollowsPrimaryAcrossKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a node process")
	}
	const numIDs = 96
	dir := filepath.Join(t.TempDir(), "primary")
	primary := startNodeChild(t, "file", dir, "127.0.0.1:0")
	primaryURL := "http://" + primary.httpAddr

	rep, first := bootstrapReplica(t, primaryURL)
	repSrv := server.New(first)
	defer func() { repSrv.CurrentStore().Close() }()
	go rep.Run(repSrv.SwapStore)
	defer rep.Stop()

	// vec is the payload of (id, phase): rewriting it is idempotent, so the
	// retried updates around the kill cannot perturb the final image, and
	// every component is exact in fp16.
	vec := func(id uint32, phase int) []float32 {
		v := make([]float32, 64)
		for d := range v {
			v[d] = float32(phase*100) + float32(id%31) + float32(d%13)*0.5
		}
		return v
	}
	update := func(id uint32, phase int) (uint64, error) {
		body, _ := json.Marshal(map[string]any{"table": "t0", "id": id, "vector": vec(id, phase)})
		resp, err := http.Post(primaryURL+"/v1/update", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("/v1/update: %s", resp.Status)
		}
		var out struct {
			Seq uint64 `json:"seq"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		return out.Seq, err
	}
	replicaServes := func(phase int) {
		t.Helper()
		for id := uint32(0); id < numIDs; id += 7 {
			got, err := repSrv.CurrentStore().Lookup(0, id)
			if err != nil {
				t.Fatal(err)
			}
			for d, want := range vec(id, phase) {
				if got[d] != want {
					t.Fatalf("replica serves id %d[%d] = %v, want phase %d's %v", id, d, got[d], phase, want)
				}
			}
		}
	}

	var lastSeq uint64
	for id := uint32(0); id < numIDs; id++ {
		var err error
		if lastSeq, err = update(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	await(t, 20*time.Second, "the replica to tail the first stream", func() bool { return rep.ActiveSeq() >= lastSeq })
	if st := rep.Stats(); st.Syncs != 1 || st.SyncRestarts != 0 || st.SyncStalled || st.DeltaRecords != numIDs {
		t.Fatalf("catch-up was not incremental (want 1 sync, 0 restarts, %d delta records): %+v", numIDs, st)
	}
	replicaServes(1)

	var finalSeq atomic.Uint64
	var streamErr atomic.Pointer[string]
	half, streamed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(streamed)
		deadline := time.Now().Add(30 * time.Second)
		for i := 0; i < 2*numIDs; i++ {
			if i == numIDs {
				close(half)
			}
			for {
				seq, err := update(uint32(i%numIDs), 2)
				if err == nil {
					finalSeq.Store(seq)
					break
				}
				if time.Now().After(deadline) {
					msg := fmt.Sprintf("update %d never committed: %v", i, err)
					streamErr.Store(&msg)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}()
	select {
	case <-half:
	case <-streamed: // only by failing before the midpoint; reported below
	}
	primary.kill9()
	// The restart waits until the replica has polled the dead primary, so
	// following resumes from a refused connection on every run.
	await(t, 10*time.Second, "the replica to notice the outage", func() bool { return rep.Stats().LastError != "" })
	startNodeChild(t, "file", dir, primary.httpAddr)
	<-streamed
	if msg := streamErr.Load(); msg != nil {
		t.Fatalf("the update stream did not survive the primary's restart: %s", *msg)
	}
	await(t, 20*time.Second, "the replica to re-converge after the restart", func() bool {
		return rep.ActiveSeq() >= finalSeq.Load()
	})
	if st := rep.Stats(); st.SyncStalled {
		t.Fatalf("replica stalled re-converging after the primary's crash: %+v", st)
	}
	replicaServes(2)
}
