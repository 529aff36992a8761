package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"bandana/internal/core"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// newTestServer builds a small store and wraps it in a test HTTP server.
func newTestServer(t *testing.T) (*httptest.Server, []*table.Table) {
	t.Helper()
	tables := make([]*table.Table, 2)
	for i := range tables {
		p := trace.Profile{
			Name: "t" + string(rune('A'+i)), NumVectors: 2048, AvgLookups: 16,
			CompulsoryMissFrac: 0.1, Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: int64(i + 1),
		}
		g := table.Generate(p.Name, table.GenerateOptions{
			NumVectors: p.NumVectors, Dim: 16, NumClusters: 32, Seed: int64(i),
		})
		tables[i] = g.Table
	}
	store, err := core.Open(core.Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(New(store).Handler())
	t.Cleanup(ts.Close)
	return ts, tables
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("health payload %v", out)
	}
	if ro, ok := out["readOnly"].(bool); !ok || ro {
		t.Fatalf("expected readOnly=false in health payload, got %v", out)
	}
}

func TestTablesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var out []tableInfo
	if code := getJSON(t, ts.URL+"/v1/tables", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out) != 2 || out[0].Name != "tA" || out[1].Index != 1 {
		t.Fatalf("tables payload %+v", out)
	}
}

func TestLookupEndpoint(t *testing.T) {
	ts, tables := newTestServer(t)
	var out lookupResponse
	if code := getJSON(t, ts.URL+"/v1/lookup?table=tA&id=5", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, _ := tables[0].Vector(5)
	if len(out.Vector) != len(want) {
		t.Fatalf("vector length %d", len(out.Vector))
	}
	for d := range want {
		if out.Vector[d] != want[d] {
			t.Fatalf("element %d mismatch", d)
		}
	}
	// Error cases.
	if code := getJSON(t, ts.URL+"/v1/lookup?table=tA", nil); code != http.StatusBadRequest {
		t.Fatalf("missing id should be 400, got %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/lookup?table=tA&id=abc", nil); code != http.StatusBadRequest {
		t.Fatalf("bad id should be 400, got %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/lookup?table=nosuch&id=1", nil); code != http.StatusNotFound {
		t.Fatalf("unknown table should be 404, got %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/lookup?table=tA&id=999999", nil); code != http.StatusNotFound {
		t.Fatalf("out-of-range id should be 404, got %d", code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, tables := newTestServer(t)
	var out batchResponse
	code := postJSON(t, ts.URL+"/v1/batch", batchRequest{Table: "tB", IDs: []uint32{1, 2, 3}}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Vectors) != 3 {
		t.Fatalf("got %d vectors", len(out.Vectors))
	}
	want, _ := tables[1].Vector(2)
	for d := range want {
		if out.Vectors[1][d] != want[d] {
			t.Fatalf("batch vector mismatch at %d", d)
		}
	}
	if code := postJSON(t, ts.URL+"/v1/batch", batchRequest{Table: "tB"}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty ids should be 400, got %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/batch", batchRequest{Table: "zzz", IDs: []uint32{1}}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown table should be 404, got %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/batch", batchRequest{Table: "tB", IDs: []uint32{999999}}, nil); code != http.StatusNotFound {
		t.Fatalf("bad id should be 404, got %d", code)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON should be 400, got %d", resp.StatusCode)
	}
}

// TestStatsFileBackend serves a file-backed store and checks that /v1/stats
// reports the backend name and its write/flush counters.
func TestStatsFileBackend(t *testing.T) {
	g := table.Generate("tA", table.GenerateOptions{NumVectors: 512, Dim: 16, NumClusters: 8, Seed: 1})
	store, err := core.Open(core.Config{
		Tables:  []*table.Table{g.Table},
		Seed:    1,
		Backend: core.BackendFile,
		DataDir: t.TempDir() + "/store",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(New(store).Handler())
	t.Cleanup(ts.Close)

	// Bulk ingest is no single-block write, and an update is none until it
	// is compacted: it is one update-log append, served from the overlay.
	updateAndLookup(t, store, ts.URL, 1)
	var out statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Device.Backend != "file" {
		t.Fatalf("backend = %q, want file", out.Device.Backend)
	}
	if out.Tables[0].DeltaHits != 1 || out.UpdateLog.OverlayEntries != 1 || out.UpdateLog.Appends != 1 {
		t.Fatalf("update not served from the overlay: deltaHits=%d %+v", out.Tables[0].DeltaHits, out.UpdateLog)
	}
	if out.Device.DataWrites != 0 {
		t.Fatalf("update reached the block file before compaction: %+v", out.Device)
	}

	// Compaction is the in-place path: one block read-modify-write.
	if err := store.CompactDeltas(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.UpdateLog.OverlayEntries != 0 {
		t.Fatalf("overlay not drained by compaction: %+v", out.UpdateLog)
	}
	if out.Device.DataWrites == 0 {
		t.Fatalf("data writes not reported: %+v", out.Device)
	}
	if out.Device.Flushes == 0 {
		t.Fatalf("flushes not reported (Persist flushes at init): %+v", out.Device)
	}
}

func TestRequestEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var out rankingResponse
	code := postJSON(t, ts.URL+"/v1/request", rankingRequest{Lookups: [][]uint32{{1, 2}, {7}}}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Tables) != 2 || len(out.Tables[0]) != 2 || len(out.Tables[1]) != 1 {
		t.Fatalf("request payload shape wrong: %d tables", len(out.Tables))
	}
	if code := postJSON(t, ts.URL+"/v1/request", rankingRequest{Lookups: [][]uint32{{1}, {1}, {1}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("too many tables should be 400, got %d", code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// Generate some traffic first.
	getJSON(t, ts.URL+"/v1/lookup?table=tA&id=1", nil)
	getJSON(t, ts.URL+"/v1/lookup?table=tA&id=1", nil)
	var out statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Tables) != 2 {
		t.Fatalf("stats cover %d tables", len(out.Tables))
	}
	if out.Tables[0].Lookups != 2 || out.Tables[0].Hits != 1 {
		t.Fatalf("stats not tracking traffic: %+v", out.Tables[0])
	}
	if out.Device.BlocksRead == 0 {
		t.Fatalf("device stats missing")
	}
	if out.Device.EnduranceDWPD <= 0 {
		t.Fatalf("endurance budget missing")
	}
	if out.Device.Backend != "mem" {
		t.Fatalf("backend = %q, want mem", out.Device.Backend)
	}
	// The instrumentation middleware must have counted the traffic above
	// (2 lookups + this stats request).
	if out.Server.Requests < 3 {
		t.Fatalf("server requests = %d, want >= 3", out.Server.Requests)
	}
	if out.Server.Errors != 0 {
		t.Fatalf("server errors = %d, want 0", out.Server.Errors)
	}
}

func TestServerErrorCounting(t *testing.T) {
	ts, _ := newTestServer(t)
	getJSON(t, ts.URL+"/v1/lookup?table=nosuch&id=1", nil)
	getJSON(t, ts.URL+"/v1/lookup?table=tA", nil)
	var out statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Server.Errors != 2 {
		t.Fatalf("server errors = %d, want 2", out.Server.Errors)
	}
}

// TestConcurrentRequests exercises the full HTTP path from many goroutines —
// net/http already runs handlers concurrently, and the sharded store must
// keep its counters consistent under that load.
func TestConcurrentRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := uint32((w*perWorker + i) % 2048)
				var out lookupResponse
				if code := getJSON(t, fmt.Sprintf("%s/v1/lookup?table=tA&id=%d", ts.URL, id), &out); code != http.StatusOK {
					t.Errorf("lookup status %d", code)
					return
				}
				if len(out.Vector) != 16 {
					t.Errorf("vector length %d", len(out.Vector))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var out statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	tbl := out.Tables[0]
	if tbl.Lookups != workers*perWorker {
		t.Fatalf("table lookups = %d, want %d", tbl.Lookups, workers*perWorker)
	}
	if tbl.Hits+tbl.Misses != tbl.Lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", tbl.Hits, tbl.Misses, tbl.Lookups)
	}
	if out.Server.Requests < workers*perWorker {
		t.Fatalf("server requests = %d, want >= %d", out.Server.Requests, workers*perWorker)
	}
	if out.Server.InFlight != 1 { // just this stats request
		t.Fatalf("in-flight = %d, want 1", out.Server.InFlight)
	}
}
