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
	"bandana/internal/metrics"
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

// statsView is a /v1/stats scrape.
type statsView struct {
	metrics.View
	t *testing.T
}

// getStats scrapes the server's /v1/stats, the JSON view of its registry.
func getStats(t *testing.T, url string) statsView {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	v, err := metrics.ParseJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return statsView{v, t}
}

// get returns a series' value: the unlabelled sample, or with a table name
// the table's sample. A missing sample fails the test.
func (v statsView) get(series string, table ...string) float64 {
	labels := ""
	if len(table) == 1 {
		labels = `table="` + table[0] + `"`
	}
	x, ok := v.View[series][labels]
	if !ok {
		v.t.Helper()
		v.t.Fatalf("/v1/stats has no %s{%s}", series, labels)
	}
	return x
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
// reports the backend name, the data directory and the write/flush counters.
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
	out := getStats(t, ts.URL)
	if _, ok := out.View["bandana_device_info"][`backend="file",direct_io="false",read_path="mmap"`]; !ok {
		t.Fatalf("device info %v, want the buffered file backend", out.View["bandana_device_info"])
	}
	if _, ok := out.View["bandana_store_info"][`data_dir="`+store.DataDir()+`"`]; !ok {
		t.Fatalf("store info %v, want data_dir %q", out.View["bandana_store_info"], store.DataDir())
	}
	d, o, a := out.get("bandana_table_delta_hits_total", "tA"), out.get("bandana_updatelog_overlay_entries"), out.get("bandana_updatelog_appends_total")
	if d != 1 || o != 1 || a != 1 {
		t.Fatalf("update not served from the overlay: %v delta hits, %v overlay entries, %v appends", d, o, a)
	}
	if w := out.get("bandana_device_data_writes_total"); w != 0 {
		t.Fatalf("update reached the block file before compaction: %v data writes", w)
	}

	// Compaction is the in-place path: one block read-modify-write.
	if err := store.CompactDeltas(); err != nil {
		t.Fatal(err)
	}
	out = getStats(t, ts.URL)
	if o := out.get("bandana_updatelog_overlay_entries"); o != 0 {
		t.Fatalf("overlay not drained by compaction: %v entries", o)
	}
	if out.get("bandana_device_data_writes_total") == 0 {
		t.Fatal("data writes not reported")
	}
	if out.get("bandana_device_flushes_total") == 0 {
		t.Fatal("flushes not reported (Persist flushes at init)")
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
	out := getStats(t, ts.URL)
	if n := len(out.View["bandana_table_lookups_total"]); n != 2 {
		t.Fatalf("stats cover %d tables", n)
	}
	if l, h := out.get("bandana_table_lookups_total", "tA"), out.get("bandana_table_hits_total", "tA"); l != 2 || h != 1 {
		t.Fatalf("stats not tracking traffic: %v lookups, %v hits", l, h)
	}
	if out.get("bandana_device_blocks_read_total") == 0 {
		t.Fatalf("device stats missing")
	}
	if out.get("bandana_device_endurance_dwpd") <= 0 {
		t.Fatalf("endurance budget missing")
	}
	if _, ok := out.View["bandana_device_info"][`backend="mem",direct_io="false"`]; !ok {
		t.Fatalf("device info %v, want the mem backend", out.View["bandana_device_info"])
	}
	if _, ok := out.View["bandana_store_info"]; ok {
		t.Fatalf("a mem store reports a data directory: %v", out.View["bandana_store_info"])
	}
	// The instrumentation middleware must have counted the traffic above
	// (2 lookups + this stats request).
	if n := out.get("bandana_http_requests_total"); n < 3 {
		t.Fatalf("server requests = %v, want >= 3", n)
	}
	if n := out.get("bandana_http_errors_total"); n != 0 {
		t.Fatalf("server errors = %v, want 0", n)
	}
}

func TestServerErrorCounting(t *testing.T) {
	ts, _ := newTestServer(t)
	getJSON(t, ts.URL+"/v1/lookup?table=nosuch&id=1", nil)
	getJSON(t, ts.URL+"/v1/lookup?table=tA", nil)
	if n := getStats(t, ts.URL).get("bandana_http_errors_total"); n != 2 {
		t.Fatalf("server errors = %v, want 2", n)
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
	out := getStats(t, ts.URL)
	lookups, hits, misses := out.get("bandana_table_lookups_total", "tA"), out.get("bandana_table_hits_total", "tA"), out.get("bandana_table_misses_total", "tA")
	if lookups != workers*perWorker {
		t.Fatalf("table lookups = %v, want %d", lookups, workers*perWorker)
	}
	if hits+misses != lookups {
		t.Fatalf("hits %v + misses %v != lookups %v", hits, misses, lookups)
	}
	if n := out.get("bandana_http_requests_total"); n < workers*perWorker {
		t.Fatalf("server requests = %v, want >= %d", n, workers*perWorker)
	}
	if n := out.get("bandana_http_inflight_requests"); n != 1 { // just this stats request
		t.Fatalf("in-flight = %v, want 1", n)
	}
}
