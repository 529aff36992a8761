package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bandana/internal/core"
	"bandana/internal/table"
)

// TestHandlerErrorPaths is the table-driven sweep of every way a client can
// hold an endpoint wrong: malformed JSON bodies, wrong methods, out-of-range
// tables and ids, oversized batches.
func TestHandlerErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	client := ts.Client()

	bigIDs := make([]uint32, MaxBatchIDs+1)
	bigBody, _ := json.Marshal(map[string]any{"table": "tA", "ids": bigIDs})
	bigLookups, _ := json.Marshal(map[string]any{"lookups": [][]uint32{bigIDs}})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantSubstr string
	}{
		// /v1/lookup
		{"lookup wrong method", "POST", "/v1/lookup?table=tA&id=1", "", http.StatusMethodNotAllowed, ""},
		{"lookup missing params", "GET", "/v1/lookup", "", http.StatusBadRequest, "required"},
		{"lookup bad id", "GET", "/v1/lookup?table=tA&id=banana", "", http.StatusBadRequest, "invalid id"},
		{"lookup negative id", "GET", "/v1/lookup?table=tA&id=-4", "", http.StatusBadRequest, "invalid id"},
		{"lookup unknown table", "GET", "/v1/lookup?table=nope&id=1", "", http.StatusNotFound, "unknown table"},
		{"lookup out-of-range id", "GET", "/v1/lookup?table=tA&id=999999", "", http.StatusNotFound, ""},

		// /v1/batch
		{"batch wrong method", "GET", "/v1/batch", "", http.StatusMethodNotAllowed, ""},
		{"batch malformed json", "POST", "/v1/batch", "{\"table\": ", http.StatusBadRequest, "invalid JSON"},
		{"batch json wrong type", "POST", "/v1/batch", `{"table":"tA","ids":"1,2,3"}`, http.StatusBadRequest, "invalid JSON"},
		{"batch empty ids", "POST", "/v1/batch", `{"table":"tA","ids":[]}`, http.StatusBadRequest, "required"},
		{"batch missing table", "POST", "/v1/batch", `{"ids":[1,2]}`, http.StatusBadRequest, "required"},
		{"batch unknown table", "POST", "/v1/batch", `{"table":"nope","ids":[1]}`, http.StatusNotFound, "unknown table"},
		{"batch out-of-range id", "POST", "/v1/batch", `{"table":"tA","ids":[1,999999]}`, http.StatusNotFound, ""},
		{"batch oversized", "POST", "/v1/batch", string(bigBody), http.StatusBadRequest, "exceeds the limit"},

		// /v1/request
		{"request malformed json", "POST", "/v1/request", "[", http.StatusBadRequest, "invalid JSON"},
		{"request too many tables", "POST", "/v1/request", `{"lookups":[[1],[1],[1]]}`, http.StatusBadRequest, "tables"},
		{"request oversized", "POST", "/v1/request", string(bigLookups), http.StatusBadRequest, "exceeds the limit"},

		// /v1/adapt
		{"adapt wrong method", "GET", "/v1/adapt", "", http.StatusMethodNotAllowed, ""},
		{"adapt malformed json", "POST", "/v1/adapt", "{", http.StatusBadRequest, "invalid JSON"},
		{"adapt unknown action", "POST", "/v1/adapt", `{"action":"reticulate"}`, http.StatusBadRequest, "unknown action"},
		{"adapt epoch before start", "POST", "/v1/adapt", `{"action":"epoch"}`, http.StatusConflict, "not started"},

		// /v1/replica/snapshot
		{"snapshot missing part", "GET", "/v1/replica/snapshot", "", http.StatusBadRequest, "unknown part"},
		{"snapshot bad part", "GET", "/v1/replica/snapshot?part=journal", "", http.StatusBadRequest, "unknown part"},
		{"snapshot bad offset", "GET", "/v1/replica/snapshot?part=blocks&offset=-3", "", http.StatusBadRequest, "invalid offset"},
		{"snapshot bad limit", "GET", "/v1/replica/snapshot?part=blocks&limit=0", "", http.StatusBadRequest, "invalid limit"},
		{"snapshot bad seq", "GET", "/v1/replica/snapshot?part=blocks&seq=banana", "", http.StatusBadRequest, "invalid seq"},
		{"snapshot stale seq", "GET", "/v1/replica/snapshot?part=blocks&seq=999", "", http.StatusConflict, "advanced"},
		{"snapshot offset beyond end", "GET", "/v1/replica/snapshot?part=state&offset=99999999", "", http.StatusRequestedRangeNotSatisfiable, "beyond"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body: %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if tc.wantSubstr != "" && !strings.Contains(string(raw), tc.wantSubstr) {
				t.Fatalf("body %q does not mention %q", raw, tc.wantSubstr)
			}
		})
	}
}

// TestStatsRuntimeSection pins the runtime and store families of /v1/stats.
func TestStatsRuntimeSection(t *testing.T) {
	ts, _ := newTestServer(t)
	out := getStats(t, ts.URL)
	if out.get("bandana_runtime_goroutines") <= 0 || out.get("bandana_runtime_heap_bytes") == 0 || out.get("bandana_runtime_heap_objects") == 0 {
		t.Fatal("runtime families not populated")
	}
	if out.get("bandana_store_snapshot_seq") == 0 || out.get("bandana_store_read_only") != 0 {
		t.Fatal("store families not populated")
	}
}

// TestReplicaSnapshotEndpointStreamsChunks exercises the chunked download
// path end to end against the handler: manifest, state, then the block
// image in small chunks, CRC-verified and importable.
func TestReplicaSnapshotEndpointStreamsChunks(t *testing.T) {
	ts, _ := newTestServer(t)

	fetch := func(query string) (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/v1/replica/snapshot?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s (%s)", query, resp.Status, raw)
		}
		return resp, raw
	}

	_, manifest := fetch("part=manifest")
	_, state := fetch("part=state")

	first, chunk0 := fetch("part=blocks&offset=0&limit=4096")
	total := first.Header.Get(HeaderPartLen)
	if total == "" {
		t.Fatal("missing part length header")
	}
	var totalLen int
	fmt.Sscanf(total, "%d", &totalLen)
	if totalLen <= len(chunk0) {
		t.Fatalf("image of %d bytes should need several 4096-byte chunks", totalLen)
	}
	blocks := append([]byte(nil), chunk0...)
	for len(blocks) < totalLen {
		_, chunk := fetch(fmt.Sprintf("part=blocks&offset=%d&limit=4096", len(blocks)))
		if len(chunk) == 0 {
			t.Fatal("empty chunk before end of image")
		}
		blocks = append(blocks, chunk...)
	}
	var crc uint32
	fmt.Sscanf(first.Header.Get(HeaderPartCRC), "%x", &crc)

	dir := t.TempDir() + "/import"
	err := core.ImportSnapshot(dir, &core.Snapshot{
		Seq: 1, Manifest: manifest, State: state, Blocks: blocks, BlocksCRC: crc,
	}, 0)
	if err != nil {
		t.Fatalf("chunk-assembled snapshot failed to import: %v", err)
	}
	rep, err := core.Open(core.Config{Backend: core.BackendFile, DataDir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Lookup(0, 5); err != nil {
		t.Fatal(err)
	}
}

// TestSwapStoreDrainsInFlightRequests swaps the store under concurrent
// traffic: no request may fail, and the swapped-out store must be closed
// only after its requests drain (the race detector guards the rest).
func TestSwapStoreDrainsInFlightRequests(t *testing.T) {
	tables := make([]*table.Table, 1)
	g := table.Generate("tA", table.GenerateOptions{NumVectors: 1024, Dim: 16, NumClusters: 8, Seed: 1})
	tables[0] = g.Table
	store1, err := core.Open(core.Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	t.Cleanup(func() { srv.CurrentStore().Close() })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var failures int
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"table": "tA", "ids": []uint32{1, 2, 3, 500}})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					mu.Lock()
					failures++
					mu.Unlock()
					return
				}
			}
		}()
	}

	for i := 0; i < 5; i++ {
		g := table.Generate("tA", table.GenerateOptions{NumVectors: 1024, Dim: 16, NumClusters: 8, Seed: int64(i + 2)})
		next, err := core.Open(core.Config{Tables: []*table.Table{g.Table}, DRAMBudgetVectors: 64, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv.SwapStore(next)
	}
	close(stop)
	wg.Wait()
	if failures != 0 {
		t.Fatalf("%d requests failed across store swaps", failures)
	}

	if n := getStats(t, ts.URL).get("bandana_store_swaps_total"); n != 5 {
		t.Fatalf("swap counter = %v, want 5", n)
	}
}
