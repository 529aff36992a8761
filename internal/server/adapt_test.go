package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

func postAdapt(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/adapt", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, out
}

func TestAdaptEndpoint(t *testing.T) {
	ts, tables := newTestServer(t)

	// Stats before start: adaptation disabled.
	if getStats(t, ts.URL).get("bandana_adaptation_enabled") != 0 {
		t.Fatal("adaptation should be disabled before start")
	}

	// Epoch before start fails.
	if resp, _ := postAdapt(t, ts.URL, `{"action":"epoch"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("epoch before start = %d, want 409", resp.StatusCode)
	}
	// Bad action fails.
	if resp, _ := postAdapt(t, ts.URL, `{"action":"bogus"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus action accepted: %d", resp.StatusCode)
	}
	// So does a field the endpoint does not know, by name, and nothing starts.
	resp, body := postAdapt(t, ts.URL, `{"action":"start","relayoutStrategy":"kmeans"}`)
	if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "relayoutStrategy") {
		t.Fatalf("removed field: %d %v, want 400 naming it", resp.StatusCode, body)
	}

	// Start in manual mode (no interval).
	resp2, body := postAdapt(t, ts.URL, `{"action":"start","minQueries":8}`)
	if resp2.StatusCode != http.StatusOK || body["Enabled"] != true {
		t.Fatalf("start: %d %v", resp2.StatusCode, body)
	}
	// The answer is core.AdaptationStats as it is: one entry per table.
	if rows, _ := body["Tables"].([]any); len(rows) != len(tables) {
		t.Fatalf("start answer covers %d tables, want %d: %v", len(rows), len(tables), body)
	}
	// Double start conflicts.
	if resp, _ := postAdapt(t, ts.URL, `{"action":"start"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double start = %d, want 409", resp.StatusCode)
	}
	if resp, _ := postAdapt(t, ts.URL, `{"action":"stop"}`); resp.StatusCode != http.StatusOK {
		t.Fatal("stop failed")
	}
	if resp, _ := postAdapt(t, ts.URL, `{"action":"start","minQueries":8}`); resp.StatusCode != http.StatusOK {
		t.Fatal("restart failed")
	}

	// Serve some batches so the recorders fill.
	for q := 0; q < 32; q++ {
		ids := []uint32{}
		for k := 0; k < 8; k++ {
			ids = append(ids, uint32((q*64+k*3)%tables[0].NumVectors()))
		}
		payload, _ := json.Marshal(map[string]any{"table": tables[0].Name, "ids": ids})
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewBuffer(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// Run one synchronous epoch and check the report shape.
	resp3, rep := postAdapt(t, ts.URL, `{"action":"epoch"}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("epoch: %d %v", resp3.StatusCode, rep)
	}
	if rep["Epoch"] != float64(1) {
		t.Fatalf("epoch report: %v", rep)
	}

	// Stats now count the epoch, and every table keeps a cache allocation.
	stats := getStats(t, ts.URL)
	if stats.get("bandana_adaptation_enabled") != 1 || stats.get("bandana_adaptation_epochs_total") != 1 {
		t.Fatalf("adaptation stats after epoch: %v", stats.View)
	}
	if n := len(stats.View["bandana_table_cache_vectors"]); n != len(tables) {
		t.Fatalf("stats cover %d tables, want %d", n, len(tables))
	}
	for _, tbl := range tables {
		if stats.get("bandana_table_cache_vectors", tbl.Name) <= 0 {
			t.Fatalf("table %s: no cache allocation in stats", tbl.Name)
		}
	}

	// Stop; epoch now fails again.
	if resp, body := postAdapt(t, ts.URL, `{"action":"stop"}`); resp.StatusCode != http.StatusOK || body["Enabled"] != false {
		t.Fatalf("stop: %d %v", resp.StatusCode, body)
	}
	if resp, _ := postAdapt(t, ts.URL, `{"action":"epoch"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("epoch after stop = %d, want 409", resp.StatusCode)
	}
}

func TestAdaptEndpointBackgroundStart(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postAdapt(t, ts.URL, `{"action":"start","intervalMS":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d %v", resp.StatusCode, body)
	}
	if body["Background"] != true {
		t.Fatalf("background not running: %v", body)
	}
	if body["Interval"] != float64(50*time.Millisecond) {
		t.Fatalf("Interval = %v, want 50ms", body["Interval"])
	}
	if resp, _ := postAdapt(t, ts.URL, `{"action":"stop"}`); resp.StatusCode != http.StatusOK {
		t.Fatal("stop failed")
	}
}
