package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
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
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Adaptation struct {
			Enabled         bool `json:"enabled"`
			EpochsCompleted int  `json:"epochsCompleted"`
		} `json:"adaptation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Adaptation.Enabled {
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
	if resp2.StatusCode != http.StatusOK || body["enabled"] != true {
		t.Fatalf("start: %d %v", resp2.StatusCode, body)
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

	// Stats now expose the adaptation section with per-table entries.
	resp4, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		Adaptation struct {
			Enabled         bool `json:"enabled"`
			EpochsCompleted int  `json:"epochsCompleted"`
			Tables          []struct {
				Name         string  `json:"name"`
				EpochHitRate float64 `json:"epochHitRate"`
				CacheVectors int     `json:"cacheVectors"`
			} `json:"tables"`
		} `json:"adaptation"`
	}
	if err := json.NewDecoder(resp4.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if !full.Adaptation.Enabled || full.Adaptation.EpochsCompleted != 1 {
		t.Fatalf("adaptation stats after epoch: %+v", full.Adaptation)
	}
	if len(full.Adaptation.Tables) != len(tables) {
		t.Fatalf("adaptation stats cover %d tables, want %d", len(full.Adaptation.Tables), len(tables))
	}
	for _, ts := range full.Adaptation.Tables {
		if ts.CacheVectors <= 0 {
			t.Fatalf("table %s: no cache allocation in stats", ts.Name)
		}
	}

	// Stop; epoch now fails again.
	if resp, body := postAdapt(t, ts.URL, `{"action":"stop"}`); resp.StatusCode != http.StatusOK || body["enabled"] != false {
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
	if body["background"] != true {
		t.Fatalf("background not running: %v", body)
	}
	if fmt.Sprintf("%v", body["intervalMS"]) != "50" {
		t.Fatalf("intervalMS = %v", body["intervalMS"])
	}
	if resp, _ := postAdapt(t, ts.URL, `{"action":"stop"}`); resp.StatusCode != http.StatusOK {
		t.Fatal("stop failed")
	}
}
