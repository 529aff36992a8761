package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bandana/internal/core"
	"bandana/internal/table"
)

// TestStatsIOSchedSection: a store reports its I/O scheduler's effective
// configuration and counters under the "iosched" stats section, the device
// section carries the batching counters, and an update reaches the device
// only when compaction folds it in.
func TestStatsIOSchedSection(t *testing.T) {
	g := table.Generate("tA", table.GenerateOptions{NumVectors: 512, Dim: 16, NumClusters: 8, Seed: 1})
	store, err := core.Open(core.Config{
		Tables:  []*table.Table{g.Table},
		Seed:    1,
		IOSched: core.IOSchedOptions{QueueDepth: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(New(store).Handler())
	t.Cleanup(ts.Close)

	// Miss traffic (fresh store, nothing cached) flows through the
	// scheduler; a repeated id is a cache hit and must not.
	for _, id := range []string{"1", "2", "3", "1"} {
		if code := getJSON(t, ts.URL+"/v1/lookup?table=tA&id="+id, nil); code != http.StatusOK {
			t.Fatalf("lookup status %d", code)
		}
	}

	var out statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	io := out.IOSched
	if io.TargetQueueDepth != 16 {
		t.Fatalf("iosched config not echoed: %+v", io)
	}
	if io.InFlight != 0 || io.MaxInFlight != 1 {
		t.Fatalf("one client reading one miss at a time: in flight %d, max %d, want 0 and 1", io.InFlight, io.MaxInFlight)
	}
	if io.DemandReads != 3 || io.DeviceReads != 3 || io.Batches == 0 {
		t.Fatalf("iosched counters: %+v, want 3 demand reads", io)
	}
	if io.SimBusyUS <= 0 {
		t.Fatalf("simulated busy time not tracked: %+v", io)
	}
	if out.Device.ReadBatches == 0 || out.Device.ReadsSubmitted != out.Device.BlocksRead {
		t.Fatalf("device batching counters: %+v", out.Device)
	}
	if out.Device.AvgReadBatch <= 0 || out.Device.MaxQueueDepth <= 0 {
		t.Fatalf("device queue-depth counters: %+v", out.Device)
	}

	// An update is a log append plus DRAM work: the overlay serves it, and
	// neither the scheduler's read counters nor the device's write counters
	// move until compaction folds it into the block image.
	written := out.Device.BlocksWritten
	updateAndLookup(t, store, ts.URL, 9)
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if out.Tables[0].DeltaHits != 1 || out.UpdateLog.OverlayEntries != 1 {
		t.Fatalf("update not served from the overlay: deltaHits=%d %+v", out.Tables[0].DeltaHits, out.UpdateLog)
	}
	if out.IOSched.PrefetchReads != 0 || out.IOSched.DemandReads != 3 || out.Device.BlocksWritten != written {
		t.Fatalf("update touched the device before compaction: %+v %+v", out.IOSched, out.Device)
	}

	// Compaction read-modify-writes the one dirty block: its read goes
	// through the scheduler's background class, its write to the device.
	if err := store.CompactDeltas(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if out.IOSched.PrefetchReads != 1 || out.IOSched.DemandReads != 3 {
		t.Fatalf("compaction read not in the background class: %+v", out.IOSched)
	}
	if out.Device.BlocksWritten != written+1 {
		t.Fatalf("compaction wrote %d blocks, want 1: %+v", out.Device.BlocksWritten-written, out.Device)
	}
	if out.UpdateLog.OverlayEntries != 0 || out.UpdateLog.Compactions != 1 {
		t.Fatalf("overlay not drained by compaction: %+v", out.UpdateLog)
	}
}

// updateAndLookup overwrites vector id of table tA (dim 16) and checks that
// an HTTP lookup serves the new value.
func updateAndLookup(t *testing.T, store *core.Store, url string, id uint32) {
	t.Helper()
	vec := make([]float32, 16)
	for i := range vec {
		vec[i] = 2
	}
	if err := store.UpdateVector(0, id, vec); err != nil {
		t.Fatal(err)
	}
	var got lookupResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/lookup?table=tA&id=%d", url, id), &got); code != http.StatusOK {
		t.Fatalf("lookup status %d", code)
	}
	for i, x := range got.Vector {
		if x != vec[i] {
			t.Fatalf("updated vector not served: %v", got.Vector)
		}
	}
}
