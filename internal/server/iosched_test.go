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
// configuration and counters under the "iosched" stats section, and the
// device section carries the batching counters. On the mem backend nothing
// is scheduled: misses read the store's memory in place and compaction reads
// the device directly, so only the device counters move — and an update
// reaches the device only when compaction folds it in.
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

	// Miss traffic (fresh store, nothing cached) reads one block per miss in
	// place; a repeated id is a cache hit and reads nothing.
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
	if io.DemandReads != 0 || io.PrefetchReads != 0 || io.DeviceReads != 0 || io.Batches != 0 || io.MaxInFlight != 0 {
		t.Fatalf("iosched counters: %+v, want nothing scheduled", io)
	}
	if d := out.Device; d.BlocksRead != 3 || d.ReadBatches != 3 || d.ReadsSubmitted != d.BlocksRead || d.AvgReadBatch != 1 {
		t.Fatalf("device batching counters: %+v, want 3 one-block batches", d)
	}

	// An update is a log append plus DRAM work: the overlay serves it, and
	// the device's counters do not move until compaction folds it into the
	// block image.
	read, written := out.Device.BlocksRead, out.Device.BlocksWritten
	updateAndLookup(t, store, ts.URL, 9)
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if out.Tables[0].DeltaHits != 1 || out.UpdateLog.OverlayEntries != 1 {
		t.Fatalf("update not served from the overlay: deltaHits=%d %+v", out.Tables[0].DeltaHits, out.UpdateLog)
	}
	if out.Device.BlocksRead != read || out.Device.BlocksWritten != written {
		t.Fatalf("update touched the device before compaction: %+v", out.Device)
	}

	// Compaction read-modify-writes the one dirty block, straight on the
	// device: one block read, one block written, nothing scheduled.
	if err := store.CompactDeltas(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if out.IOSched.PrefetchReads != 0 || out.IOSched.DemandReads != 0 {
		t.Fatalf("compaction read through the scheduler: %+v", out.IOSched)
	}
	if out.Device.BlocksRead != read+1 || out.Device.BlocksWritten != written+1 || out.Device.MaxQueueDepth != 1 {
		t.Fatalf("compaction read %d and wrote %d blocks at depth %d, want 1, 1 and 1: %+v",
			out.Device.BlocksRead-read, out.Device.BlocksWritten-written, out.Device.MaxQueueDepth, out.Device)
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
