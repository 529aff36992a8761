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
// configuration and counters as the bandana_iosched_* families, and the
// bandana_device_* families carry the batching counters. On the mem backend nothing
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

	out := getStats(t, ts.URL)
	if v := out.get("bandana_iosched_queue_depth"); v != 16 {
		t.Fatalf("iosched queue depth %v, want 16", v)
	}
	for _, name := range []string{"bandana_iosched_demand_reads_total", "bandana_iosched_prefetch_reads_total",
		"bandana_iosched_device_reads_total", "bandana_iosched_batches_total", "bandana_iosched_inflight_max"} {
		if v := out.get(name); v != 0 {
			t.Fatalf("%s = %v, want nothing scheduled", name, v)
		}
	}
	read, batches := out.get("bandana_device_blocks_read_total"), out.get("bandana_device_read_batches_total")
	if read != 3 || batches != 3 || out.get("bandana_device_reads_submitted_total") != read {
		t.Fatalf("device batching counters: %v blocks in %v batches, want 3 one-block batches", read, batches)
	}

	// An update is a log append plus DRAM work: the overlay serves it, and
	// the device's counters do not move until compaction folds it into the
	// block image.
	written := out.get("bandana_device_blocks_written_total")
	updateAndLookup(t, store, ts.URL, 9)
	out = getStats(t, ts.URL)
	if d, o := out.get("bandana_table_delta_hits_total", "tA"), out.get("bandana_updatelog_overlay_entries"); d != 1 || o != 1 {
		t.Fatalf("update not served from the overlay: %v delta hits, %v overlay entries", d, o)
	}
	if r, w := out.get("bandana_device_blocks_read_total"), out.get("bandana_device_blocks_written_total"); r != read || w != written {
		t.Fatalf("update touched the device before compaction: %v blocks read, %v written", r, w)
	}

	// Compaction read-modify-writes the one dirty block, straight on the
	// device: one block read, one block written, nothing scheduled.
	if err := store.CompactDeltas(); err != nil {
		t.Fatal(err)
	}
	out = getStats(t, ts.URL)
	if p, d := out.get("bandana_iosched_prefetch_reads_total"), out.get("bandana_iosched_demand_reads_total"); p != 0 || d != 0 {
		t.Fatalf("compaction read through the scheduler: %v prefetch, %v demand reads", p, d)
	}
	r, w, depth := out.get("bandana_device_blocks_read_total"), out.get("bandana_device_blocks_written_total"), out.get("bandana_device_queue_depth_max")
	if r != read+1 || w != written+1 || depth != 1 {
		t.Fatalf("compaction read %v and wrote %v blocks at depth %v, want 1, 1 and 1", r-read, w-written, depth)
	}
	if o, c := out.get("bandana_updatelog_overlay_entries"), out.get("bandana_updatelog_compactions_total"); o != 0 || c != 1 {
		t.Fatalf("overlay not drained by compaction: %v overlay entries after %v compactions", o, c)
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
