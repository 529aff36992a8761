package cluster

import (
	"bytes"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bandana/internal/core"
	"bandana/internal/server"
)

// TestReplicaIncrementalFollow is the regression test for the full-image
// re-sync bug: a replica following a primary under a continuous UpdateVector
// stream must converge by tailing update records —
// no snapshot re-download, no store swap, no 409 restart loop — and the
// catch-up must transfer under 1% of what a full image sync would.
func TestReplicaIncrementalFollow(t *testing.T) {
	const vectorsPerTable = 65536 // 2 tables x 65536 x 128 B = 16 MB image
	primary := buildSizedClusterStore(t, 41, vectorsPerTable)
	node := httptest.NewServer(server.New(primary).Handler())
	defer node.Close()

	rep, first := bootstrapReplica(t, node.URL)
	repSrv := server.New(first)
	defer func() { repSrv.CurrentStore().Close() }()
	bootstrapBytes := rep.Stats().BytesFetched
	if bootstrapBytes == 0 {
		t.Fatal("bootstrap fetched nothing")
	}

	var swaps atomic.Int64
	go rep.Run(func(s *core.Store) {
		swaps.Add(1)
		repSrv.SwapStore(s)
	})
	defer rep.Stop()

	// Continuous update stream: K=1000 updates land while the replica runs.
	const k = 1000
	vec := make([]float32, 64)
	for i := uint32(0); i < k; i++ {
		for d := range vec {
			vec[d] = float32(i%997) + float32(d%5)*0.5
		}
		if err := primary.UpdateVector(int(i)%2, (i*31)%vectorsPerTable, vec); err != nil {
			t.Fatal(err)
		}
	}

	// The replica must converge on the primary's live seq.
	target := primary.SnapshotSeq()
	deadline := time.Now().Add(20 * time.Second)
	for rep.ActiveSeq() != target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, primary at %d (stats: %+v)",
				rep.ActiveSeq(), target, rep.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Replica lookups return the post-update bytes.
	for i := uint32(0); i < k; i += 97 {
		ti, id := int(i)%2, (i*31)%vectorsPerTable
		want, err := primary.Lookup(ti, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := repSrv.CurrentStore().Lookup(ti, id)
		if err != nil {
			t.Fatal(err)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("table %d id %d[%d]: replica serves stale bytes (%v != %v)", ti, id, d, got[d], want[d])
			}
		}
	}

	st := rep.Stats()
	if swaps.Load() != 0 {
		t.Fatalf("replica swapped stores %d times; catch-up must be incremental (stats: %+v)", swaps.Load(), st)
	}
	if st.Syncs != 1 {
		t.Fatalf("full syncs = %d, want the bootstrap only (stats: %+v)", st.Syncs, st)
	}
	if st.SyncRestarts != 0 || st.SyncStalled {
		t.Fatalf("restart loop under a plain update stream: %+v", st)
	}
	if st.DeltaBatches == 0 || st.DeltaRecords != k {
		t.Fatalf("delta tail applied %d records in %d batches, want %d records (stats: %+v)",
			st.DeltaRecords, st.DeltaBatches, k, st)
	}
	// The transfer-size claim: catching up K updates moved <1% of a full
	// image sync (bootstrapBytes is exactly that cost, measured).
	if st.DeltaBytes*100 >= bootstrapBytes {
		t.Fatalf("catch-up moved %d bytes, want <1%% of the %d-byte full sync", st.DeltaBytes, bootstrapBytes)
	}

	// A structural mutation still forces the full-snapshot path: the window
	// resets, the replica falls back, re-syncs, and swaps exactly once.
	// (LoadState rewrites the layout and invalidates the update window.)
	var state bytes.Buffer
	if err := primary.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	if err := primary.LoadState(&state); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(20 * time.Second)
	for swaps.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never full-synced after a structural mutation (stats: %+v)", rep.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := rep.Stats().Syncs; got != 2 {
		t.Fatalf("syncs after structural mutation = %d, want 2", got)
	}
}
