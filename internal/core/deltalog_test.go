package core

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bandana/internal/datadir"
	"bandana/internal/fp16"
	"bandana/internal/nvm"
)

// testVec builds a dim-length vector of fp16-exact values derived from tag,
// so a lookup after UpdateVector must reproduce it bit-for-bit.
func testVec(dim int, tag uint32) []float32 {
	v := make([]float32, dim)
	for d := range v {
		v[d] = float32(int32(tag%997)) + float32(d%7)*0.5
	}
	return v
}

func TestUpdateRecordRoundTrip(t *testing.T) {
	rec := datadir.UpdateRecord{Seq: 42, Table: 3, ID: 12345, Raw: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	buf := datadir.EncodeUpdateRecord(nil, rec)
	if len(buf) != datadir.EncodedUpdateLen(len(rec.Raw)) {
		t.Fatalf("encoded length %d, want %d", len(buf), datadir.EncodedUpdateLen(len(rec.Raw)))
	}
	got, n, err := datadir.DecodeUpdateRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d bytes, want %d", n, len(buf))
	}
	if got.Seq != rec.Seq || got.Table != rec.Table || got.ID != rec.ID || !bytes.Equal(got.Raw, rec.Raw) {
		t.Fatalf("decode mismatch: %+v != %+v", got, rec)
	}
	// Concatenated records decode in sequence.
	rec2 := datadir.UpdateRecord{Seq: 43, Table: 0, ID: 7, Raw: []byte{9, 9}}
	stream := datadir.EncodeUpdateRecord(buf, rec2)
	first, n1, err := datadir.DecodeUpdateRecord(stream)
	if err != nil || first.Seq != 42 {
		t.Fatalf("first record: %+v, %v", first, err)
	}
	second, _, err := datadir.DecodeUpdateRecord(stream[n1:])
	if err != nil || second.Seq != 43 || !bytes.Equal(second.Raw, rec2.Raw) {
		t.Fatalf("second record: %+v, %v", second, err)
	}
	// A flipped payload bit must fail the record CRC.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-6] ^= 0x40
	if _, _, err := datadir.DecodeUpdateRecord(bad); err == nil {
		t.Fatal("corrupt record should fail CRC")
	}
	// A truncated buffer must error, not panic.
	if _, _, err := datadir.DecodeUpdateRecord(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated record should error")
	}
}

// TestDeltaUpdateServing pins the overlay read path: after UpdateVector the
// new bytes are served by single lookups, batch lookups and raw batch
// lookups — including for IDs whose block was already cached — and the
// Hits+Misses==Lookups accounting invariant still holds.
func TestDeltaUpdateServing(t *testing.T) {
	tables, _ := buildTestTables(t, 2, 2048, 10)
	s, err := Open(testBackendConfig(t, Config{
		Tables:            tables,
		DRAMBudgetVectors: 256,
		Seed:              1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := []uint32{0, 1, 31, 32, 900, 2047}
	// Warm the cache for half of them so the overlay must win over both the
	// cached copy and the block image.
	for _, id := range ids[:3] {
		if _, err := s.Lookup(0, id); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[uint32][]float32)
	for _, id := range ids {
		vec := testVec(64, id+5000)
		if err := s.UpdateVector(0, id, vec); err != nil {
			t.Fatal(err)
		}
		want[id] = vec
	}
	for _, id := range ids {
		got, err := s.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(got, want[id]) {
			t.Fatalf("lookup(%d) returned stale bytes after update", id)
		}
	}
	batch, err := s.LookupBatch(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !vecsEqual(batch[i], want[id]) {
			t.Fatalf("batch lookup(%d) returned stale bytes after update", id)
		}
	}
	if _, err := s.LookupBatchRaw(0, ids); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()[0]
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("accounting broke: hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
	if st.DeltaHits == 0 {
		t.Fatal("expected some lookups to be served from the delta overlay")
	}
	if st.OverlayEntries != len(ids) {
		t.Fatalf("overlay entries = %d, want %d", st.OverlayEntries, len(ids))
	}
	ls := s.UpdateLogStats()
	if ls.Appends != int64(len(ids)) {
		t.Fatalf("update log stats: %+v, want %d appends", ls, len(ids))
	}
	// The other table's counters and overlay are untouched.
	if other := s.Stats()[1]; other.OverlayEntries != 0 {
		t.Fatalf("table 1 overlay entries = %d, want 0", other.OverlayEntries)
	}
}

// TestDeltaOnOffEquivalence checks the update path against a plain
// map[id]vector model in both states a vector can be served from: straight
// after the updates (overlay-served) and after CompactDeltas has folded the
// overlay away (image-served). Every id of the table — updated or not — must
// read back the model's vector in both.
func TestDeltaOnOffEquivalence(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 10)
	// The store's source table takes every update; the model starts from an
	// identically generated pristine copy.
	pristine, _ := buildTestTables(t, 1, 1024, 10)
	model := make(map[uint32][]float32, 1024)
	for id := uint32(0); id < 1024; id++ {
		v, err := pristine[0].Vector(id)
		if err != nil {
			t.Fatal(err)
		}
		model[id] = v
	}
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 128, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := uint32(0); i < 300; i++ {
		id := (i * 37) % 1024
		model[id] = testVec(64, i)
		if err := s.UpdateVector(0, id, model[id]); err != nil {
			t.Fatal(err)
		}
	}
	checkAll := func(state string) {
		t.Helper()
		for id := uint32(0); id < 1024; id++ {
			got, err := s.Lookup(0, id)
			if err != nil {
				t.Fatal(err)
			}
			if !vecsEqual(got, model[id]) {
				t.Fatalf("%s: id %d diverges from the model", state, id)
			}
		}
	}
	checkAll("overlay-served")
	overlayHits := s.Stats()[0].DeltaHits
	if overlayHits == 0 {
		t.Fatal("no lookup was served from the overlay before compaction")
	}
	if err := s.CompactDeltas(); err != nil {
		t.Fatal(err)
	}
	if n := s.UpdateLogStats().OverlayEntries; n != 0 {
		t.Fatalf("overlay holds %d entries after compaction, want 0", n)
	}
	checkAll("image-served")
	if got := s.Stats()[0].DeltaHits; got != overlayHits {
		t.Fatalf("%d lookups hit the overlay after compaction emptied it", got-overlayHits)
	}
}

// TestDeltaCompaction folds the overlay into the block image and checks the
// overlay drains, the compaction is durable, and lookups keep serving the
// updated bytes throughout.
func TestDeltaCompaction(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 2048, 10)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{
		Backend:           BackendFile,
		DataDir:           dir,
		Tables:            tables,
		DRAMBudgetVectors: 128,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint32][]float32)
	for i := uint32(0); i < 500; i++ {
		id := (i * 13) % 2048
		vec := testVec(64, i+1)
		if err := s.UpdateVector(0, id, vec); err != nil {
			t.Fatal(err)
		}
		want[id] = vec
	}
	if err := s.CompactDeltas(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats()[0]; st.OverlayEntries != 0 {
		t.Fatalf("overlay entries after compaction = %d, want 0", st.OverlayEntries)
	}
	ls := s.UpdateLogStats()
	if ls.Compactions == 0 {
		t.Fatalf("compactions = 0 after CompactDeltas; stats %+v", ls)
	}
	for id, vec := range want {
		got, err := s.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(got, vec) {
			t.Fatalf("lookup(%d) lost the update after compaction", id)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted image is durable: a reopen (Tables nil) serves the
	// updated bytes from the block file alone.
	s2, err := Open(Config{Backend: BackendFile, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for id, vec := range want {
		got, err := s2.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(got, vec) {
			t.Fatalf("reopened lookup(%d) lost the compacted update", id)
		}
	}
}

// TestUpdateLogCrashReplay simulates a crash between update and compaction:
// the on-disk log survives and a reopen replays it over the block image.
func TestUpdateLogCrashReplay(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 10)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{
		Backend: BackendFile,
		DataDir: dir,
		Tables:  tables,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint32][]float32)
	for i := uint32(0); i < 64; i++ {
		id := i * 16
		vec := testVec(64, i+77)
		if err := s.UpdateVector(0, id, vec); err != nil {
			t.Fatal(err)
		}
		want[id] = vec
	}
	if err := s.Persist(); err != nil { // fsync the log tail
		t.Fatal(err)
	}
	// Crash: drop the store without compaction (Close keeps the log file;
	// only replay removes it).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, datadir.UpdateLogFileName)); err != nil {
		t.Fatalf("update log should survive close: %v", err)
	}
	s2, err := Open(Config{Backend: BackendFile, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.UpdateLogStats().RecoveredRecords; got != int64(len(want)) {
		t.Fatalf("recovered %d records, want %d", got, len(want))
	}
	for id, vec := range want {
		got, err := s2.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(got, vec) {
			t.Fatalf("lookup(%d) lost the update across the crash", id)
		}
	}
	// Replay consumed the log; a fresh one took its place.
	raw, err := os.ReadFile(filepath.Join(dir, datadir.UpdateLogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if through, recs, err := datadir.ParseUpdateLog(raw); err != nil || len(recs) != 0 {
		t.Fatalf("fresh log after replay: through=%d recs=%d err=%v", through, len(recs), err)
	}
}

// TestUpdateLogSurvivesStructuralMutation: Train rewrites (and folds the
// overlay of) only the tables it has a trace for, so resetting the follower
// window for it must not drop the on-disk records that are the only durable
// copy of another table's uncompacted updates.
func TestUpdateLogSurvivesStructuralMutation(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 1024, 40)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{Backend: BackendFile, DataDir: dir, Tables: tables, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vec := testVec(64, 9)
	if err := s.UpdateVector(1, 5, vec); err != nil {
		t.Fatal(err)
	}
	traces[1] = nil // table 1 rides along untouched
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.UpdatesSince(s.SnapshotSeq()-2, 0, 0); ok {
		t.Fatal("followers can tail across a Train")
	}
	// Crash before any compaction: Close keeps the log file as it is.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Backend: BackendFile, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Lookup(1, 5); err != nil || !vecsEqual(got, vec) {
		t.Fatalf("the update of the untrained table did not survive Train + crash (err %v)", err)
	}
}

// TestReopenSeqMonotonic pins the seq contract across a restart: a reopened
// store must never report a snapshot seq below one it already handed out.
// The boot stamp alone has one-second granularity, so a same-second reopen
// used to come back at (or below) the pre-restart seq — replicas would
// "re-sync" backward to a seq whose content had since changed, and new
// updates would re-issue already-served seqs. The replayed update log floors
// the reopened seq instead.
func TestReopenSeqMonotonic(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 10)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{
		Backend: BackendFile,
		DataDir: dir,
		Tables:  tables,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 32; i++ {
		if err := s.UpdateVector(0, i, testVec(64, i)); err != nil {
			t.Fatal(err)
		}
	}
	lastSeq := s.SnapshotSeq()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen immediately — almost always within the same wall-clock second,
	// the case the boot stamp cannot disambiguate on its own.
	s2, err := Open(Config{Backend: BackendFile, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.SnapshotSeq(); got < lastSeq {
		t.Fatalf("reopened seq %d regressed below pre-restart seq %d", got, lastSeq)
	}
	if err := s2.UpdateVector(0, 5, testVec(64, 999)); err != nil {
		t.Fatal(err)
	}
	if got := s2.SnapshotSeq(); got <= lastSeq {
		t.Fatalf("post-reopen update re-issued seq %d (pre-restart seq was %d)", got, lastSeq)
	}
}

// TestReplicaReopenInheritsSeq pins the replica half of the seq contract: a
// store reopened with an explicit InitialSnapshotSeq (cluster's
// Replica.openSnapshot passing the primary's seq) must come up AT that seq,
// not at a fresh local boot stamp. A boot stamp taken now exceeds every seq
// the primary will ever send, so ApplyReplicatedUpdates' advanceSeq would
// never move, the replica's reported seq would freeze (a chained follower
// would think itself caught up forever), and the fresh update log's
// compacted-through watermark would sit above records appended after it,
// which crash replay would then skip.
func TestReplicaReopenInheritsSeq(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 512, 10)
	primary, err := Open(Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	dim := tables[0].Dim
	for i := uint32(0); i < 8; i++ {
		if err := primary.UpdateVector(0, i, testVec(dim, i)); err != nil {
			t.Fatal(err)
		}
	}
	primarySeq := primary.SnapshotSeq()

	snap, err := primary.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "replica")
	if err := ImportSnapshot(dir, snap, 0); err != nil {
		t.Fatal(err)
	}
	open := func() *Store {
		rep, err := Open(Config{
			Backend: BackendFile, DataDir: dir, ReadOnly: true,
			InitialSnapshotSeq: snap.Seq,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep := open()
	if got := rep.SnapshotSeq(); got != primarySeq {
		t.Fatalf("replica opened at seq %d, want inherited primary seq %d", got, primarySeq)
	}
	recs := []datadir.UpdateRecord{
		{Seq: primarySeq + 1, Table: 0, ID: 3, Raw: fp16.EncodeSlice(nil, testVec(dim, 1001))},
		{Seq: primarySeq + 2, Table: 0, ID: 4, Raw: fp16.EncodeSlice(nil, testVec(dim, 1002))},
	}
	if err := rep.ApplyReplicatedUpdates(recs); err != nil {
		t.Fatal(err)
	}
	if got := rep.SnapshotSeq(); got != primarySeq+2 {
		t.Fatalf("replica seq %d after applying updates, want %d", got, primarySeq+2)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart reusing the same dir (the kill -9 path): the re-logged records
	// floor the seq above the unchanged override, replay restores their
	// bytes, and the stream keeps advancing where it left off.
	rep = open()
	defer rep.Close()
	if got := rep.SnapshotSeq(); got != primarySeq+2 {
		t.Fatalf("reopened replica at seq %d, want replayed seq %d", got, primarySeq+2)
	}
	got, err := rep.Lookup(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsEqual(got, testVec(dim, 1001)) {
		t.Fatal("reopened replica does not serve the replicated bytes")
	}
	if err := rep.ApplyReplicatedUpdates([]datadir.UpdateRecord{
		{Seq: primarySeq + 3, Table: 0, ID: 5, Raw: fp16.EncodeSlice(nil, testVec(dim, 1003))},
	}); err != nil {
		t.Fatal(err)
	}
	if got := rep.SnapshotSeq(); got != primarySeq+3 {
		t.Fatalf("replica seq %d after post-restart update, want %d", got, primarySeq+3)
	}
}

// TestDeltaConcurrentUpdatesAndLookups stresses the overlay under parallel
// writers, readers and compactions: per-id last-writer-wins must hold, no
// lookup may error, and the accounting invariant must survive.
func TestDeltaConcurrentUpdatesAndLookups(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 4096, 10)
	s, err := Open(testBackendConfig(t, Config{
		Tables: tables, DRAMBudgetVectors: 256, Seed: 5,
		// A tiny window keeps background compactions firing mid-stream.
		UpdateLog: UpdateLogOptions{CompactAfter: 64, RetainRecords: 256},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// span < perWriter, so every id is rewritten several times in
	// ascending tag order.
	const writers, perWriter, span = 4, 400, 100
	var wg sync.WaitGroup
	errs := make(chan error, writers*2+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) { // each writer owns a disjoint id range
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint32(w*span + i%span)
				if err := s.UpdateVector(0, id, testVec(64, uint32(w*perWriter+i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) { // readers sweep the same range concurrently
			defer wg.Done()
			ids := make([]uint32, 32)
			for i := 0; i < perWriter/4; i++ {
				for j := range ids {
					ids[j] = uint32(w*span + (i*7+j)%span)
				}
				if _, err := s.LookupBatch(0, ids); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.CompactDeltas(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Last writer wins per id (ids are disjoint across writers, written in
	// ascending tag order).
	for w := 0; w < writers; w++ {
		for _, i := range []int{perWriter - 1, perWriter - 7} {
			id := uint32(w*span + i%span)
			got, err := s.Lookup(0, id)
			if err != nil {
				t.Fatal(err)
			}
			if !vecsEqual(got, testVec(64, uint32(w*perWriter+i))) {
				t.Fatalf("writer %d id %d: lost the last update", w, id)
			}
		}
	}
	st := s.Stats()[0]
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("accounting broke: hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
}

// TestUpdatesSinceWindow pins the seq->records contract the replication
// endpoint builds on.
func TestUpdatesSinceWindow(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 1024, 10)
	s, err := Open(Config{Tables: tables, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := s.SnapshotSeq()
	const n = 20
	for i := uint32(0); i < n; i++ {
		if err := s.UpdateVector(0, i, testVec(64, i)); err != nil {
			t.Fatal(err)
		}
	}
	recs, upTo, ok := s.UpdatesSince(base, 0, 0)
	if !ok || len(recs) != n || upTo != base+n {
		t.Fatalf("since(base): ok=%v len=%d upTo=%d, want %d records up to %d", ok, len(recs), upTo, n, base+n)
	}
	for i, rec := range recs {
		if rec.Seq != base+uint64(i)+1 {
			t.Fatalf("record %d has seq %d, want %d (contiguous)", i, rec.Seq, base+uint64(i)+1)
		}
		if rec.ID != uint32(i) {
			t.Fatalf("record %d is for id %d, want %d", i, rec.ID, i)
		}
	}
	// Mid-window tail.
	recs, upTo, ok = s.UpdatesSince(base+15, 0, 0)
	if !ok || len(recs) != 5 || upTo != base+n {
		t.Fatalf("since(base+15): ok=%v len=%d upTo=%d", ok, len(recs), upTo)
	}
	// maxRecords caps the batch; upTo reflects the cut.
	recs, upTo, ok = s.UpdatesSince(base, 7, 0)
	if !ok || len(recs) != 7 || upTo != base+7 {
		t.Fatalf("since(base, max 7): ok=%v len=%d upTo=%d", ok, len(recs), upTo)
	}
	// Caught up: empty batch, upTo == since.
	recs, upTo, ok = s.UpdatesSince(base+n, 0, 0)
	if !ok || len(recs) != 0 || upTo != base+n {
		t.Fatalf("since(head): ok=%v len=%d upTo=%d", ok, len(recs), upTo)
	}
	// Before the window: full sync required.
	if _, _, ok := s.UpdatesSince(base-1, 0, 0); base > 0 && ok {
		t.Fatal("since before the window should report ok=false")
	}
	// A structural mutation (Train) resets the window: old seqs fall out.
	if _, err := s.Train(traces, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.UpdatesSince(base+n, 0, 0); ok {
		t.Fatal("pre-mutation seq should be outside the window after Train")
	}
	if _, _, ok := s.UpdatesSince(s.SnapshotSeq(), 0, 0); !ok {
		t.Fatal("current seq must re-enter the window after a mutation")
	}
}

// TestUpdateCatchUpTransferSize pins the bugfix's core claim: catching up
// K=1000 updates over the incremental stream moves on the order of
// K·recordBytes, under 1% of the full block image.
func TestUpdateCatchUpTransferSize(t *testing.T) {
	tables, _ := buildTestTables(t, 4, 65536, 10)
	s, err := Open(Config{Tables: tables, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := s.SnapshotSeq()
	const k = 1000
	for i := uint32(0); i < k; i++ {
		if err := s.UpdateVector(int(i)%4, i%65536, testVec(64, i)); err != nil {
			t.Fatal(err)
		}
	}
	recs, upTo, ok := s.UpdatesSince(base, k, 1<<30)
	if !ok || len(recs) != k || upTo != base+k {
		t.Fatalf("catch-up batch: ok=%v len=%d upTo=%d", ok, len(recs), upTo)
	}
	transfer := 0
	for _, rec := range recs {
		transfer += datadir.EncodedUpdateLen(len(rec.Raw))
	}
	image := s.device.NumBlocks() * nvm.BlockSize
	if transfer >= image/100 {
		t.Fatalf("catch-up moved %d bytes, want < 1%% of the %d-byte image", transfer, image)
	}
}

// TestOverlayFilterNeverHidesAnEntry drives one overlay through random puts,
// batch deletes of folded snapshots (some entries re-put in between, so
// their newer seq survives) and clears, over ids that collide in the filter
// (equal mod overlayFilterBits, or sharing a word). After every operation
// get and contains must agree with a model map for every id, and after a
// delete or a clear the filter must hold exactly the remaining ids' bits. A
// delete that clears a deleted id's bit while another overlaid id shares it
// hides that id.
func TestOverlayFilterNeverHidesAnEntry(t *testing.T) {
	var ids []uint32
	for _, b := range []uint32{0, 1, 63, 64, 4095} {
		for k := uint32(0); k < 4; k++ {
			ids = append(ids, b+k*overlayFilterBits)
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		o := newDeltaOverlay()
		model := map[uint32]overlayEntry{}
		var seq uint64
		put := func(id uint32) {
			seq++
			raw := []byte{byte(seq), byte(seq >> 8)}
			o.put(id, raw, seq)
			model[id] = overlayEntry{raw: raw, seq: seq}
		}
		for op := 0; op < 2000; op++ {
			exact := false
			switch r := rng.IntN(100); {
			case r < 55:
				put(ids[rng.IntN(len(ids))])
			case r < 95:
				folded := o.snapshot()
				for id := range folded {
					if rng.IntN(3) == 0 {
						delete(folded, id) // not folded this time
					}
				}
				for id := range folded {
					if rng.IntN(4) == 0 {
						put(id) // updated again while compaction ran
					}
				}
				o.deleteFolded(folded)
				for id, e := range folded {
					if model[id].seq == e.seq {
						delete(model, id)
					}
				}
				exact = true
			default:
				o.clear()
				clear(model)
				exact = true
			}
			for _, id := range ids {
				want, ok := model[id]
				if got := o.get(id); ok != (got != nil) || ok && !bytes.Equal(got, want.raw) {
					t.Fatalf("seed %d op %d: get(%d) = %v, model holds %v (%v)", seed, op, id, got, want.raw, ok)
				}
				if got := o.contains(id); got != ok {
					t.Fatalf("seed %d op %d: contains(%d) = %v, model %v", seed, op, id, got, ok)
				}
			}
			if o.size() != len(model) {
				t.Fatalf("seed %d op %d: size %d, model %d", seed, op, o.size(), len(model))
			}
			if f := o.filter.Load(); exact && f != nil {
				var want overlayFilter
				for id := range model {
					w, b := filterBit(id)
					want[w].Store(want[w].Load() | b)
				}
				for w := range f {
					if f[w].Load() != want[w].Load() {
						t.Fatalf("seed %d op %d: filter word %d is %#x, the remaining ids' bits are %#x", seed, op, w, f[w].Load(), want[w].Load())
					}
				}
			}
		}
	}
}
