package core

import (
	"errors"
	"path/filepath"
	"testing"
)

// openSnapshotReplica exports src and imports it into a fresh dir, returning
// the reopened (read-only) store.
func openSnapshotReplica(t *testing.T, src *Store) *Store {
	t.Helper()
	snap, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "replica")
	if err := ImportSnapshot(dir, snap, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := Open(Config{Backend: BackendFile, DataDir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

// TestSnapshotRoundTripServesIdenticalVectors trains a store, round-trips it
// through ExportSnapshot/ImportSnapshot and property-checks that the replica
// serves byte-identical vectors for every id of every table.
func TestSnapshotRoundTripServesIdenticalVectors(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 1024, 120)
	src, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 128, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Train(traces, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	forceDemandThreshold(src.tables[0], 4) // a gate to carry, whatever the tuner found

	rep := openSnapshotReplica(t, src)
	if !rep.ReadOnly() {
		t.Fatal("replica store should be read-only")
	}
	for ti := range tables {
		for id := 0; id < tables[ti].NumVectors(); id++ {
			want, err := src.Lookup(ti, uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.Lookup(ti, uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			if !vecsEqual(want, got) {
				t.Fatalf("table %d id %d: replica vector differs from primary", ti, id)
			}
		}
	}

	// The replica also restored the trained metadata, not just the bytes.
	ss, rs := src.Stats(), rep.Stats()
	for i := range ss {
		if ss[i].Threshold != rs[i].Threshold || ss[i].DemandThreshold != rs[i].DemandThreshold || ss[i].Prefetching != rs[i].Prefetching {
			t.Fatalf("table %s: trained state not replicated (threshold %d/%d demand threshold %d/%d prefetch %v/%v)",
				ss[i].Name, ss[i].Threshold, rs[i].Threshold, ss[i].DemandThreshold, rs[i].DemandThreshold, ss[i].Prefetching, rs[i].Prefetching)
		}
	}
	if rs[0].DemandThreshold != 4 {
		t.Fatalf("replica's demand threshold is %d, the primary's 4", rs[0].DemandThreshold)
	}
}

// TestReadOnlyStoreRejectsMutators pins the ErrReadOnly guard on every
// mutator of the servable image.
func TestReadOnlyStoreRejectsMutators(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 512, 60)
	src, err := Open(Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rep := openSnapshotReplica(t, src)

	vec := make([]float32, tables[0].Dim)
	if err := rep.UpdateVector(0, 1, vec); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("UpdateVector on read-only store: %v, want ErrReadOnly", err)
	}
	if _, err := rep.Train(traces, TrainOptions{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Train on read-only store: %v, want ErrReadOnly", err)
	}
	if err := rep.StartAdaptation(AdaptOptions{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("StartAdaptation on read-only store: %v, want ErrReadOnly", err)
	}
	if err := rep.Persist(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Persist on read-only store: %v, want ErrReadOnly", err)
	}
	// Serving still works.
	if _, err := rep.Lookup(0, 3); err != nil {
		t.Fatalf("Lookup on read-only store: %v", err)
	}
	if _, err := rep.LookupBatch(0, []uint32{1, 2, 3}); err != nil {
		t.Fatalf("LookupBatch on read-only store: %v", err)
	}
}

// TestSnapshotSeqAdvancesOnMutation pins the seq contract replicas poll:
// every committed mutation moves it, reads do not.
func TestSnapshotSeqAdvancesOnMutation(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 512, 60)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	seq := s.SnapshotSeq()
	if seq == 0 {
		t.Fatal("snapshot seq must start non-zero")
	}
	if _, err := s.Lookup(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.SnapshotSeq(); got != seq {
		t.Fatalf("seq moved on a read: %d -> %d", seq, got)
	}
	vec := make([]float32, tables[0].Dim)
	if err := s.UpdateVector(0, 1, vec); err != nil {
		t.Fatal(err)
	}
	if got := s.SnapshotSeq(); got != seq+1 {
		t.Fatalf("seq after UpdateVector = %d, want %d", got, seq+1)
	}
	if _, err := s.Train(traces, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := s.SnapshotSeq(); got != seq+2 {
		t.Fatalf("seq after Train = %d, want %d", got, seq+2)
	}
}

// TestImportSnapshotRejectsCorruption flips one byte of the block image and
// expects the import to fail its CRC check.
func TestImportSnapshotRejectsCorruption(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 512, 60)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Blocks[len(snap.Blocks)/2] ^= 0xff
	dir := filepath.Join(t.TempDir(), "corrupt")
	if err := ImportSnapshot(dir, snap, 0); err == nil {
		t.Fatal("import of a corrupted block image must fail")
	}
	if DirInitialized(dir) {
		t.Fatal("failed import must not leave an initialized dir")
	}
}

// TestImportSnapshotRefusesClobber protects an existing store dir.
func TestImportSnapshotRefusesClobber(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 512, 60)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := ImportSnapshot(dir, snap, 0); err == nil {
		t.Fatal("import over an initialized dir must fail")
	}
}

// TestExportSnapshotConsistentUnderUpdates exports while a writer hammers
// UpdateVector; the import must always land on a CRC-consistent image (the
// export excludes updates via the update locks) and reopen cleanly.
func TestExportSnapshotConsistentUnderUpdates(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 512, 60)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		vec := make([]float32, tables[0].Dim)
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vec[0] = float32(i)
			if err := s.UpdateVector(0, i%uint32(tables[0].NumVectors()), vec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 3; round++ {
		rep := openSnapshotReplica(t, s)
		if _, err := rep.Lookup(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}
