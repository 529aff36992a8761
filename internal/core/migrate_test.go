package core

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"bandana/internal/datadir"
	"bandana/internal/nvm"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// migTestTables builds deterministic tables + traces without a *testing.T so
// the crash-injection child process (which runs as its own test) can
// construct the identical store the parent verifies against.
func migTestTables(numTables, vectorsPerTable, queries int) ([]*table.Table, []*trace.Trace) {
	tables := make([]*table.Table, numTables)
	traces := make([]*trace.Trace, numTables)
	for i := 0; i < numTables; i++ {
		p := trace.Profile{
			Name:               fmt.Sprintf("mig%d", i),
			NumVectors:         vectorsPerTable,
			AvgLookups:         20,
			CompulsoryMissFrac: 0.08,
			Locality:           0.9,
			CommunitySize:      64,
			ReuseSkew:          3,
			Seed:               int64(500 + i),
		}
		traces[i] = trace.GenerateTable(p, queries)
		g := table.Generate(p.Name, table.GenerateOptions{
			NumVectors:  vectorsPerTable,
			Dim:         64,
			NumClusters: vectorsPerTable / 64,
			Seed:        int64(40 + i),
			Assignments: trace.CommunityAssignment(p),
		})
		tables[i] = g.Table
	}
	return tables, traces
}

// driveAdaptedMigration opens a file-backed store on dir, records a window
// and runs one adaptation epoch with an aggressive relayout policy, so a
// migration deterministically runs. Shared by the crash child and the
// in-process migration tests.
func driveAdaptedMigration(dir string, tables []*table.Table, traces []*trace.Trace) (*Store, *AdaptEpochReport, error) {
	cfg := Config{Backend: BackendFile, DataDir: dir, Seed: 3, DRAMBudgetVectors: 256, Direct: testDirect()}
	if !DirInitialized(dir) {
		cfg.Tables = tables
	}
	s, err := Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := s.StartAdaptation(AdaptOptions{
		MinQueries:      8,
		RelayoutEvery:   1,
		RelayoutMinGain: 0.01,
		SHPIterations:   8,
	}); err != nil {
		s.Close()
		return nil, nil, err
	}
	for ti, tr := range traces {
		for _, q := range tr.Queries {
			if len(q) == 0 {
				continue
			}
			if _, err := s.LookupBatch(ti, q); err != nil {
				s.Close()
				return nil, nil, err
			}
		}
	}
	rep, err := s.AdaptNow()
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, rep, nil
}

// verifyStoreMatchesTables asserts every vector served by the store equals
// the authoritative table contents — a torn layout would decode garbage.
func verifyStoreMatchesTables(t *testing.T, s *Store, tables []*table.Table) {
	t.Helper()
	for ti, tbl := range tables {
		want := make([]float32, tbl.Dim)
		for id := uint32(0); int(id) < tbl.NumVectors(); id++ {
			got, err := s.Lookup(ti, id)
			if err != nil {
				t.Fatalf("table %d id %d: %v", ti, id, err)
			}
			if err := tbl.VectorInto(want, id); err != nil {
				t.Fatal(err)
			}
			if !vecsEqual(got, want) {
				t.Fatalf("table %d id %d: served vector differs from source after migration", ti, id)
			}
		}
	}
}

// TestLiveRelayoutKeepsServing runs concurrent lookups straight through an
// adaptation epoch that migrates the table, and verifies every result was
// correct and the migration actually happened.
func TestLiveRelayoutKeepsServing(t *testing.T) {
	tables, traces := migTestTables(1, 2048, 200)
	store, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.StartAdaptation(AdaptOptions{
		MinQueries:      8,
		RelayoutEvery:   1,
		RelayoutMinGain: 0.01,
		SHPIterations:   8,
	}); err != nil {
		t.Fatal(err)
	}
	// Record a window first so the epoch has signal.
	for _, q := range traces[0].Queries {
		if len(q) == 0 {
			continue
		}
		if _, err := store.LookupBatch(0, q); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			want := make([]float32, tables[0].Dim)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint32((w*7919 + i) % tables[0].NumVectors())
				got, err := store.Lookup(0, id)
				if err != nil {
					t.Errorf("lookup %d: %v", id, err)
					return
				}
				if err := tables[0].VectorInto(want, id); err != nil {
					t.Error(err)
					return
				}
				if !vecsEqual(got, want) {
					t.Errorf("id %d: wrong vector during live migration", id)
					return
				}
			}
		}(w)
	}
	rep, err := store.AdaptNow()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Tables[0].Relayout {
		t.Fatalf("expected a migration (fanout %.2f -> %.2f)", rep.Tables[0].FanoutBefore, rep.Tables[0].FanoutAfter)
	}
	if rep.Tables[0].FanoutAfter >= rep.Tables[0].FanoutBefore {
		t.Fatalf("migration did not improve fanout: %.2f -> %.2f", rep.Tables[0].FanoutBefore, rep.Tables[0].FanoutAfter)
	}
	verifyStoreMatchesTables(t, store, tables)
	stats := store.AdaptationStats()
	if stats.Relayouts != 1 || stats.Tables[0].Relayouts != 1 {
		t.Fatalf("relayout counters = %d/%d, want 1/1", stats.Relayouts, stats.Tables[0].Relayouts)
	}
	if stats.LastRelayoutDuration <= 0 {
		t.Fatal("LastRelayoutDuration not recorded")
	}
}

// crashUpdate is one update the crash-matrix child acknowledges before it
// starts the layout change.
type crashUpdate struct {
	table int
	id    uint32
	vec   []float32
}

// crashUpdates returns fp16-exact updates to both tables, for ids that land
// in different blocks.
func crashUpdates(tables []*table.Table) []crashUpdate {
	var ups []crashUpdate
	for ti, tbl := range tables {
		for k := 0; k < 5; k++ {
			vec := make([]float32, tbl.Dim)
			for i := range vec {
				vec[i] = float32(100*ti + 10*k + i%7)
			}
			ups = append(ups, crashUpdate{ti, uint32(k*397 + ti), vec})
		}
	}
	return ups
}

// layoutChange returns the operation that gives every table of a store a new
// layout the way driver says: "adapt" records the traces and runs an
// adaptation epoch whose re-layout is all but forced, "train" trains on them,
// "loadstate" loads the state a scratch store trained on them saved (computed
// here, before the caller arms any crash hook). Shared by the crash child and
// by the parent, which runs it to completion to learn the layouts it ends on.
func layoutChange(driver string, tables []*table.Table, traces []*trace.Trace) (func(*Store) error, error) {
	opts := TrainOptions{SHPIterations: 8, MiniCacheSampling: 0.25}
	switch driver {
	case "adapt":
		return func(s *Store) error {
			if err := s.StartAdaptation(AdaptOptions{MinQueries: 8, RelayoutEvery: 1, RelayoutMinGain: 0.01, SHPIterations: 8}); err != nil {
				return err
			}
			for ti, tr := range traces {
				for _, q := range tr.Queries {
					if len(q) == 0 {
						continue
					}
					if _, err := s.LookupBatch(ti, q); err != nil {
						return err
					}
				}
			}
			_, err := s.AdaptNow()
			return err
		}, nil
	case "train":
		return func(s *Store) error {
			_, err := s.Train(traces, opts)
			return err
		}, nil
	case "loadstate":
		scratch, err := Open(Config{Tables: tables, Seed: 3, DRAMBudgetVectors: 256})
		if err != nil {
			return nil, err
		}
		defer scratch.Close()
		if _, err := scratch.Train(traces, opts); err != nil {
			return nil, err
		}
		var state bytes.Buffer
		if err := scratch.SaveState(&state); err != nil {
			return nil, err
		}
		return func(s *Store) error { return s.LoadState(bytes.NewReader(state.Bytes())) }, nil
	}
	return nil, fmt.Errorf("unknown driver %q", driver)
}

// TestMigrationCrashChild is the crash-injection subprocess: on the directory
// named by BANDANA_MIG_CRASH_DIR it acknowledges crashUpdates, starts the
// layout change BANDANA_MIG_CRASH_DRIVER names and SIGKILLs itself when the
// SECOND table's install reaches stage BANDANA_MIG_CRASH_STAGE. Skipped in
// normal runs.
func TestMigrationCrashChild(t *testing.T) {
	dir := os.Getenv("BANDANA_MIG_CRASH_DIR")
	stage := os.Getenv("BANDANA_MIG_CRASH_STAGE")
	driver := os.Getenv("BANDANA_MIG_CRASH_DRIVER")
	if dir == "" || stage == "" {
		t.Skip("crash child only runs under TestMigrationKill9Recovery")
	}
	tables, traces := migTestTables(2, 2048, 200)
	change, err := layoutChange(driver, tables, traces)
	if err != nil {
		t.Fatal(err)
	}
	// SyncAlways: an acknowledged update is a durable one.
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 3,
		DRAMBudgetVectors: 256, Direct: testDirect(), Sync: nvm.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, u := range crashUpdates(tables) {
		if err := s.UpdateVector(u.table, u.id, u.vec); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	migrationCrashHook = func(s string) {
		if s != stage {
			return
		}
		if seen++; seen == 2 {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			time.Sleep(10 * time.Second) // never reached
		}
	}
	defer func() { migrationCrashHook = nil }()
	if err := change(s); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationKill9Recovery injects kill -9 at every stage of a layout
// install (before the commit record, after it, after the copy, after the
// state persist) under each of its three callers, in the second of two
// tables' installs and with acknowledged updates to both outstanding. The
// data dir must reopen without refusal, serve every vector — updates
// included — with each table on exactly its old or its new layout, leave no
// migration files behind and reopen cleanly once more.
func TestMigrationKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	tables, traces := migTestTables(2, 2048, 200)
	want, _ := migTestTables(2, 2048, 200) // what must be served: the tables with the updates applied
	for _, u := range crashUpdates(tables) {
		if err := want[u.table].SetVector(u.id, u.vec); err != nil {
			t.Fatal(err)
		}
	}
	orders := func(s *Store) [][]uint32 {
		out := make([][]uint32, len(s.tables))
		for i, st := range s.tables {
			out[i] = st.loadState().layout.Order()
		}
		return out
	}
	stages := []struct {
		stage string
		// committed says whether the second table's migration record was
		// committed before the kill: the reopen redoes that install and the
		// table lands on its new layout; before it, on its old one.
		committed bool
	}{
		{"image-staged", false},
		{"staged", true},
		{"installed", true},
		{"persisted", true},
	}
	// The layouts an uninterrupted run of each driver starts from and ends on.
	drivers := []string{"adapt", "train", "loadstate"}
	oldOrders, newOrders := map[string][][]uint32{}, map[string][][]uint32{}
	for _, driver := range drivers {
		ref, err := Open(Config{Tables: tables, Seed: 3, DRAMBudgetVectors: 256})
		if err != nil {
			t.Fatal(err)
		}
		oldOrders[driver] = orders(ref)
		change, err := layoutChange(driver, tables, traces)
		if err == nil {
			err = change(ref)
		}
		if err != nil {
			t.Fatal(err)
		}
		newOrders[driver] = orders(ref)
		ref.Close()
		for i := range tables {
			if slices.Equal(oldOrders[driver][i], newOrders[driver][i]) {
				t.Fatalf("%s: table %d did not change layout; nothing to crash", driver, i)
			}
		}
	}
	killAndReopen := func(t *testing.T, stage string, committed bool, driver string) {
		dir := filepath.Join(t.TempDir(), "store")
		// The child manages its own backend (always file); only the
		// direct-vs-buffered choice of the current leg is forwarded.
		childBackend := ""
		if testDirect() {
			childBackend = BackendFile + "-direct"
		}
		cmd := exec.Command(os.Args[0], "-test.run", "^TestMigrationCrashChild$", "-test.v")
		cmd.Env = append(os.Environ(),
			"BANDANA_MIG_CRASH_DIR="+dir,
			"BANDANA_MIG_CRASH_STAGE="+stage,
			"BANDANA_MIG_CRASH_DRIVER="+driver,
			"BANDANA_TEST_BACKEND="+childBackend,
		)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("child survived; stage %q never reached twice:\n%s", stage, out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ProcessState.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("child did not die by SIGKILL: %v\n%s", err, out)
		}

		reopened, err := Open(Config{Backend: BackendFile, DataDir: dir, Seed: 3, Direct: testDirect()})
		if err != nil {
			t.Fatalf("reopen after kill -9 at %q: %v", stage, err)
		}
		defer reopened.Close()
		if reopened.RecoveredMigration() != committed {
			t.Fatalf("RecoveredMigration = %v, want %v", reopened.RecoveredMigration(), committed)
		}
		if committed && reopened.RecoveredMigrationTable() != tables[1].Name {
			t.Fatalf("redid table %q, want %q", reopened.RecoveredMigrationTable(), tables[1].Name)
		}
		verifyStoreMatchesTables(t, reopened, want)
		got := orders(reopened)
		if !slices.Equal(got[0], newOrders[driver][0]) {
			t.Fatal("table 0's install had completed, but it is not on its new layout")
		}
		wantOrder := oldOrders[driver][1]
		if committed {
			wantOrder = newOrders[driver][1]
		}
		if !slices.Equal(got[1], wantOrder) {
			t.Fatalf("table 1 is not on the layout a kill at %q lands on (committed=%v)", stage, committed)
		}

		// The migration files must be gone and a second reopen clean.
		if _, err := os.Stat(filepath.Join(dir, datadir.MigrationManifestName)); !os.IsNotExist(err) {
			t.Fatalf("migration record still present after recovery: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, datadir.MigrationImageName)); !os.IsNotExist(err) {
			t.Fatalf("migration image still present after recovery: %v", err)
		}
		reopened.Close()
		again, err := Open(Config{Backend: BackendFile, DataDir: dir, Seed: 3, Direct: testDirect()})
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		if again.RecoveredMigration() {
			t.Fatal("second reopen still reports a recovered migration")
		}
		verifyStoreMatchesTables(t, again, want)
		again.Close()
	}
	// Stage outside, driver inside: the stage-level names are the ones this
	// test has always reported.
	for _, tc := range stages {
		t.Run(tc.stage, func(t *testing.T) {
			for _, driver := range drivers {
				t.Run(driver, func(t *testing.T) { killAndReopen(t, tc.stage, tc.committed, driver) })
			}
		})
	}
}

// TestMigrationRecoveryIdempotent simulates a crash *during recovery*: the
// first reopen redoes the migration, then the migration record is put back
// and the dir reopened again — the second redo must land on the same state.
func TestMigrationRecoveryIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	tables, traces := migTestTables(1, 2048, 200)

	// Run a full migration but stop before cleanup by copying the staged
	// files away mid-protocol.
	var savedMani, savedImg []byte
	migrationCrashHook = func(s string) {
		if s == "installed" {
			var err error
			savedMani, err = os.ReadFile(filepath.Join(dir, datadir.MigrationManifestName))
			if err != nil {
				t.Errorf("snapshot manifest: %v", err)
			}
			savedImg, err = os.ReadFile(filepath.Join(dir, datadir.MigrationImageName))
			if err != nil {
				t.Errorf("snapshot image: %v", err)
			}
		}
	}
	defer func() { migrationCrashHook = nil }()
	s, rep, err := driveAdaptedMigration(dir, tables, traces)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Tables[0].Relayout {
		t.Fatal("no migration ran")
	}
	s.Close()
	if savedMani == nil || savedImg == nil {
		t.Fatal("migration files were not snapshotted")
	}

	// Re-inject the migration record twice; each reopen must redo it to the
	// same consistent result.
	for round := 0; round < 2; round++ {
		if err := os.WriteFile(filepath.Join(dir, datadir.MigrationImageName), savedImg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, datadir.MigrationManifestName), savedMani, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Config{Backend: BackendFile, DataDir: dir, Seed: 3, Direct: testDirect()})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !re.RecoveredMigration() {
			t.Fatalf("round %d: migration not redone", round)
		}
		verifyStoreMatchesTables(t, re, tables)
		re.Close()
	}
}
