package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/build"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"bandana/internal/datadir"
	"bandana/internal/layout"
	"bandana/internal/nvm"
	"bandana/internal/trace"
)

// testBackendConfig adjusts cfg to the backend selected by the
// BANDANA_TEST_BACKEND environment variable, which CI uses to run the core
// suite against every backend. Default (unset or "mem") leaves cfg alone;
// "file" switches to the durable backend over a per-test temp dir;
// "file-direct" additionally opens the block file with O_DIRECT (tests are
// skipped with a notice where the filesystem rejects it).
func testBackendConfig(t testing.TB, cfg Config) Config {
	t.Helper()
	switch os.Getenv("BANDANA_TEST_BACKEND") {
	case BackendFile:
		cfg.Backend = BackendFile
		cfg.DataDir = filepath.Join(t.TempDir(), "store")
	case BackendFile + "-direct":
		dir := t.TempDir()
		if !nvm.DirectIOSupported(dir) {
			t.Skipf("skipping: filesystem at %s rejects O_DIRECT", dir)
		}
		cfg.Backend = BackendFile
		cfg.DataDir = filepath.Join(dir, "store")
		cfg.Direct = true
	}
	return cfg
}

// testDirect reports whether the suite runs its O_DIRECT leg; tests that
// build explicit file-backed Configs pass it as Config.Direct so the direct
// leg exercises them too.
func testDirect() bool {
	return os.Getenv("BANDANA_TEST_BACKEND") == BackendFile+"-direct"
}

func vecsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(float64(a[i])) && math.IsNaN(float64(b[i]))) {
			return false
		}
	}
	return true
}

// TestCrossBackendStoreEquivalence trains and serves the identical workload
// on a mem-backed and a file-backed store and asserts they are
// indistinguishable: same lookup results, same hit ratios, same per-table
// counters, and byte-identical NVM block images.
func TestCrossBackendStoreEquivalence(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 2048, 150)

	memStore, err := Open(Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer memStore.Close()
	fileStore, err := Open(Config{
		Tables:            tables,
		DRAMBudgetVectors: 256,
		Seed:              7,
		Backend:           BackendFile,
		DataDir:           filepath.Join(t.TempDir(), "store"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fileStore.Close()

	if _, err := memStore.Train(traces, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fileStore.Train(traces, TrainOptions{}); err != nil {
		t.Fatal(err)
	}

	// Serve the same query stream on both and compare every result.
	for ti, tr := range traces {
		for qi, q := range tr.Queries {
			if qi >= 60 {
				break
			}
			mv, err := memStore.LookupBatch(ti, q)
			if err != nil {
				t.Fatal(err)
			}
			fv, err := fileStore.LookupBatch(ti, q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range mv {
				if !vecsEqual(mv[i], fv[i]) {
					t.Fatalf("table %d query %d id %d: backends return different vectors", ti, qi, q[i])
				}
			}
		}
	}

	// Serving counters (and therefore hit ratios) must match exactly: the
	// trained layouts, thresholds and cache decisions are seed-deterministic
	// and independent of the backing medium.
	ms, fs := memStore.Stats(), fileStore.Stats()
	for i := range ms {
		if ms[i].Lookups != fs[i].Lookups || ms[i].Hits != fs[i].Hits ||
			ms[i].Misses != fs[i].Misses || ms[i].BlockReads != fs[i].BlockReads {
			t.Fatalf("table %s counters diverge: mem %+v file %+v", ms[i].Name, ms[i], fs[i])
		}
		if ms[i].HitRate != fs[i].HitRate {
			t.Fatalf("table %s hit ratio diverges: %v vs %v", ms[i].Name, ms[i].HitRate, fs[i].HitRate)
		}
		if ms[i].Threshold != fs[i].Threshold || ms[i].DemandThreshold != fs[i].DemandThreshold || ms[i].Prefetching != fs[i].Prefetching {
			t.Fatalf("table %s trained state diverges", ms[i].Name)
		}
	}

	// And the raw block images are byte-identical.
	if memStore.Device().NumBlocks() != fileStore.Device().NumBlocks() {
		t.Fatalf("device sizes diverge")
	}
	mb := make([]byte, nvm.BlockSize)
	fb := make([]byte, nvm.BlockSize)
	for b := 0; b < memStore.Device().NumBlocks(); b++ {
		if _, err := memStore.Device().ReadBlock(b, mb); err != nil {
			t.Fatal(err)
		}
		if _, err := fileStore.Device().ReadBlock(b, fb); err != nil {
			t.Fatal(err)
		}
		for i := range mb {
			if mb[i] != fb[i] {
				t.Fatalf("block %d byte %d diverges between backends", b, i)
			}
		}
	}
}

// TestFileBackendReopenServesWithoutRetraining is the durability acceptance
// path: init a data dir, train, kill the store, reopen with no tables and no
// training, and get identical vectors and trained behaviour back.
func TestFileBackendReopenServesWithoutRetraining(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 2048, 150)
	dir := filepath.Join(t.TempDir(), "store")

	// The budget is one the tuner turns prefetching on at for both tables
	// (checked before the close below), so the reopen shows it survives.
	// At 384 the allocator gives table tB 100 vectors and the tuner turns its
	// prefetching off.
	s, err := Open(Config{
		Tables:            tables,
		DRAMBudgetVectors: 512,
		Seed:              3,
		Backend:           BackendFile,
		DataDir:           dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !DirInitialized(dir) {
		t.Fatal("data dir not initialized by Open")
	}
	report, err := s.Train(traces, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite one vector after training: the update must survive too.
	updated := make([]float32, tables[0].Dim)
	for i := range updated {
		updated[i] = float32(i) / 4 // fp16-exact
	}
	if err := s.UpdateVector(0, 42, updated); err != nil {
		t.Fatal(err)
	}

	type probe struct {
		table int
		id    uint32
	}
	probes := []probe{{0, 0}, {0, 42}, {0, 2047}, {1, 1}, {1, 777}, {1, 1500}}
	want := make([][]float32, len(probes))
	for i, p := range probes {
		vec, err := s.Lookup(p.table, p.id)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float32(nil), vec...)
	}
	wantStats := s.Stats()
	for _, st := range wantStats {
		if !st.Prefetching {
			t.Fatalf("table %s trained prefetch-free: the reopen could not show prefetching survives", st.Name)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: no Tables, no Train.
	r, err := Open(Config{Backend: BackendFile, DataDir: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumTables() != 2 {
		t.Fatalf("reopened with %d tables", r.NumTables())
	}
	for i, p := range probes {
		vec, err := r.Lookup(p.table, p.id)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(vec, want[i]) {
			t.Fatalf("table %d id %d: vector changed across restart", p.table, p.id)
		}
	}
	rs := r.Stats()
	for i := range rs {
		if !rs[i].Prefetching {
			t.Fatalf("table %s: prefetching lost across restart", rs[i].Name)
		}
		if rs[i].Threshold != wantStats[i].Threshold {
			t.Fatalf("table %s: threshold %d != %d across restart", rs[i].Name, rs[i].Threshold, wantStats[i].Threshold)
		}
		if rs[i].CacheVectors != wantStats[i].CacheVectors {
			t.Fatalf("table %s: cache allocation %d != %d across restart", rs[i].Name, rs[i].CacheVectors, wantStats[i].CacheVectors)
		}
		if rs[i].Policy != "threshold-admit" {
			t.Fatalf("table %s: policy %q after reopen", rs[i].Name, rs[i].Policy)
		}
		if rs[i].Threshold != report.Tables[i].Threshold || rs[i].DemandThreshold != report.Tables[i].DemandThreshold {
			t.Fatalf("table %s: reopened thresholds differ from training report", rs[i].Name)
		}
	}
	if got := r.DeviceStats().Store.Backend; got != "file" {
		t.Fatalf("backend reported as %q", got)
	}
}

// TestFileBackendUntrainedReopen covers a dir that was initialized but never
// trained: reopen restores identity layouts and baseline caching.
func TestFileBackendUntrainedReopen(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 512, 10)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	origin, err := s.Lookup(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	origin = append([]float32(nil), origin...)
	s.Close()

	r, err := Open(Config{Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	vec, err := r.Lookup(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsEqual(vec, origin) {
		t.Fatal("untrained vectors changed across restart")
	}
	if st := r.Stats()[0]; st.Prefetching {
		t.Fatal("untrained reopen must not enable prefetching")
	}
}

func TestFileBackendValidation(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 256, 5)
	if _, err := Open(Config{Tables: tables, Backend: BackendFile}); err == nil {
		t.Fatal("file backend without DataDir must error")
	}
	if _, err := Open(Config{Tables: tables, DataDir: t.TempDir()}); err == nil {
		t.Fatal("DataDir with mem backend must error")
	}
	if _, err := Open(Config{Tables: tables, Backend: "tape"}); err == nil {
		t.Fatal("unknown backend must error")
	}
	dev := nvm.NewDevice(nvm.DeviceConfig{NumBlocks: 64})
	defer dev.Close()
	if _, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: t.TempDir(), Device: dev}); err == nil {
		t.Fatal("file backend with explicit Device must error")
	}

	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1}); err == nil {
		t.Fatal("reopening an initialized dir with Tables set must error")
	}

	// A failure inside the init sequence (here: the baseline Persist, which
	// a read-only store refuses) must propagate — not be swallowed leaving
	// a manifest-less dir that claims to be an initialized store.
	roDir := filepath.Join(t.TempDir(), "ro")
	if _, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: roDir, Seed: 1, ReadOnly: true}); err == nil {
		t.Fatal("initializing a fresh dir read-only must error (baseline persist cannot run)")
	}
	if DirInitialized(roDir) {
		t.Fatal("failed init left a committed manifest behind")
	}
}

func TestFileBackendRejectsCorruptManifest(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 256, 5)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, datadir.ManifestFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Backend: BackendFile, DataDir: dir}); err == nil {
		t.Fatal("corrupt manifest must be rejected")
	}
}

// TestFileBackendInterruptedRewriteDetected: a completed Train leaves no
// migration files behind, and a data dir reopens whatever other files sit in
// it — an interrupted layout install is detected by its migration record and
// redone (TestMigrationKill9Recovery), never refused. A "rewrite.dirty" file,
// which binaries older than the staged install protocol left, no longer
// means anything.
func TestFileBackendInterruptedRewriteDetected(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 512, 40)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(traces, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{datadir.MigrationManifestName, datadir.MigrationImageName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s present after a completed Train: %v", name, err)
		}
	}
	want, err := s.Lookup(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	if err := os.WriteFile(filepath.Join(dir, "rewrite.dirty"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := r.Lookup(0, 7); err != nil || !vecsEqual(got, want) {
		t.Fatalf("reopened dir serves %v (%v), want %v", got, err, want)
	}
}

// readFailStore is a MemStore whose batched reads fail while armed for a
// block at or past failFrom (0: never).
type readFailStore struct {
	*nvm.MemStore
	failFrom atomic.Int64
}

func (f *readFailStore) ReadBlocks(idxs []int, dst []byte) error {
	if from := f.failFrom.Load(); from > 0 {
		for _, idx := range idxs {
			if int64(idx) >= from {
				return fmt.Errorf("injected read failure at block %d", idx)
			}
		}
	}
	return f.MemStore.ReadBlocks(idxs, dst)
}

// TestTrainComputeFailureTouchesNothing: Train computes first and commits
// after. A failure while computing (SHP rejecting the second table's trace)
// leaves the device, the data dir and the trained state exactly as they
// were; a failure in the second table's install (its render cannot read the
// blocks) returns the error with the first table on its new layout, the
// second on its old one, and both serving every vector.
func TestTrainComputeFailureTouchesNothing(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 512, 40)

	t.Run("compute", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "store")
		s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1, Direct: testDirect()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.UpdateVector(1, 7, make([]float32, tables[1].Dim)); err != nil {
			t.Fatal(err)
		}
		snapshot := func() (written int64, listing string, state []byte) {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				info, err := e.Info()
				if err != nil {
					t.Fatal(err)
				}
				listing += fmt.Sprintf("%s %d\n", e.Name(), info.Size())
			}
			var buf bytes.Buffer
			if err := s.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			return s.DeviceStats().BlocksWritten, listing, buf.Bytes()
		}
		written, listing, state := snapshot()

		bad := *traces[1]
		bad.Queries = append(append([]trace.Query(nil), bad.Queries...), trace.Query{uint32(bad.NumVectors)})
		if _, err := s.Train([]*trace.Trace{traces[0], &bad}, TrainOptions{}); err == nil {
			t.Fatal("Train accepted a query for a vector outside the table")
		}
		written2, listing2, state2 := snapshot()
		if written2 != written {
			t.Fatalf("failed Train wrote %d blocks", written2-written)
		}
		if listing2 != listing {
			t.Fatalf("failed Train changed the data dir:\n%s\nwas:\n%s", listing2, listing)
		}
		if !bytes.Equal(state2, state) {
			t.Fatal("failed Train changed the trained state")
		}
	})

	t.Run("install", func(t *testing.T) {
		blocks := 0
		for _, tbl := range tables {
			blocks += tbl.SizeBytes() / nvm.BlockSize
		}
		fs := &readFailStore{MemStore: nvm.NewMemStore(blocks)}
		s, err := Open(Config{Tables: tables, Seed: 1, Device: nvm.NewDevice(nvm.DeviceConfig{Store: fs})})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		old := [2]*layout.Layout{s.tables[0].loadState().layout, s.tables[1].loadState().layout}

		fs.failFrom.Store(int64(s.tables[1].blockBase))
		_, err = s.Train(traces, TrainOptions{})
		fs.failFrom.Store(0)
		if err == nil || !strings.Contains(err.Error(), "injected read failure") {
			t.Fatalf("Train = %v, want the injected render failure", err)
		}
		if s.tables[0].loadState().layout == old[0] {
			t.Fatal("table 0 was installed before the failure but is still on its old layout")
		}
		if s.tables[1].loadState().layout != old[1] {
			t.Fatal("table 1's install failed but its layout changed")
		}
		verifyStoreMatchesTables(t, s, tables)
	})
}

// A corrupted state.bnd must fail the reopen loudly (CRC trailer) — a
// decodable-but-wrong saved order would otherwise silently serve wrong
// vectors.
func TestFileBackendRejectsCorruptState(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 512, 40)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(traces, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, datadir.StateFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Backend: BackendFile, DataDir: dir, Seed: 1}); err == nil {
		t.Fatal("corrupt state file must be rejected at reopen")
	}
}

// State files of versions 1 (no CRC trailer), 2 (no tuner prediction) and 3
// (no demand threshold) are not read: the decoder names the version instead of guessing at a
// layout nothing writes any more.
func TestOlderStateVersionsRejected(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 256, 5)
	s, err := Open(Config{Tables: tables, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[len(stateMagic)] != stateVersion {
		t.Fatalf("unexpected version byte %d", buf.Bytes()[len(stateMagic)])
	}
	for _, version := range []byte{1, 2, 3, stateVersion + 1} {
		// The version varint is the single byte right after the 8-byte
		// magic; re-seal so only the version is wrong.
		old := append([]byte(nil), buf.Bytes()[:buf.Len()-4]...)
		old[len(stateMagic)] = version
		old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(old, datadir.Castagnoli))
		_, err := decodeSavedStates(bytes.NewReader(old))
		if err == nil || !strings.Contains(err.Error(), "unsupported state version") {
			t.Fatalf("version %d: decode = %v, want unsupported state version", version, err)
		}
	}
}

func TestPersistRequiresDataDir(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 256, 5)
	s, err := Open(Config{Tables: tables, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Persist(); err == nil {
		t.Fatal("Persist on a mem-backed store must error")
	}
	if s.DataDir() != "" {
		t.Fatal("mem store reports a data dir")
	}
}

// TestCloseTwice: Close stops two goroutines every store runs (compactor,
// I/O dispatcher) by closing a stop channel, so a second Close — a deferred
// one after an explicit one, a test cleanup after a crash simulation — must
// be a no-op that returns what the first call returned, not a panic.
func TestCloseTwice(t *testing.T) {
	for _, backend := range []string{BackendMem, BackendFile} {
		t.Run(backend, func(t *testing.T) {
			tables, _ := buildTestTables(t, 1, 256, 5)
			cfg := Config{Tables: tables, Seed: 1}
			if backend == BackendFile {
				cfg.Backend = BackendFile
				cfg.DataDir = filepath.Join(t.TempDir(), "store")
				cfg.Direct = testDirect()
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.UpdateVector(0, 7, testVec(64, 1)); err != nil {
				t.Fatal(err)
			}
			first := s.Close()
			if first != nil {
				t.Fatalf("first Close: %v", first)
			}
			if again := s.Close(); again != first {
				t.Fatalf("second Close returned %v, first returned %v", again, first)
			}
		})
	}
}

// TestCoreImportsNoOS: core reaches a data dir only through package datadir,
// whose file system a test can substitute (dataFS), so none of its non-test
// files may import os.
func TestCoreImportsNoOS(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(pkg.Imports, "os") {
		t.Fatalf("internal/core imports os at %v", pkg.ImportPos["os"])
	}
}
