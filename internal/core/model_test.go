package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"bandana/internal/fp16"
	"bandana/internal/layout"
	"bandana/internal/nvm"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// The block image plus the overlay is the only copy of a vector the store
// holds, so its correctness across every path that moves vectors — updates,
// compaction, whole-table rewrites, live re-layouts, snapshot export/import,
// reopen with and without a log to replay — is checked here against an
// oracle that is nothing but a map, in the style of utahfs' blockfs_test: roll
// a die, apply one random operation to the store and to the oracle, compare.

// eachBackend runs f once over the mem backend and once over the file
// backend (O_DIRECT on CI's file-direct leg), handing it the Config to open.
func eachBackend(t *testing.T, f func(t *testing.T, cfg Config)) {
	t.Run("mem", func(t *testing.T) { f(t, Config{}) })
	t.Run("file", func(t *testing.T) {
		f(t, Config{Backend: BackendFile, DataDir: filepath.Join(t.TempDir(), "store"), Direct: testDirect()})
	})
}

// storeModel pairs a store with its oracle: want[t][id] is the fp16 bytes
// the store must serve for vector id of table t.
type storeModel struct {
	t    *testing.T
	rng  *rand.Rand
	cfg  Config // reopen config: Tables already nil
	s    *Store
	want [][][]byte
	dim  int

	states [][]byte // SaveState outputs captured after each Train
	// pending counts the updates since the last compaction: what the log must
	// replay if the store stopped now, whatever Train, LoadState or an
	// adaptation epoch did to some of the tables in between.
	pending   int64
	relayouts int
	crashes   int // installs abandoned mid-protocol and recovered by a reopen
}

// randomVector returns a vector of small integers (exact in fp16, never NaN)
// and its fp16 encoding.
func (m *storeModel) randomVector() ([]float32, []byte) {
	vec := make([]float32, m.dim)
	for i := range vec {
		vec[i] = float32(m.rng.Intn(2049) - 1024)
	}
	return vec, fp16.EncodeSlice(nil, vec)
}

func (m *storeModel) randomIDs(tbl, n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(m.rng.Intn(len(m.want[tbl])))
	}
	return ids
}

// checkBatch compares the given ids of one table as one raw batch of s (the
// model's store, or a replica of it).
func (m *storeModel) checkBatch(s *Store, tbl int, ids []uint32) {
	m.t.Helper()
	got, err := s.LookupBatchRaw(tbl, ids)
	if err != nil {
		m.t.Fatal(err)
	}
	for i, id := range ids {
		if !bytes.Equal(got[i], m.want[tbl][id]) {
			m.t.Fatalf("table %d vector %d: raw batch serves the wrong bytes", tbl, id)
		}
	}
}

// check compares the given ids through a randomly chosen read API.
func (m *storeModel) check(tbl int, ids []uint32) {
	m.t.Helper()
	if m.rng.Intn(2) == 0 {
		m.checkBatch(m.s, tbl, ids)
		return
	}
	for _, id := range ids {
		got, err := m.s.Lookup(tbl, id)
		if err != nil {
			m.t.Fatal(err)
		}
		if !bytes.Equal(fp16.EncodeSlice(nil, got), m.want[tbl][id]) {
			m.t.Fatalf("table %d vector %d: lookup serves the wrong vector", tbl, id)
		}
	}
}

// checkAll compares every vector of every table.
func (m *storeModel) checkAll(s *Store) {
	m.t.Helper()
	for tbl := range m.want {
		ids := make([]uint32, len(m.want[tbl]))
		for i := range ids {
			ids[i] = uint32(i)
		}
		m.checkBatch(s, tbl, ids)
	}
}

// groupedQueries returns queries over random groups of 8 vectors: under any
// layout chosen without knowledge of the groups each query fans out over ~8
// blocks, so a partitioner that sees them always finds a large gain.
func (m *storeModel) groupedQueries(tbl int) []trace.Query {
	perm := m.rng.Perm(len(m.want[tbl]))
	var qs []trace.Query
	for g := 0; g+8 <= len(perm); g += 8 {
		q := make(trace.Query, 8)
		for i := range q {
			q[i] = uint32(perm[g+i])
		}
		qs = append(qs, q)
	}
	return qs
}

func (m *storeModel) update() {
	for n := 1 + m.rng.Intn(8); n > 0; n-- {
		tbl := m.rng.Intn(len(m.want))
		id := uint32(m.rng.Intn(len(m.want[tbl])))
		vec, raw := m.randomVector()
		var err error
		if m.rng.Intn(2) == 0 {
			err = m.s.UpdateVector(tbl, id, vec)
		} else {
			err = m.s.UpdateVectorRaw(tbl, id, raw)
		}
		if err != nil {
			m.t.Fatal(err)
		}
		m.want[tbl][id] = raw
		m.pending++
	}
}

func (m *storeModel) train() {
	traces := make([]*trace.Trace, len(m.want))
	for tbl := range traces {
		if m.rng.Intn(4) == 0 {
			continue // an untouched table rides along
		}
		qs := m.groupedQueries(tbl)
		traces[tbl] = &trace.Trace{NumVectors: len(m.want[tbl]), Queries: append(qs, qs...)}
	}
	opts := TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.25, Thresholds: []uint32{0, 1}}
	if _, err := m.s.Train(traces, opts); err != nil {
		m.t.Fatal(err)
	}
	// Half the trainings end with the demand gate on, whatever the tuner made
	// of these few queries, so probation fills meet every operation the model
	// mixes and the saved states carry the threshold through LoadState and
	// reopen.
	if m.rng.Intn(2) == 0 {
		for tbl, tr := range traces {
			if tr == nil {
				continue
			}
			forceDemandThreshold(m.s.tables[tbl], 1+uint32(m.rng.Intn(4)))
		}
		if m.s.dataDir != "" {
			if err := m.s.Persist(); err != nil {
				m.t.Fatal(err)
			}
		}
	}
	var state bytes.Buffer
	if err := m.s.SaveState(&state); err != nil {
		m.t.Fatal(err)
	}
	m.states = append(m.states, state.Bytes())
}

func (m *storeModel) loadState() {
	if len(m.states) == 0 {
		return
	}
	if err := m.s.LoadState(bytes.NewReader(m.states[m.rng.Intn(len(m.states))])); err != nil {
		m.t.Fatal(err)
	}
}

// adapt records grouped batches and runs one adaptation epoch whose
// re-layout pass is all but forced to migrate.
func (m *storeModel) adapt() {
	err := m.s.StartAdaptation(AdaptOptions{
		MinQueries: 8, RelayoutEvery: 1, RelayoutMinGain: 0.01, SHPIterations: 2, Thresholds: []uint32{0, 1},
	})
	if err != nil {
		m.t.Fatal(err)
	}
	defer m.s.StopAdaptation()
	for tbl := range m.want {
		for _, q := range m.groupedQueries(tbl) {
			m.checkBatch(m.s, tbl, q)
		}
	}
	rep, err := m.s.AdaptNow()
	if err != nil {
		m.t.Fatal(err)
	}
	for _, tr := range rep.Tables {
		if tr.Relayout {
			m.relayouts++
		}
	}
}

// replicate bootstraps a read-only replica from a snapshot of the store and
// compares it in full.
func (m *storeModel) replicate() {
	sn, err := m.s.ExportSnapshot()
	if err != nil {
		m.t.Fatal(err)
	}
	dir := filepath.Join(m.t.TempDir(), "replica")
	if err := ImportSnapshot(dir, sn, nvm.SyncNone); err != nil {
		m.t.Fatal(err)
	}
	r, err := Open(Config{Backend: BackendFile, DataDir: dir, ReadOnly: true, InitialSnapshotSeq: sn.Seq})
	if err != nil {
		m.t.Fatal(err)
	}
	defer r.Close()
	m.checkAll(r)
}

// reopen closes the store and opens its data dir again. clean compacts first
// (nothing to replay); otherwise the store stops the way a crash would leave
// it, with every update since the last compaction only in the update log.
func (m *storeModel) reopen(clean bool) {
	if clean {
		if err := m.s.CompactDeltas(); err != nil {
			m.t.Fatal(err)
		}
		m.pending = 0
	} else if err := m.s.Persist(); err != nil { // fsync the log tail
		m.t.Fatal(err)
	}
	m.closeAndOpen()
}

// crashInstall abandons a Train or LoadState at a random stage of a random
// table's install, the way kill -9 would leave the data dir, and reopens it:
// no Persist, the migration files and the state file as that stage left them.
// (Close only hands the file lock back and writes out the update log's
// buffer, which a process with Sync always on would have done per update.)
func (m *storeModel) crashInstall() {
	stages := []string{"image-staged", "staged", "installed", "persisted"}
	stage := stages[m.rng.Intn(len(stages))]
	nth := 1 + m.rng.Intn(len(m.want))
	type abandoned struct{}
	migrationCrashHook = func(s string) {
		if s != stage {
			return
		}
		if nth--; nth == 0 {
			panic(abandoned{})
		}
	}
	crashed := func() (crashed bool) {
		defer func() {
			migrationCrashHook = nil
			if r := recover(); r != nil {
				if _, ok := r.(abandoned); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		if m.rng.Intn(2) == 0 {
			m.train()
		} else {
			m.loadState()
		}
		return false
	}()
	if !crashed {
		return // fewer installs than nth: the operation completed
	}
	m.crashes++
	m.closeAndOpen()
	if got, want := m.s.RecoveredMigration(), stage != "image-staged"; got != want {
		m.t.Fatalf("crash at %q: RecoveredMigration = %v, want %v", stage, got, want)
	}
	m.checkAll(m.s)
}

// closeAndOpen closes the store and opens its data dir again, expecting the
// update log to replay exactly the updates since the last compaction.
func (m *storeModel) closeAndOpen() {
	if err := m.s.Close(); err != nil {
		m.t.Fatal(err)
	}
	s, err := Open(m.cfg)
	if err != nil {
		m.t.Fatal(err)
	}
	m.s = s
	if got := s.UpdateLogStats().RecoveredRecords; got != m.pending {
		m.t.Fatalf("reopen replayed %d update records, want %d", got, m.pending)
	}
	if m.pending == 0 {
		if reads := s.DeviceStats().BlocksRead; reads != 0 {
			m.t.Fatalf("reopen with nothing to replay read %d data blocks", reads)
		}
	}
	m.pending = 0
}

func runStoreModel(t *testing.T, cfg Config, seed int64, steps int) {
	defer func() {
		if t.Failed() { // also runs when a Fatal unwinds the test
			t.Logf("failing seed: %d (%d steps)", seed, steps)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	const dim = 16
	sizes := []int{1000, 517} // the second table ends in a partial block
	m := &storeModel{t: t, rng: rng, dim: dim, want: make([][][]byte, len(sizes))}
	tables := make([]*table.Table, len(sizes))
	for tbl, n := range sizes {
		tables[tbl] = table.New(fmt.Sprintf("m%d", tbl), n, dim)
		m.want[tbl] = make([][]byte, n)
		for id := range m.want[tbl] {
			_, raw := m.randomVector()
			if err := tables[tbl].SetRaw(uint32(id), raw); err != nil {
				t.Fatal(err)
			}
			m.want[tbl][id] = raw
		}
	}
	cfg.Tables = tables
	cfg.DRAMBudgetVectors = 96
	cfg.CacheShards = 2
	cfg.Seed = seed
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.s = s
	defer func() { m.s.Close() }()
	cfg.Tables = nil
	m.cfg = cfg

	adapted := false
	for step := 0; step < steps; step++ {
		switch die := rng.Intn(100); {
		case die < 40:
			m.update()
		case die < 70:
			tbl := rng.Intn(len(m.want))
			m.check(tbl, m.randomIDs(tbl, 1+rng.Intn(32)))
		case die < 78:
			if err := m.s.CompactDeltas(); err != nil {
				t.Fatal(err)
			}
			m.pending = 0
		case die < 82:
			m.train()
		case die < 85:
			m.loadState()
		case die < 88:
			m.adapt()
			adapted = true
		case die < 91:
			m.replicate()
		case die < 96:
			if cfg.Backend == BackendFile {
				m.reopen(rng.Intn(2) == 0)
			}
		default:
			if cfg.Backend == BackendFile {
				m.crashInstall()
			}
		}
		// A random sample after every step, whatever it was.
		tbl := rng.Intn(len(m.want))
		m.check(tbl, m.randomIDs(tbl, 8))
	}
	m.checkAll(m.s)
	if adapted && m.relayouts == 0 {
		t.Fatal("no adaptation epoch migrated a table: the re-layout path went untested")
	}
	if cfg.Backend == BackendFile && !testing.Short() && m.crashes == 0 {
		t.Fatal("no install was abandoned mid-protocol: the redo path went untested")
	}
}

// TestStoreModel is the randomized model check of the store against a map.
func TestStoreModel(t *testing.T) {
	seeds, steps := []int64{1, 2, 3}, 300
	if testing.Short() {
		seeds, steps = seeds[:1], 120
	}
	eachBackend(t, func(t *testing.T, cfg Config) {
		for _, seed := range seeds {
			runStoreModel(t, cfg, seed, steps)
			if cfg.DataDir != "" {
				cfg.DataDir = filepath.Join(t.TempDir(), "store")
			}
		}
	})
}

// versioned is the vector the concurrent test writes as version v of vector
// id: every element repeats one of four numbers, so a torn or mis-mapped
// vector cannot pass for a valid one.
func versioned(dim int, id uint32, v int) []float32 {
	vec := make([]float32, dim)
	for i := range vec {
		vec[i] = [4]float32{float32(v % 1024), float32(v / 1024), float32(id % 1024), float32(id / 1024)}[i%4]
	}
	return vec
}

// versionOf decodes a vector written by versioned, or reports why it is not
// one for id.
func versionOf(vec []float32, id uint32) (int, error) {
	v := int(vec[0]) + 1024*int(vec[1])
	want := versioned(len(vec), id, v)
	for i := range vec {
		if vec[i] != want[i] {
			return 0, fmt.Errorf("vector %d is torn or not its own: %v", id, vec)
		}
	}
	return v, nil
}

// TestCompactionRelayoutExportUnderUpdates runs the interleaving the
// overlay-before-blocks rule of renderImage exists for: CompactDeltas loops
// while installLayout and ExportSnapshot render images, all under update
// load. Every vector a lookup serves or a snapshot carries must be a whole
// version of the right vector, no older than the last update that had
// returned before the read began and no newer than the last that had started
// when it ended.
func TestCompactionRelayoutExportUnderUpdates(t *testing.T) {
	eachBackend(t, func(t *testing.T, cfg Config) {
		const n, dim, writers = 2048, 64, 3
		tbl := table.New("v", n, dim)
		for id := uint32(0); id < n; id++ {
			if err := tbl.SetVector(id, versioned(dim, id, 0)); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Tables = []*table.Table{tbl}
		cfg.DRAMBudgetVectors = 32
		cfg.CacheShards = 2
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st := s.tables[0]

		// started[id] is bumped before an update is issued, committed[id]
		// after it returned; one writer owns each id, so both only grow.
		started := make([]atomic.Int64, n)
		committed := make([]atomic.Int64, n)
		inWindow := func(id uint32, lo int64, vec []float32) error {
			v, err := versionOf(vec, id)
			if err != nil {
				return err
			}
			if hi := started[id].Load(); int64(v) < lo || int64(v) > hi {
				return fmt.Errorf("vector %d: version %d outside [%d, %d]", id, v, lo, hi)
			}
			return nil
		}

		stop := make(chan struct{})
		var background, foreground sync.WaitGroup
		loop := func(wg *sync.WaitGroup, f func(i int) error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := f(i); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for w := 0; w < writers; w++ {
			rng := rand.New(rand.NewSource(int64(w)))
			loop(&background, func(int) error {
				id := uint32(rng.Intn(n/writers)*writers + w)
				v := started[id].Add(1)
				if err := s.UpdateVector(0, id, versioned(dim, id, int(v))); err != nil {
					return err
				}
				committed[id].Store(v)
				return nil
			})
		}
		loop(&background, func(int) error { return s.CompactDeltas() })
		rrng := rand.New(rand.NewSource(99))
		loop(&background, func(int) error {
			id := uint32(rrng.Intn(n))
			lo := committed[id].Load()
			vec, err := s.Lookup(0, id)
			if err != nil {
				return err
			}
			return inWindow(id, lo, vec)
		})

		rounds := 12
		if testing.Short() {
			rounds = 4
		}
		foreground.Add(2)
		go func() {
			defer foreground.Done()
			for i := 0; i < rounds; i++ {
				s.mutateMu.Lock()
				err := s.installLayout(st, layout.Random(n, st.blockVectors, int64(i)), nil)
				s.mutateMu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer foreground.Done()
			lo := make([]int64, n)
			vec := make([]float32, dim)
			for i := 0; i < rounds; i++ {
				for id := range lo {
					lo[id] = committed[id].Load()
				}
				sn, err := s.ExportSnapshot()
				if err != nil {
					t.Error(err)
					return
				}
				saved, err := decodeSavedStates(bytes.NewReader(sn.State))
				if err != nil {
					t.Error(err)
					return
				}
				l, err := layout.FromOrder(saved[0].order, st.blockVectors)
				if err != nil {
					t.Error(err)
					return
				}
				for id := uint32(0); id < n; id++ {
					off := st.slotOffset(l, id)
					fp16.DecodeSlice(vec, sn.Blocks[off:off+st.vecBytes])
					if err := inWindow(id, lo[id], vec); err != nil {
						t.Errorf("snapshot %d: %v", i, err)
						return
					}
				}
			}
		}()
		foreground.Wait()
		close(stop)
		background.Wait()

		// Quiesced: every vector is exactly its last committed version.
		for id := uint32(0); id < n; id++ {
			vec, err := s.Lookup(0, id)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := versionOf(vec, id); err != nil || int64(v) != committed[id].Load() {
				t.Fatalf("vector %d settled at version %d (%v), want %d", id, v, err, committed[id].Load())
			}
		}
	})
}

// gatedStore is a MemStore whose next journaled block write and next batched
// read each run a one-shot hook, so a test can park the compactor and the
// renderer at exact points of their device I/O.
type gatedStore struct {
	*nvm.MemStore
	beforeWrite, afterRead atomic.Pointer[func()]
}

func (g *gatedStore) WriteBlock(idx int, src []byte) error {
	if f := g.beforeWrite.Swap(nil); f != nil {
		(*f)()
	}
	return g.MemStore.WriteBlock(idx, src)
}

func (g *gatedStore) ReadBlocks(idxs []int, dst []byte) error {
	err := g.MemStore.ReadBlocks(idxs, dst)
	if f := g.afterRead.Swap(nil); f != nil {
		(*f)()
	}
	return err
}

// TestRenderTakesOverlayBeforeBlocks builds the one interleaving renderImage's
// ordering rule is for, deterministically: a compaction that snapshotted the
// overlay before the export began writes its block and drops its overlay
// entries after the export has read that block. Had the export looked at the
// overlay only after reading, it would find the entry gone and keep the
// block's stale bytes.
func TestRenderTakesOverlayBeforeBlocks(t *testing.T) {
	const n, dim, id = 256, 64, 77
	tbl := table.New("v", n, dim)
	for i := uint32(0); i < n; i++ {
		if err := tbl.SetVector(i, versioned(dim, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	gs := &gatedStore{MemStore: nvm.NewMemStore(n * dim * fp16.ByteSize / nvm.BlockSize)}
	s, err := Open(Config{Tables: []*table.Table{tbl}, Device: nvm.NewDevice(nvm.DeviceConfig{Store: gs})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateVector(0, id, versioned(dim, id, 1)); err != nil {
		t.Fatal(err)
	}

	paused, resume, compacted := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	park := func() { close(paused); <-resume }
	gs.beforeWrite.Store(&park)
	go func() { compacted <- s.CompactDeltas() }()
	<-paused // the compactor holds its overlay snapshot and is about to write id's block
	finish := func() {
		close(resume)
		if err := <-compacted; err != nil {
			t.Error(err)
		}
	}
	gs.afterRead.Store(&finish) // ... and does so right after the export has read it
	sn, err := s.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.UpdateLogStats().OverlayEntries != 0 {
		t.Fatal("the compaction did not finish inside the export's read: the interleaving under test did not happen")
	}
	st := s.tables[0]
	off := st.slotOffset(st.loadState().layout, id)
	vec := make([]float32, dim)
	fp16.DecodeSlice(vec, sn.Blocks[off:off+st.vecBytes])
	if v, err := versionOf(vec, id); err != nil || v != 1 {
		t.Fatalf("snapshot carries version %d of the updated vector (%v), want 1", v, err)
	}
}
