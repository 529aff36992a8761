package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"bandana/internal/fp16"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// TestUpdateLeavesCallerTablesAlone pins that Open copies Config.Tables onto
// the device and lets go of them: an update changes what the store serves,
// never the table object the caller still owns.
func TestUpdateLeavesCallerTablesAlone(t *testing.T) {
	eachBackend(t, func(t *testing.T, cfg Config) {
		tables, _ := buildTestTables(t, 1, 512, 10)
		cfg.Tables = tables
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		orig := make([][]byte, 2)
		for id := range orig {
			raw, err := tables[0].Raw(uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			orig[id] = bytes.Clone(raw)
		}
		vec := testVec(tables[0].Dim, 7)
		updated := fp16.EncodeSlice(nil, vec)
		if err := s.UpdateVector(0, 0, vec); err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateVectorRaw(0, 1, updated); err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			got, err := s.LookupBatchRaw(0, []uint32{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			for id := range orig {
				if !bytes.Equal(got[id], updated) {
					t.Fatalf("%s: lookup(%d) does not return the update", when, id)
				}
				if raw, _ := tables[0].Raw(uint32(id)); !bytes.Equal(raw, orig[id]) {
					t.Fatalf("%s: the caller's table changed at vector %d", when, id)
				}
			}
		}
		check("from the overlay")
		if err := s.CompactDeltas(); err != nil {
			t.Fatal(err)
		}
		check("from the block image")
	})
}

// heapInuse is the heap in use once everything unreachable has been
// collected.
func heapInuse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// heapLive is the bytes of live heap objects once everything unreachable has
// been collected: heapInuse less the free space of the spans in use.
func heapLive() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestStoreHoldsNoTableCopy is the heap gate on Bandana's premise: a store in
// front of N vectors holds its cache budget plus per-vector metadata in DRAM,
// not the vectors — neither after Open + Train over caller tables nor after a
// reopen, which must not read a single data block to come up.
func TestStoreHoldsNoTableCopy(t *testing.T) {
	const vectors, dim = 1 << 16, 64 // 8 MiB of fp16 vectors
	const tableBytes = vectors * dim * fp16.ByteSize
	base := heapInuse()

	p := trace.Profile{Name: "big", NumVectors: vectors, AvgLookups: 20, Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: 5}
	tables := []*table.Table{table.Generate(p.Name, table.GenerateOptions{NumVectors: vectors, Dim: dim, Seed: 5}).Table}
	traces := []*trace.Trace{trace.GenerateTable(p, 400)}
	cfg := Config{
		Backend:           BackendFile,
		DataDir:           filepath.Join(t.TempDir(), "store"),
		Direct:            testDirect(),
		DRAMBudgetVectors: vectors / 20,
		CacheShards:       8,
		Seed:              5,
	}
	cfg.Tables = tables
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.1}); err != nil {
		t.Fatal(err)
	}
	want, err := tables[0].Raw(vectors - 1)
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.Clone(want)
	tables, traces, cfg.Tables = nil, nil, nil

	grown := heapInuse() - base
	t.Logf("after Open + Train: heap grew %.2f x the table's %d bytes", float64(grown)/tableBytes, tableBytes)
	if grown >= tableBytes/2 {
		t.Fatalf("store holds %d bytes of heap over an %d-byte table after Open + Train, want < half", grown, tableBytes)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reads := s.DeviceStats().BlocksRead; reads != 0 {
		t.Fatalf("reopen read %d data blocks with no update log or migration pending", reads)
	}
	grown = heapInuse() - base
	t.Logf("after reopen: heap grew %.2f x the table's bytes", float64(grown)/tableBytes)
	if grown >= tableBytes/2 {
		t.Fatalf("store holds %d bytes of heap over an %d-byte table after reopen, want < half", grown, tableBytes)
	}
	got, err := s.LookupBatchRaw(0, []uint32{vectors - 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], want) {
		t.Fatal("reopened store serves the wrong bytes")
	}
}

// TestStoreHeapIsAttributed is the gate on the store's DRAM being named: after
// Open + Train over a 2^16-vector table and one warm pass of lookups, the
// components Stats().DRAM reports per table, plus the store-wide ones DRAM
// reports, must cover at least 90% of the heap the store grew by. A holder
// that is neither exported nor gone shows up here as a share below the
// bound. The share is of live bytes: the in-use spans' free space (what
// heapInuse adds) is no holder's, and it moves by up to 6% between identical
// runs, so it is logged beside the gated share, not gated.
func TestStoreHeapIsAttributed(t *testing.T) {
	const vectors, dim = 1 << 16, 64
	const minShare = 0.9
	// The store drops a threshold policy's counts once compiled; the test
	// hook that keeps them would read as an unattributed holder.
	defer func(hook func(*storeTable, []uint32)) { thresholdCountsHook = hook }(thresholdCountsHook)
	thresholdCountsHook = nil
	baseInuse, base := heapInuse(), heapLive()

	p := trace.Profile{Name: "big", NumVectors: vectors, AvgLookups: 20, Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: 5}
	tables := []*table.Table{table.Generate(p.Name, table.GenerateOptions{NumVectors: vectors, Dim: dim, Seed: 5}).Table}
	traces := []*trace.Trace{trace.GenerateTable(p, 400)}
	cfg := Config{
		Backend:           BackendFile,
		DataDir:           filepath.Join(t.TempDir(), "store"),
		Direct:            testDirect(),
		DRAMBudgetVectors: vectors / 20,
		CacheShards:       8,
		Seed:              5,
	}
	cfg.Tables = tables
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.1}); err != nil {
		t.Fatal(err)
	}
	warm := p
	warm.Seed = 6
	for _, q := range trace.GenerateTable(warm, 400).Queries {
		if _, err := s.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	tables, traces, cfg.Tables = nil, nil, nil

	grownInuse, grown := heapInuse()-baseInuse, heapLive()-base
	d, sd := s.Stats()[0].DRAM, s.DRAM()
	attributed := d.Layout + d.AdmitBits + d.Overlay + d.CacheArena + d.CacheIndex + d.Recorder + d.Metrics + sd.Metrics
	share := float64(attributed) / float64(grown)
	t.Logf("live heap grew %d B (in-use spans %d B); DRAM() and Stats().DRAM name %d B (layout %d, admit_bits %d, overlay %d, cache_arena %d, cache_index %d, recorder %d, metrics %d, store metrics %d): share %.3f of live, %.3f of in-use",
		grown, grownInuse, attributed, d.Layout, d.AdmitBits, d.Overlay, d.CacheArena, d.CacheIndex, d.Recorder, d.Metrics, sd.Metrics, share, float64(attributed)/float64(grownInuse))
	if share < minShare {
		t.Fatalf("DRAM() and Stats().DRAM name %.3f of the store's %d B of heap growth, want ≥ %.1f", share, grown, minShare)
	}
}

// TestPerTableOverheadBound is the gate on what a store holds per table
// besides its per-vector metadata and its cache: production models have many
// tables, most of them small, so that fixed cost must stay small beside the
// data. Over 256 tables of 1,024 64-dim vectors (128 KiB each) after Open +
// Train, the live heap grown per table less its layout, admission bits and
// cache arena must stay within 16 KB, and all the store's DRAM but the cache
// arenas within 0.15 B per stored byte.
func TestPerTableOverheadBound(t *testing.T) {
	const tables, vectors, dim = 256, 1024, 64
	const maxFixedPerTable, maxPerStoredByte = 16 << 10, 0.15
	const storedBytes = tables * vectors * dim * fp16.ByteSize
	// The store drops a threshold policy's counts once compiled; the test
	// hook that keeps them would read as a per-table holder.
	defer func(hook func(*storeTable, []uint32)) { thresholdCountsHook = hook }(thresholdCountsHook)
	thresholdCountsHook = nil
	base := heapLive()

	cfg := Config{
		Backend:     BackendFile,
		DataDir:     filepath.Join(t.TempDir(), "store"),
		Direct:      testDirect(),
		CacheShards: 8,
		Seed:        5,
	}
	traces := make([]*trace.Trace, tables)
	for i := range tables {
		p := trace.Profile{Name: fmt.Sprintf("t%03d", i), NumVectors: vectors, AvgLookups: 20, Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: int64(i)}
		cfg.Tables = append(cfg.Tables, table.Generate(p.Name, table.GenerateOptions{NumVectors: vectors, Dim: dim, Seed: int64(i)}).Table)
		traces[i] = trace.GenerateTable(p, 100)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.5}); err != nil {
		t.Fatal(err)
	}
	traces, cfg.Tables = nil, nil

	grown := heapLive() - base
	var perVector, arena int64
	for _, ts := range s.Stats() {
		perVector += ts.DRAM.Layout + ts.DRAM.AdmitBits
		arena += ts.DRAM.CacheArena
	}
	fixed := float64(grown-perVector-arena) / tables
	perStored := float64(grown-arena) / storedBytes
	t.Logf("live heap grew %d B over %d tables: layout + admission %d B, cache arenas %d B, the rest %.0f B per table; %.3f B of DRAM per stored byte besides the arenas",
		grown, tables, perVector, arena, fixed, perStored)
	if fixed > maxFixedPerTable {
		t.Fatalf("%.0f B of heap per table besides layout, admission bits and cache arena, want ≤ %d", fixed, maxFixedPerTable)
	}
	if perStored > maxPerStoredByte {
		t.Fatalf("%.3f B of DRAM per stored byte besides the cache arenas, want ≤ %.2f", perStored, maxPerStoredByte)
	}
}

// TestPerVectorMetadataBound is the gate on what a store keeps per vector
// besides its cache: the packed layout (≤ 4 B per vector at 2^16 vectors) and
// the threshold policy's verdicts (two bits per vector, in layout order) must
// stay within 4.25 B per vector after an adaptation re-layout, after
// LoadState and after a reopen — where access counts alone would cost 4 B
// more, and a second copy of the verdicts in id order 0.25 B. After Open +
// Train most of the table is ids training never named, whose placement the
// layout implies (1.5 bits per vector): the gate there is 1 B per vector.
func TestPerVectorMetadataBound(t *testing.T) {
	const vectors, dim = 1 << 16, 64
	const maxBytesPerVector, maxAfterTrain = 4.25, 1.0
	p := trace.Profile{Name: "big", NumVectors: vectors, AvgLookups: 20, Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: 5}
	tables := []*table.Table{table.Generate(p.Name, table.GenerateOptions{NumVectors: vectors, Dim: dim, Seed: 5}).Table}
	cfg := Config{
		Backend:           BackendFile,
		DataDir:           filepath.Join(t.TempDir(), "store"),
		Direct:            testDirect(),
		DRAMBudgetVectors: vectors / 20,
		CacheShards:       8,
		Seed:              5,
		Tables:            tables,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	check := func(after string, bound float64) {
		t.Helper()
		if s.tables[0].loadState().admit == nil {
			t.Fatalf("after %s: no threshold policy: the bound would go unchecked", after)
		}
		d := s.Stats()[0].DRAM
		perVector := float64(d.Layout+d.AdmitBits) / vectors
		t.Logf("after %s: layout %d B + admission %d B = %.3f B per vector", after, d.Layout, d.AdmitBits, perVector)
		if perVector > bound {
			t.Fatalf("after %s: %.3f B of metadata per vector, want ≤ %.2f", after, perVector, bound)
		}
	}

	if _, err := s.Train([]*trace.Trace{trace.GenerateTable(p, 400)}, TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.1}); err != nil {
		t.Fatal(err)
	}
	check("Open + Train", maxAfterTrain)

	if err := s.StartAdaptation(AdaptOptions{MinQueries: 16, RelayoutEvery: 1, RelayoutMinGain: 0.01, SHPIterations: 4}); err != nil {
		t.Fatal(err)
	}
	drifted := p
	drifted.Seed = 6
	for _, q := range trace.GenerateTable(drifted, 300).Queries {
		if _, err := s.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.AdaptNow()
	if err != nil {
		t.Fatal(err)
	}
	s.StopAdaptation()
	if !rep.Tables[0].Relayout {
		t.Fatal("AdaptNow did not re-lay the table out: the check below would repeat the one after Train")
	}
	// Whatever the re-tune chose, a gate keeps a threshold policy installed
	// through the save, load and reopen below.
	forceDemandThreshold(s.tables[0], 2)
	check("an AdaptNow re-layout", maxBytesPerVector)

	var saved bytes.Buffer
	if err := s.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadState(&saved); err != nil {
		t.Fatal(err)
	}
	check("LoadState", maxBytesPerVector)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Tables = nil
	if s, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	check("reopen", maxBytesPerVector)
}
