package core

import (
	"bytes"
	"math/bits"
	"path/filepath"
	"testing"

	"bandana/internal/table"
	"bandana/internal/trace"
)

// modelLayoutBytes is what a table's layout holds resident, from first
// principles: n vectors whose first head positions were placed by training
// and whose other n − head positions (the untrained tail) hold the rest of
// the ids in ascending order. Stored whole, the order and its inverse take
// n entries of ⌈log₂ n⌉ bits each. With the tail implied, the order takes
// head entries of ⌈log₂ n⌉ bits, the inverse head entries of ⌈log₂ head⌉
// bits (a position in the head), and the tail a bit per id and a 32-bit
// rank per 64 ids; the layout takes whichever form is smaller. Each packed
// array is whole 64-bit words, and every width is at least one bit. The
// block size does not enter: a layout stores positions, and a block is a
// division.
func modelLayoutBytes(n, head int) int64 {
	width := func(k int) int { return max(1, bits.Len(uint(max(k, 1)-1))) }
	words := func(entries, w int) int64 { return int64(entries*w+63) / 64 }
	whole := 8 * 2 * words(n, width(n))
	implied := 8*(words(head, width(n))+words(head, width(head))+words(n, 1)) + 4*words(n, 1)
	return min(whole, implied)
}

// layoutHead is the number of positions of order before its trailing
// ascending run: the head a layout stores, when it implies the run.
func layoutHead(order []uint32) int {
	h := len(order)
	for h > 0 && (h == len(order) || order[h-1] < order[h]) {
		h--
	}
	return h
}

// layoutMatchesModel fails t unless table ti's reported layout bytes are the
// model's for its order, and returns its head.
func layoutMatchesModel(t *testing.T, s *Store, ti int, after string) (head int, bytes int64) {
	t.Helper()
	order := s.tables[ti].loadState().layout.Order()
	head = layoutHead(order)
	got := s.Stats()[ti].DRAM.Layout
	if want := modelLayoutBytes(len(order), head); got != want {
		t.Fatalf("after %s: table %d layout is %d B, the model says %d (%d vectors, head %d)", after, ti, got, want, len(order), head)
	}
	return head, got
}

// TestLayoutDRAMModel: on the benchmark's cold shape (see coldShapeStore)
// every table's TableDRAM.Layout is the model's bytes for its order, and
// the four total at most 200,000 B (both forms stored whole took 470,016).
// The log projects the model to the paper's Table-1 sizes.
func TestLayoutDRAMModel(t *testing.T) {
	for _, n := range []int{10_000_000, 20_000_000} {
		for _, untrained := range []float64{0, 0.5, 0.9} {
			b := modelLayoutBytes(n, n-int(untrained*float64(n)))
			t.Logf("model at %d vectors, %.0f%% untrained: %d B, %.3f B per vector", n, 100*untrained, b, float64(b)/float64(n))
		}
	}
	if testing.Short() || raceEnabled {
		t.Skip("trains and serves a four-table store (≈ 30 s under -race); CI's heap-gate step runs it without -race")
	}
	s := coldShapeStore(t)
	defer s.Close()
	var total int64
	for ti, st := range s.tables {
		head, b := layoutMatchesModel(t, s, ti, "Train")
		t.Logf("table %d: %d vectors, head %d: layout %d B, %.3f B per vector", ti, st.numVectors, head, b, float64(b)/float64(st.numVectors))
		total += b
	}
	t.Logf("layout total %d B over %d tables", total, len(s.tables))
	if total > 200_000 {
		t.Fatalf("the four layouts hold %d B, want ≤ 200,000", total)
	}
}

// TestRelayoutShortensImpliedTail: adaptation's warm start refines the whole
// order, so it moves untrained ids the drifted traffic names into the head
// and shortens the tail Train left. The store must serve every vector's
// bytes as they were written, and its layout bytes must be the model's,
// after Train, the AdaptNow re-layout, LoadState and a reopen.
func TestRelayoutShortensImpliedTail(t *testing.T) {
	const vectors, dim = 1 << 14, 16
	p := trace.Profile{Name: "tail", NumVectors: vectors, AvgLookups: 20, Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: 7}
	oracle := table.Generate(p.Name, table.GenerateOptions{NumVectors: vectors, Dim: dim, Seed: 7}).Table
	cfg := Config{
		Backend:           BackendFile,
		DataDir:           filepath.Join(t.TempDir(), "store"),
		Direct:            testDirect(),
		DRAMBudgetVectors: vectors / 20,
		CacheShards:       4,
		Seed:              7,
		Tables:            []*table.Table{oracle},
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	check := func(after string) int {
		t.Helper()
		head, b := layoutMatchesModel(t, s, 0, after)
		t.Logf("after %s: head %d of %d vectors, layout %d B", after, head, vectors, b)
		ids := make([]uint32, 0, 256)
		for lo := 0; lo < vectors; lo += cap(ids) {
			ids = ids[:0]
			for id := lo; id < min(lo+cap(ids), vectors); id++ {
				ids = append(ids, uint32(id))
			}
			got, err := s.LookupBatchRaw(0, ids)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				want, _ := oracle.Raw(table.ID(id))
				if !bytes.Equal(got[i], want) {
					t.Fatalf("after %s: vector %d served wrong bytes", after, id)
				}
			}
		}
		return head
	}

	if _, err := s.Train([]*trace.Trace{trace.GenerateTable(p, 200)}, TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.1}); err != nil {
		t.Fatal(err)
	}
	trained := check("Train")
	if trained > vectors/2 {
		t.Fatalf("Train left a head of %d of %d vectors: the tail is too short to shorten", trained, vectors)
	}

	if err := s.StartAdaptation(AdaptOptions{MinQueries: 16, RelayoutEvery: 1, RelayoutMinGain: 0.01, SHPIterations: 4}); err != nil {
		t.Fatal(err)
	}
	drifted := p
	drifted.Seed = 8
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
		t.Fatal("AdaptNow did not re-lay the table out")
	}
	adapted := check("an AdaptNow re-layout")
	if adapted <= trained {
		t.Fatalf("the re-layout left a head of %d, Train's was %d: the tail did not shorten", adapted, trained)
	}

	var saved bytes.Buffer
	if err := s.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadState(&saved); err != nil {
		t.Fatal(err)
	}
	if head := check("LoadState"); head != adapted {
		t.Fatalf("LoadState left a head of %d, want %d", head, adapted)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Tables = nil
	if s, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	if head := check("reopen"); head != adapted {
		t.Fatalf("reopen left a head of %d, want %d", head, adapted)
	}
}

// modelSlabSlots is how many vectors one slab of a cache's arena holds,
// from first principles: the fewest, a power of two, whose slab is at least
// 8 KiB (the smallest Go size class of one object per span, so the slab
// owns its span), or, for a cache whose whole capacity is smaller, its
// capacity rounded up to a power of two.
func modelSlabSlots(capacity, vecBytes int) int {
	per := 1
	for per*vecBytes < 8<<10 && per < capacity {
		per <<= 1
	}
	return per
}

// modelCacheArena is what a cache's arena holds: the slabs its minted slots
// start. The shards mint from one frontier, so a cache leaves at most one
// slab partly minted, and every minted slot is resident, free or in limbo.
func modelCacheArena(ts TableStats, vecBytes int) (arena, slab int64) {
	per := modelSlabSlots(ts.CacheVectors, vecBytes)
	minted := ts.CacheUsed + ts.CacheFreeSlots + ts.CacheLimboSlots
	slab = int64(per * vecBytes)
	return int64((minted+per-1)/per) * slab, slab
}

// TestCacheArenaModel: on the benchmark's cold shape (see coldShapeStore)
// and its hot shape (see hotShapeStore) every table's TableDRAM.CacheArena
// is the model's bytes to the byte, and exceeds the resident payload by at
// most its free and limbo slots and one slab. Summed over the four tables
// the arenas hold at most 32 KiB — a slab per table — more than the
// resident payload on either shape: on the cold shape the install fills
// the pinned sets into fresh slots and a slot no hit handed out skips limbo
// (860,000 B was the bound before, 897,024 B when each shard minted from
// slabs of its own), and on the hot one 1.39 MB more was the arenas' before.
func TestCacheArenaModel(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("trains and serves two four-table stores (≈ 60 s under -race); CI's heap-gate step runs it without -race")
	}
	for _, shape := range []struct {
		name  string
		store func(testing.TB) *Store
		gate  func(arena, resident int64) bool
		want  string
	}{
		{"cold", coldShapeStore, func(arena, resident int64) bool { return arena <= resident+32<<10 }, "≤ resident + 32 KiB"},
		{"hot", hotShapeStore, func(arena, resident int64) bool { return arena <= resident+32<<10 }, "≤ resident + 32 KiB"},
	} {
		s := shape.store(t)
		var arena, resident, parked int64
		for ti, ts := range s.Stats() {
			vb := s.tables[ti].vecBytes
			want, slab := modelCacheArena(ts, vb)
			got := ts.DRAM.CacheArena
			if got != want {
				t.Errorf("%s shape, table %d: cache arena %d B, the model says %d (%d resident, %d free, %d in limbo, %d B slabs)",
					shape.name, ti, got, want, ts.CacheUsed, ts.CacheFreeSlots, ts.CacheLimboSlots, slab)
			}
			idle := int64(ts.CacheFreeSlots+ts.CacheLimboSlots) * int64(vb)
			if over := got - ts.CacheBytesResident; over > idle+slab {
				t.Errorf("%s shape, table %d: arena %d B over its %d B resident, want ≤ %d B of free and limbo slots + a %d B slab",
					shape.name, ti, over, ts.CacheBytesResident, idle, slab)
			}
			t.Logf("%s shape, table %d: %d of %d vectors cached, arena %d B for %d B resident, %d free and %d limbo slots, %d B slabs",
				shape.name, ti, ts.CacheUsed, ts.CacheVectors, got, ts.CacheBytesResident, ts.CacheFreeSlots, ts.CacheLimboSlots, slab)
			arena += got
			resident += ts.CacheBytesResident
			parked += idle
		}
		s.Close()
		t.Logf("%s shape: arenas %d B for %d B resident (%d B of free and limbo slots)", shape.name, arena, resident, parked)
		if !shape.gate(arena, resident) {
			t.Errorf("%s shape: the arenas hold %d B for %d B resident, want %s", shape.name, arena, resident, shape.want)
		}
	}
}
