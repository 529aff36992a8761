package shp

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"bandana/internal/layout"
	"bandana/internal/trace"
)

// communityQueries builds a synthetic hypergraph where each query draws its
// lookups from a single community of vectors, with communities scattered
// across the ID space. A good partitioner should co-locate each community.
func communityQueries(numVectors, communitySize, numQueries, lookupsPerQuery int, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	numCommunities := numVectors / communitySize
	// Scatter: communityOf[id] via random permutation.
	perm := rng.Perm(numVectors)
	members := make([][]uint32, numCommunities)
	for i, v := range perm {
		c := i / communitySize
		if c >= numCommunities {
			c = numCommunities - 1
		}
		members[c] = append(members[c], uint32(v))
	}
	queries := make([][]uint32, numQueries)
	for q := range queries {
		c := rng.Intn(numCommunities)
		qs := make([]uint32, 0, lookupsPerQuery)
		seen := map[uint32]bool{}
		for len(qs) < lookupsPerQuery {
			id := members[c][rng.Intn(len(members[c]))]
			if !seen[id] {
				seen[id] = true
				qs = append(qs, id)
			}
		}
		queries[q] = qs
	}
	return queries
}

func TestPartitionProducesValidPermutation(t *testing.T) {
	queries := communityQueries(2048, 32, 500, 8, 1)
	res, err := Partition(2048, queries, Options{BlockVectors: 32, Iterations: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 2048 {
		t.Fatalf("order length %d", len(res.Order))
	}
	seen := make([]bool, 2048)
	for _, id := range res.Order {
		if seen[id] {
			t.Fatalf("duplicate id %d in order", id)
		}
		seen[id] = true
	}
	if res.Levels < 5 {
		t.Fatalf("expected several bisection levels, got %d", res.Levels)
	}
}

func TestPartitionReducesFanout(t *testing.T) {
	queries := communityQueries(4096, 32, 2000, 10, 2)
	res, err := Partition(4096, queries, Options{BlockVectors: 32, Iterations: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFanout >= res.InitialFanout {
		t.Fatalf("fanout did not improve: initial %.2f final %.2f", res.InitialFanout, res.FinalFanout)
	}
	// With perfectly community-structured queries, the final fanout should
	// approach the ideal of ~ lookups/blockVectors per query (close to 1-2
	// blocks), far below the random-placement fanout (~10 blocks for 10
	// lookups).
	if res.FinalFanout > res.InitialFanout*0.6 {
		t.Fatalf("expected at least 40%% fanout reduction, got %.2f -> %.2f",
			res.InitialFanout, res.FinalFanout)
	}
}

func TestPartitionImprovesWithIterations(t *testing.T) {
	queries := communityQueries(2048, 32, 1000, 8, 5)
	none, err := Partition(2048, queries, Options{BlockVectors: 32, Iterations: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Partition(2048, queries, Options{BlockVectors: 32, Iterations: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if many.FinalFanout > none.FinalFanout+0.3 {
		t.Fatalf("more iterations should not be clearly worse: 1 iter %.2f, 16 iter %.2f",
			none.FinalFanout, many.FinalFanout)
	}
}

func TestPartitionHandlesUntouchedVectors(t *testing.T) {
	// Only the first 100 vectors appear in queries; the rest must still be
	// placed exactly once.
	queries := make([][]uint32, 50)
	rng := rand.New(rand.NewSource(9))
	for i := range queries {
		q := make([]uint32, 5)
		for j := range q {
			q[j] = uint32(rng.Intn(100))
		}
		queries[i] = q
	}
	res, err := Partition(1000, queries, Options{BlockVectors: 32, Iterations: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkUntrainedTail(t, res.Order, 1000, 32, queries)
}

// checkUntrainedTail checks a cold Partition's placement: it is a permutation
// of [0, n), exactly ceil(trained/blockVectors) blocks hold an id the queries
// name, and after those blocks come the untrained ids their padding did not
// take, in ascending id order.
func checkUntrainedTail(t *testing.T, order []uint32, n, blockVectors int, queries [][]uint32) {
	t.Helper()
	named := make([]bool, n)
	trained := 0
	for _, q := range queries {
		for _, id := range q {
			if !named[id] {
				named[id] = true
				trained++
			}
		}
	}
	if len(order) != n {
		t.Fatalf("n=%d B=%d: order length %d", n, blockVectors, len(order))
	}
	seen := make([]bool, n)
	for _, id := range order {
		if int(id) >= n || seen[id] {
			t.Fatalf("n=%d B=%d: order is not a permutation (id %d)", n, blockVectors, id)
		}
		seen[id] = true
	}
	blocks := 0
	for lo := 0; lo < n; lo += blockVectors {
		if slices.ContainsFunc(order[lo:min(lo+blockVectors, n)], func(id uint32) bool { return named[id] }) {
			blocks++
		}
	}
	want := (trained + blockVectors - 1) / blockVectors
	if blocks != want {
		t.Fatalf("n=%d B=%d: %d trained ids fill %d blocks, want %d", n, blockVectors, trained, blocks, want)
	}
	var untrained []uint32
	for id, ok := range named {
		if !ok {
			untrained = append(untrained, uint32(id))
		}
	}
	head := min(want*blockVectors, n)
	if !slices.Equal(order[head:], untrained[head-trained:]) {
		t.Fatalf("n=%d B=%d: the %d ids after the trained blocks are not the untrained ids %d.. in id order",
			n, blockVectors, n-head, head-trained)
	}
}

// TestUntrainedIDsGetTheirOwnBlocks runs cold partitions over random table
// sizes, block sizes and query sets — none, a generated trace that leaves
// part of the table untouched, and queries over a random subset of ids
// scattered across the table — and checks each placement with
// checkUntrainedTail: no block the trained ids fill holds more untrained ids
// than padding to whole blocks needs.
func TestUntrainedIDsGetTheirOwnBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 60; trial++ {
		blockVectors := 2 + rng.Intn(40)
		n := 1 + rng.Intn(3000)
		var queries [][]uint32
		switch trial % 3 {
		case 1:
			queries = generatedQueries(n, rng.Intn(200), int64(trial))
		case 2:
			pool := rng.Perm(n)[:1+rng.Intn(n)]
			queries = make([][]uint32, rng.Intn(300))
			for qi := range queries {
				q := make([]uint32, 1+rng.Intn(12))
				for j := range q {
					q[j] = uint32(pool[rng.Intn(len(pool))])
				}
				queries[qi] = q
			}
		}
		res, err := Partition(n, queries, Options{BlockVectors: blockVectors, Iterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkUntrainedTail(t, res.Order, n, blockVectors, queries)
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(0, nil, Options{}); err == nil {
		t.Fatal("zero vectors should error")
	}
	if _, err := Partition(10, [][]uint32{{1, 20}}, Options{}); err == nil {
		t.Fatal("out-of-range query should error")
	}
}

func TestPartitionSmallTableSingleBlock(t *testing.T) {
	res, err := Partition(16, [][]uint32{{1, 2}, {3, 4}}, Options{BlockVectors: 32, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 16 {
		t.Fatalf("order length %d", len(res.Order))
	}
	if res.FinalFanout != 1 {
		t.Fatalf("single block fanout should be 1, got %.2f", res.FinalFanout)
	}
}

func TestPartitionDeterministicInSeed(t *testing.T) {
	queries := communityQueries(1024, 32, 300, 6, 4)
	a, _ := Partition(1024, queries, Options{BlockVectors: 32, Iterations: 6, Seed: 11})
	b, _ := Partition(1024, queries, Options{BlockVectors: 32, Iterations: 6, Seed: 11})
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

func TestPartitionOnGeneratedTrace(t *testing.T) {
	// End-to-end against the workload generator: SHP must substantially
	// reduce fanout for a high-locality profile.
	p := trace.Profile{
		Name: "t", NumVectors: 8192, AvgLookups: 20,
		CompulsoryMissFrac: 0.05, Locality: 0.95, CommunitySize: 64, ReuseSkew: 3, Seed: 3,
	}
	tr := trace.GenerateTable(p, 2000)
	queries := make([][]uint32, len(tr.Queries))
	for i, q := range tr.Queries {
		queries[i] = q
	}
	res, err := Partition(p.NumVectors, queries, Options{BlockVectors: 32, Iterations: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFanout > res.InitialFanout*0.75 {
		t.Fatalf("SHP should cut fanout by at least 25%% on a high-locality trace: %.2f -> %.2f",
			res.InitialFanout, res.FinalFanout)
	}
}

// generatedQueries is a generated table's trace as the partitioner takes it.
func generatedQueries(numVectors, requests int, seed int64) [][]uint32 {
	tr := trace.GenerateTable(trace.Profile{
		Name: "t", NumVectors: numVectors, AvgLookups: 20,
		CompulsoryMissFrac: 0.05, Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: seed,
	}, requests)
	queries := make([][]uint32, len(tr.Queries))
	for i, q := range tr.Queries {
		queries[i] = q
	}
	return queries
}

func orderHash(order []uint32) uint64 {
	h := fnv.New64a()
	for _, id := range order {
		h.Write(binary.LittleEndian.AppendUint32(nil, id))
	}
	return h.Sum64()
}

// TestOrdersMatchMapBasedBisect pins the placement of a bisect that indexes
// its vertices through one run-wide array, projects the queries into one
// backing array per child and selects swaps without a full sort. The hashes
// were first taken from an implementation that indexed through a per-bucket
// map, projected every query into its own slice and sorted candidates with
// sort.Slice; 4,096 = 32 x 2^7 vectors, so every n/2 cut is already a block
// boundary and splitAt's alignment changed nothing here, and on sizes where it
// does (5,000 and 20,000 vectors, same seeds) the two implementations were
// compared with the cut left at n/2 and agreed on every order, cold and warm.
// They were re-taken when the cold start stopped bisecting the ids no training
// query names (these traces leave part of the table untouched, so both orders
// moved); TestEveryIDTrainedOrdersPinned holds the bisection itself to the
// earlier code.
func TestOrdersMatchMapBasedBisect(t *testing.T) {
	want := []struct{ cold, warm uint64 }{
		{0x47d4e86fc83551d1, 0x0b9108ddf12d2b0d},
		{0x0cb7042c6dbe35e1, 0xc5de4af06b96b3c9},
		{0x2120b96d5de3949d, 0x8820763997e7fc1d},
	}
	for i, w := range want {
		seed := int64(i + 1)
		cold, err := Partition(4096, generatedQueries(4096, 1500, seed), Options{BlockVectors: 32, Iterations: 16})
		if err != nil {
			t.Fatal(err)
		}
		if got := orderHash(cold.Order); got != w.cold {
			t.Errorf("seed %d: cold order hashes to %#x, the map-based bisect's to %#x", seed, got, w.cold)
		}
		warm, err := Repartition(cold.Order, generatedQueries(4096, 500, seed+10), Options{BlockVectors: 32, Iterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		if got := orderHash(warm.Order); got != w.warm {
			t.Errorf("seed %d: warm order hashes to %#x, the map-based bisect's to %#x", seed, got, w.warm)
		}
	}
}

// TestBenchmarkOrdersPinned pins SHP's orders on the four tables the
// benchmark trains (trace.DefaultProfiles at scale 0.002, dataset seed 1, so
// each profile's seed is offset by 100; the first 4,000 requests train): the
// cold Partition Train runs on each, and the warm Repartition an adaptation
// epoch runs over the next 2,000 requests. These tables are larger than
// TestOrdersMatchMapBasedBisect's and their gains tie far more often, so they
// hold the refinement's swap selection to the full sort on the inputs the
// benchmark's block reads come from. The hashes were re-taken when the cold
// start stopped bisecting the ids no training query names: every table leaves
// ids untrained, so both orders moved.
func TestBenchmarkOrdersPinned(t *testing.T) {
	want := []struct{ cold, warm uint64 }{
		{0xcf67fab22f073009, 0x26602345cfe40ce9},
		{0x13b9b41fdf0054ad, 0xfe349800771b1591},
		{0x3b8aacfe7af1694d, 0x0dc1942722ac7671},
		{0x897653877870906d, 0x22178dd7f655ab69},
	}
	for i, p := range trace.DefaultProfiles(0.002)[:len(want)] {
		p.Seed += 100
		tr := trace.GenerateTable(p, 6000)
		queries := make([][]uint32, len(tr.Queries))
		for qi, q := range tr.Queries {
			queries[qi] = q
		}
		cold, err := Partition(p.NumVectors, queries[:4000], Options{BlockVectors: 32, Iterations: 16, Seed: int64(1 + i)})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Repartition(cold.Order, queries[4000:], Options{BlockVectors: 32, Iterations: 6, Seed: int64(1 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if got := orderHash(cold.Order); got != want[i].cold {
			t.Errorf("table %d: cold order hashes to %#x, want %#x", i+1, got, want[i].cold)
		}
		if got := orderHash(warm.Order); got != want[i].warm {
			t.Errorf("table %d: warm order hashes to %#x, want %#x", i+1, got, want[i].warm)
		}
	}
}

// TestEveryIDTrainedOrdersPinned pins the cold and warm orders of a
// 1,000-vector table whose training queries name every id, to hashes taken
// before the cold start stopped bisecting untrained ids: with none to set
// aside, the root bucket is the whole table in id order as before, and the
// bisection must place it bit for bit as it did.
func TestEveryIDTrainedOrdersPinned(t *testing.T) {
	queries := generatedQueries(1000, 3000, 4)
	named := make([]bool, 1000)
	for _, q := range queries {
		for _, id := range q {
			named[id] = true
		}
	}
	if i := slices.Index(named, false); i >= 0 {
		t.Fatalf("vector %d is untrained: the pin would not cover a fully trained table", i)
	}
	cold, err := Partition(1000, queries, Options{BlockVectors: 32, Iterations: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := orderHash(cold.Order), uint64(0x191a4b848486f6a5); got != want {
		t.Errorf("cold order hashes to %#x, want %#x", got, want)
	}
	warm, err := Repartition(cold.Order, generatedQueries(1000, 1000, 14), Options{BlockVectors: 32, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := orderHash(warm.Order), uint64(0x4671bb9581c56f6d); got != want {
		t.Errorf("warm order hashes to %#x, want %#x", got, want)
	}
}

// TestLeavesAreBlocks drives the recursion by hand over random table and
// block sizes: every leaf, and every block of the untrained tail that follows
// the bisected ids, must be exactly one aligned run of BlockVectors ids of the
// final order (the last may be short), so the blocks layout.FromOrder cuts are
// the buckets the bisections optimised, and FinalFanout is the fanout of the
// layout a store installs.
func TestLeavesAreBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		blockVectors := 2 + rng.Intn(40)
		n := blockVectors + 1 + rng.Intn(3000)
		queries := generatedQueries(n, 300, int64(trial))
		opts := Options{BlockVectors: blockVectors, Iterations: 4}
		opts.defaults()

		p := &partitioner{n: n, queries: queries, opts: opts, localOf: make([]int32, n)}
		var leaves [][]uint32
		var recurse func(b *bucket)
		recurse = func(b *bucket) {
			if len(b.vertices) <= blockVectors {
				leaves = append(leaves, b.vertices)
				return
			}
			left, right := p.bisect(b)
			recurse(left)
			recurse(right)
		}
		order, root := p.root()
		recurse(root)
		for lo := len(root.vertices); lo < n; lo += blockVectors {
			leaves = append(leaves, order[lo:min(lo+blockVectors, n)])
		}

		res, err := Partition(n, queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := (n + blockVectors - 1) / blockVectors; len(leaves) != want {
			t.Fatalf("n=%d B=%d: %d leaves, want %d blocks", n, blockVectors, len(leaves), want)
		}
		for i, leaf := range leaves {
			lo := i * blockVectors
			hi := min(lo+blockVectors, n)
			if !slices.Equal(leaf, res.Order[lo:hi]) {
				t.Fatalf("n=%d B=%d: leaf %d (%d ids) is not Order[%d:%d]", n, blockVectors, i, len(leaf), lo, hi)
			}
		}
		l, err := layout.FromOrder(res.Order, blockVectors)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.AverageFanout(queries); got != res.FinalFanout {
			t.Fatalf("n=%d B=%d: FinalFanout %v, installed layout's fanout %v", n, blockVectors, res.FinalFanout, got)
		}
	}
}

func TestAverageFanoutEmptyQueries(t *testing.T) {
	if f := averageFanout(identityOrder(10), nil, 4); f != 0 {
		t.Fatalf("fanout of empty query set should be 0, got %g", f)
	}
}

func BenchmarkPartition8k(b *testing.B) {
	queries := communityQueries(8192, 32, 2000, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(8192, queries, Options{BlockVectors: 32, Iterations: 8, Seed: 1})
	}
}
