package trace

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func smallProfile(seed int64) Profile {
	return Profile{
		Name:               "test",
		NumVectors:         20000,
		AvgLookups:         30,
		CompulsoryMissFrac: 0.10,
		Locality:           0.9,
		CommunitySize:      64,
		ReuseSkew:          3,
		Seed:               seed,
	}
}

func TestGenerateTableBasicShape(t *testing.T) {
	tr := GenerateTable(smallProfile(1), 2000)
	if len(tr.Queries) != 2000 {
		t.Fatalf("queries = %d", len(tr.Queries))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if math.Abs(s.AvgLookups-30) > 3 {
		t.Fatalf("avg lookups = %.2f, want ~30", s.AvgLookups)
	}
	if s.Lookups < 40000 {
		t.Fatalf("too few lookups: %d", s.Lookups)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateTable(smallProfile(7), 500)
	b := GenerateTable(smallProfile(7), 500)
	if len(a.Queries) != len(b.Queries) {
		t.Fatalf("query count mismatch")
	}
	for i := range a.Queries {
		if len(a.Queries[i]) != len(b.Queries[i]) {
			t.Fatalf("query %d length mismatch", i)
		}
		for j := range a.Queries[i] {
			if a.Queries[i][j] != b.Queries[i][j] {
				t.Fatalf("query %d lookup %d mismatch", i, j)
			}
		}
	}
}

func TestCompulsoryMissFractionRoughlyMatchesTarget(t *testing.T) {
	for _, target := range []float64{0.05, 0.25, 0.60} {
		p := smallProfile(3)
		p.NumVectors = 100000
		p.CompulsoryMissFrac = target
		tr := GenerateTable(p, 3000)
		got := tr.Stats().CompulsoryMissFrac
		// Community exhaustion and dedup make this approximate; within a
		// factor band is enough for the experiments to show the right
		// ordering between tables.
		if got < target*0.4 || got > target*1.8 {
			t.Errorf("target compulsory %.2f: got %.3f (outside band)", target, got)
		}
	}
}

func TestCompulsoryMissOrderingAcrossProfiles(t *testing.T) {
	// Table 2 (2.19%) must end up more cacheable than table 8 (60.83%).
	profiles := DefaultProfiles(0.002)
	w := GenerateWorkload([]Profile{profiles[1], profiles[7]}, 1500)
	s2 := w.Traces[0].Stats()
	s8 := w.Traces[1].Stats()
	if s2.CompulsoryMissFrac >= s8.CompulsoryMissFrac {
		t.Fatalf("table2 compulsory %.3f should be below table8 %.3f",
			s2.CompulsoryMissFrac, s8.CompulsoryMissFrac)
	}
}

func TestDefaultProfilesShape(t *testing.T) {
	ps := DefaultProfiles(0.01)
	if len(ps) != 8 {
		t.Fatalf("want 8 profiles, got %d", len(ps))
	}
	if ps[0].NumVectors != 100000 || ps[2].NumVectors != 200000 {
		t.Fatalf("scaled sizes wrong: %d %d", ps[0].NumVectors, ps[2].NumVectors)
	}
	if ps[1].AvgLookups != 92.75 {
		t.Fatalf("table2 avg lookups = %g", ps[1].AvgLookups)
	}
	// Tiny scale clamps to a floor.
	tiny := DefaultProfiles(0.000001)
	for _, p := range tiny {
		if p.NumVectors < 1024 {
			t.Fatalf("NumVectors below floor: %d", p.NumVectors)
		}
	}
}

func TestQueriesHaveNoDuplicateLookups(t *testing.T) {
	tr := GenerateTable(smallProfile(5), 500)
	for qi, q := range tr.Queries {
		seen := map[uint32]bool{}
		for _, id := range q {
			if seen[id] {
				t.Fatalf("query %d contains duplicate id %d", qi, id)
			}
			seen[id] = true
		}
	}
}

func TestTinyTableDoesNotHang(t *testing.T) {
	p := Profile{Name: "tiny", NumVectors: 64, AvgLookups: 200, CompulsoryMissFrac: 0.5, Locality: 0.9, Seed: 1}
	tr := GenerateTable(p, 50)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range tr.Queries {
		if len(q) > 32 {
			t.Fatalf("query longer than half the table: %d", len(q))
		}
	}
}

func TestAccessCountsMatchLookups(t *testing.T) {
	tr := GenerateTable(smallProfile(9), 300)
	counts := tr.AccessCounts()
	var sum int64
	for _, c := range counts {
		sum += int64(c)
	}
	if sum != tr.Lookups() {
		t.Fatalf("access counts sum %d != lookups %d", sum, tr.Lookups())
	}
}

func TestAccessHistogram(t *testing.T) {
	tr := GenerateTable(smallProfile(11), 1000)
	bins := tr.AccessHistogram(10)
	if len(bins) != 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.NumVectors
		if b.Hi <= b.Lo {
			t.Fatalf("bad bin bounds %d..%d", b.Lo, b.Hi)
		}
	}
	if total != tr.Stats().UniqueVectors {
		t.Fatalf("histogram total %d != unique vectors %d", total, tr.Stats().UniqueVectors)
	}
	// Heavy-tailed: the first bin (rarely accessed) should dominate.
	if bins[0].NumVectors < total/2 {
		t.Errorf("expected heavy-tailed histogram, first bin has %d of %d", bins[0].NumVectors, total)
	}
}

func TestAccessHistogramEmptyTrace(t *testing.T) {
	tr := &Trace{TableName: "empty", NumVectors: 10}
	if bins := tr.AccessHistogram(5); bins != nil {
		t.Fatalf("expected nil histogram for empty trace")
	}
	s := tr.Stats()
	if s.Lookups != 0 || s.CompulsoryMissFrac != 0 || s.AvgLookups != 0 {
		t.Fatalf("empty trace stats wrong: %+v", s)
	}
}

func TestSplitAndPrefix(t *testing.T) {
	tr := GenerateTable(smallProfile(13), 100)
	train, eval := tr.Split(0.8)
	if len(train.Queries) != 80 || len(eval.Queries) != 20 {
		t.Fatalf("split sizes %d/%d", len(train.Queries), len(eval.Queries))
	}
	if p := tr.Prefix(10); len(p.Queries) != 10 {
		t.Fatalf("prefix size %d", len(p.Queries))
	}
	if p := tr.Prefix(1000); len(p.Queries) != 100 {
		t.Fatalf("oversized prefix should clamp, got %d", len(p.Queries))
	}
	if p := tr.Prefix(-5); len(p.Queries) != 0 {
		t.Fatalf("negative prefix should clamp to 0")
	}
	train2, eval2 := tr.Split(2.0)
	if len(train2.Queries) != 100 || len(eval2.Queries) != 0 {
		t.Fatalf("clamped split wrong")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	tr := &Trace{TableName: "bad", NumVectors: 10, Queries: []Query{{1, 2}, {99}}}
	if err := tr.Validate(); err == nil {
		t.Fatalf("expected validation error")
	}
}

func TestWorkloadSharesOrderedByAvgLookups(t *testing.T) {
	profiles := DefaultProfiles(0.002)
	w := GenerateWorkload(profiles, 400)
	shares := w.LookupShares()
	if len(shares) != 8 {
		t.Fatalf("shares length %d", len(shares))
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %g", sum)
	}
	// Table 2 has by far the highest avg lookups and must hold the largest
	// share; table 8 the smallest.
	maxIdx, minIdx := 0, 0
	for i, s := range shares {
		if s > shares[maxIdx] {
			maxIdx = i
		}
		if s < shares[minIdx] {
			minIdx = i
		}
	}
	if maxIdx != 1 {
		t.Errorf("largest share should be table2 (idx 1), got idx %d (%v)", maxIdx, shares)
	}
	if minIdx != 7 {
		t.Errorf("smallest share should be table8 (idx 7), got idx %d (%v)", minIdx, shares)
	}
	top := w.TopTablesByLookups(4)
	if top[0] != 1 {
		t.Errorf("top table should be index 1, got %v", top)
	}
	if len(w.TopTablesByLookups(100)) != 8 {
		t.Errorf("TopTablesByLookups should clamp to table count")
	}
}

func TestCommunityAssignmentsStable(t *testing.T) {
	p := smallProfile(21)
	a := CommunityAssignment(p)
	b := CommunityAssignment(p)
	if len(a) != p.NumVectors {
		t.Fatalf("assignment length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("community assignment not deterministic at %d", i)
		}
	}
	// Matches what GenerateWorkload records.
	w := GenerateWorkload([]Profile{p}, 10)
	for i := range a {
		if w.Communities[0][i] != a[i] {
			t.Fatalf("workload communities diverge at %d", i)
		}
	}
}

func TestCommunityLocalityPresentInQueries(t *testing.T) {
	// With high locality, the average number of distinct communities per
	// query must be far below the number of lookups per query.
	p := smallProfile(31)
	p.Locality = 0.95
	g := newGenerator(p)
	var lookups, communities int
	for i := 0; i < 300; i++ {
		q := g.nextQuery()
		seen := map[int32]bool{}
		for _, id := range q {
			seen[g.communityOf[id]] = true
		}
		lookups += len(q)
		communities += len(seen)
	}
	if lookups == 0 {
		t.Fatal("no lookups generated")
	}
	ratio := float64(communities) / float64(lookups)
	if ratio > 0.6 {
		t.Fatalf("queries touch too many communities (ratio %.2f); locality broken", ratio)
	}
}

func TestPoissonMean(t *testing.T) {
	g := newGenerator(smallProfile(41))
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += float64(poisson(g.rng, 12))
	}
	mean := sum / n
	if math.Abs(mean-12) > 0.5 {
		t.Fatalf("poisson mean = %.2f, want ~12", mean)
	}
	if poisson(g.rng, 0) != 0 {
		t.Fatalf("poisson(0) should be 0")
	}
	// Large-mean branch.
	sum = 0
	for i := 0; i < n; i++ {
		sum += float64(poisson(g.rng, 90))
	}
	if mean := sum / n; math.Abs(mean-90) > 2 {
		t.Fatalf("poisson(90) mean = %.2f", mean)
	}
}

func BenchmarkGenerateTable(b *testing.B) {
	p := smallProfile(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateTable(p, 100)
	}
}

// TestGenerateWorkloadMatchesSerial checks that the parallel build is the
// serial one: every trace is GenerateTable's and every assignment is
// CommunityAssignment's, whatever GOMAXPROCS is.
func TestGenerateWorkloadMatchesSerial(t *testing.T) {
	profiles := []Profile{smallProfile(21), smallProfile(22), smallProfile(23), smallProfile(24), smallProfile(25)}
	profiles[1].AvgLookups = 90
	profiles[3].HotSetRotation = 50
	w := GenerateWorkload(profiles, 300)
	for i, p := range profiles {
		want := GenerateTable(p, 300)
		if len(w.Traces[i].Queries) != len(want.Queries) {
			t.Fatalf("profile %d: %d queries, want %d", i, len(w.Traces[i].Queries), len(want.Queries))
		}
		for r, q := range want.Queries {
			got := w.Traces[i].Queries[r]
			if len(got) != len(q) {
				t.Fatalf("profile %d query %d: %d lookups, want %d", i, r, len(got), len(q))
			}
			for k := range q {
				if got[k] != q[k] {
					t.Fatalf("profile %d query %d lookup %d = %d, want %d", i, r, k, got[k], q[k])
				}
			}
		}
		for v, c := range CommunityAssignment(p) {
			if w.Communities[i][v] != c {
				t.Fatalf("profile %d vector %d: community %d, want %d", i, v, w.Communities[i][v], c)
			}
		}
	}
}

// TestGenerateWorkloadThenBoundsJobs checks that the per-table step runs
// once per profile, after that profile's trace is in place, with at most
// GOMAXPROCS jobs at once.
func TestGenerateWorkloadThenBoundsJobs(t *testing.T) {
	profiles := make([]Profile, 9)
	for i := range profiles {
		profiles[i] = smallProfile(int64(30 + i))
	}
	var mu sync.Mutex
	running, peak := 0, 0
	calls := make([]int, len(profiles))
	w := GenerateWorkloadThen(profiles, 50, func(w *Workload, i int) {
		mu.Lock()
		running++
		peak = max(peak, running)
		calls[i]++
		mu.Unlock()
		if len(w.Traces[i].Queries) != 50 || len(w.Communities[i]) != profiles[i].NumVectors {
			t.Errorf("profile %d: step ran before its trace was in place", i)
		}
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
	})
	if len(w.Traces) != len(profiles) {
		t.Fatalf("%d traces, want %d", len(w.Traces), len(profiles))
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("profile %d: step ran %d times", i, n)
		}
	}
	if procs := runtime.GOMAXPROCS(0); peak > procs {
		t.Errorf("%d jobs ran at once, GOMAXPROCS is %d", peak, procs)
	}
}

// TestGenerateWorkloadThenPanicReachesCaller checks that a panic in one
// table's job, on whichever worker runs it, is raised on the caller's
// goroutine where a recover can catch it.
func TestGenerateWorkloadThenPanicReachesCaller(t *testing.T) {
	profiles := make([]Profile, 6)
	for i := range profiles {
		profiles[i] = smallProfile(int64(40 + i))
	}
	defer func() {
		if r := recover(); r != "table 4" {
			t.Fatalf("recovered %v, want the job's panic", r)
		}
	}()
	GenerateWorkloadThen(profiles, 20, func(_ *Workload, i int) {
		if i == 4 {
			panic("table 4")
		}
	})
	t.Fatal("GenerateWorkloadThen returned after a job panicked")
}
