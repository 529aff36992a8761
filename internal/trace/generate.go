package trace

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Profile describes the statistical shape of one user embedding table's
// lookup stream. The defaults produced by DefaultProfiles mirror the paper's
// Table 1, scaled down by a configurable factor.
type Profile struct {
	Name       string
	NumVectors int
	// AvgLookups is the mean number of vector lookups this table receives
	// per request (Table 1, "avg request lookups").
	AvgLookups float64
	// CompulsoryMissFrac is the target fraction of lookups that reference a
	// vector never read before in the trace (Table 1, "compulsory misses").
	CompulsoryMissFrac float64
	// Locality in [0,1] is the probability that a lookup is drawn from one
	// of the request's co-access communities rather than from the global
	// popularity distribution. High locality makes the table partitionable
	// by SHP; low locality makes it behave like random access.
	Locality float64
	// CommunitySize is the number of vectors per co-access community.
	CommunitySize int
	// ReuseSkew >= 1 controls popularity skew among already-seen vectors:
	// a reuse lookup picks the touched vector at rank floor(n * U^ReuseSkew),
	// so larger values concentrate accesses on early (hot) vectors.
	ReuseSkew float64
	// HotSetRotation > 0 makes the workload drift: every HotSetRotation
	// requests the community popularity ranking rotates by a fixed stride,
	// so the communities that were hot in one phase go cold in the next.
	// Within a phase the stream is stationary; across phases the working
	// set moves, which is the scenario online adaptation exists for. 0
	// (the default) keeps the classic stationary workload.
	HotSetRotation int
	// Seed makes generation deterministic per table.
	Seed int64
}

// DefaultCommunitySize is used when Profile.CommunitySize is zero. 64
// vectors = 2 NVM blocks at 128 B/vector, which gives SHP useful but not
// trivial structure.
const DefaultCommunitySize = 64

// DefaultProfiles returns the 8 user embedding tables of the paper's
// Table 1, with vector counts scaled by `scale` (1.0 means the paper's 10 M
// and 20 M tables; the experiments default to scale = 0.01 i.e. 100 k/200 k).
//
// Locality is chosen inversely to the compulsory-miss rate: tables whose
// lookups are dominated by unique vectors (e.g. table 8 with 60.8%
// compulsory misses) have little co-access structure to exploit, matching
// the paper's observation that they benefit least from partitioning.
func DefaultProfiles(scale float64) []Profile {
	if scale <= 0 {
		scale = 0.01
	}
	base := []struct {
		vectors    int
		avgLookups float64
		compulsory float64
		locality   float64
	}{
		{10_000_000, 34.83, 0.0416, 0.92},
		{10_000_000, 92.75, 0.0219, 0.95},
		{20_000_000, 26.67, 0.2429, 0.60},
		{20_000_000, 25.14, 0.1946, 0.65},
		{10_000_000, 30.22, 0.2268, 0.62},
		{10_000_000, 53.50, 0.2694, 0.55},
		{10_000_000, 54.35, 0.1136, 0.80},
		{20_000_000, 17.68, 0.6083, 0.25},
	}
	profiles := make([]Profile, len(base))
	for i, b := range base {
		n := int(float64(b.vectors) * scale)
		if n < 1024 {
			n = 1024
		}
		profiles[i] = Profile{
			Name:               fmt.Sprintf("table%d", i+1),
			NumVectors:         n,
			AvgLookups:         b.avgLookups,
			CompulsoryMissFrac: b.compulsory,
			Locality:           b.locality,
			CommunitySize:      DefaultCommunitySize,
			ReuseSkew:          3.0,
			Seed:               int64(1000 + i),
		}
	}
	return profiles
}

// DriftProfiles returns DefaultProfiles with hot-set rotation enabled on
// every table: each table's hot communities rotate every rotateEvery
// requests. This is the drift workload used to exercise online adaptation —
// a configuration trained (or adapted) on one phase degrades on the next
// unless the tuning loop keeps running.
func DriftProfiles(scale float64, rotateEvery int) []Profile {
	profiles := DefaultProfiles(scale)
	for i := range profiles {
		profiles[i].HotSetRotation = rotateEvery
	}
	return profiles
}

// generator holds the evolving state of one table's synthetic stream.
type generator struct {
	p   Profile
	rng *rand.Rand

	numCommunities int
	// members[c] lists the vector IDs belonging to community c. Membership
	// is a random partition of the ID space so that the identity layout
	// carries no locality (as in production, where IDs are assigned
	// independently of co-access).
	members [][]uint32
	// nextFresh[c] indexes the first never-touched member of community c.
	nextFresh []int
	// touched[c] lists community members that have been accessed, in first
	// touch order (early entries are the community's hot vectors).
	touched [][]uint32
	// globalTouched lists all touched vectors for non-local reuse.
	globalTouched []uint32
	communityZipf *rand.Zipf
	communityOf   []int32
	// queryCount and rotStride drive hot-set rotation: the Zipf rank of a
	// theme community is shifted by (phase * rotStride) mod numCommunities,
	// with the phase advancing every HotSetRotation queries.
	queryCount int
	rotStride  int
	// stamp[v] == queryStamp marks v as already in the query being built:
	// nextQuery's duplicate test without a per-query set.
	stamp      []uint32
	queryStamp uint32
	// themes is nextQuery's reused buffer of the request's communities.
	themes []int
}

func newGenerator(p Profile) *generator {
	if p.CommunitySize <= 0 {
		p.CommunitySize = DefaultCommunitySize
	}
	if p.ReuseSkew < 1 {
		p.ReuseSkew = 1
	}
	if p.Locality < 0 {
		p.Locality = 0
	}
	if p.Locality > 1 {
		p.Locality = 1
	}
	if p.CompulsoryMissFrac <= 0 {
		p.CompulsoryMissFrac = 0.01
	}
	rng := rand.New(rand.NewSource(p.Seed))
	numCommunities := (p.NumVectors + p.CommunitySize - 1) / p.CommunitySize
	g := &generator{
		p:              p,
		rng:            rng,
		numCommunities: numCommunities,
		members:        make([][]uint32, numCommunities),
		nextFresh:      make([]int, numCommunities),
		touched:        make([][]uint32, numCommunities),
		communityOf:    make([]int32, p.NumVectors),
		stamp:          make([]uint32, p.NumVectors),
	}
	// Random partition of the ID space into communities.
	perm := rng.Perm(p.NumVectors)
	for i, v := range perm {
		c := i / p.CommunitySize
		g.members[c] = append(g.members[c], uint32(v))
		g.communityOf[v] = int32(c)
	}
	// Popularity over communities: Zipf with moderate skew so some
	// communities are much hotter than others (drives Figure 4's heavy
	// tails).
	g.communityZipf = rand.NewZipf(rng, 1.3, 4, uint64(numCommunities-1))
	// A stride around a third of the community count (and coprime-ish with
	// it) makes consecutive phases' hot sets nearly disjoint.
	g.rotStride = numCommunities/3 + 1
	return g
}

// rotatedCommunity maps a popularity rank to a concrete community, applying
// the profile's hot-set rotation so the identity of the hot communities
// drifts over time while the popularity *distribution* stays the same.
func (g *generator) rotatedCommunity(rank uint64) int {
	if g.p.HotSetRotation <= 0 {
		return int(rank)
	}
	phase := g.queryCount / g.p.HotSetRotation
	return int((rank + uint64(phase)*uint64(g.rotStride)) % uint64(g.numCommunities))
}

// pickReuse selects an already touched vector from list with the profile's
// popularity skew.
func (g *generator) pickReuse(list []uint32) (uint32, bool) {
	if len(list) == 0 {
		return 0, false
	}
	u := g.rng.Float64()
	idx := int(math.Pow(u, g.p.ReuseSkew) * float64(len(list)))
	if idx >= len(list) {
		idx = len(list) - 1
	}
	return list[idx], true
}

// pickFresh takes the next never-touched vector of community c, if any.
func (g *generator) pickFresh(c int) (uint32, bool) {
	if g.nextFresh[c] >= len(g.members[c]) {
		return 0, false
	}
	v := g.members[c][g.nextFresh[c]]
	g.nextFresh[c]++
	g.touched[c] = append(g.touched[c], v)
	g.globalTouched = append(g.globalTouched, v)
	return v, true
}

// poisson draws a Poisson variate with the given mean using the normal
// approximation for large means and Knuth's method otherwise.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(rng.NormFloat64()*math.Sqrt(mean) + mean))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// nextQuery generates the lookups of one request against this table.
func (g *generator) nextQuery() Query {
	g.queryCount++
	n := poisson(g.rng, g.p.AvgLookups)
	if n > g.p.NumVectors/2 {
		n = g.p.NumVectors / 2
	}
	if n == 0 {
		return Query{}
	}
	// The request concentrates on a handful of communities ("themes").
	numThemes := 1 + n/16
	themes := g.themes[:0]
	for i := 0; i < numThemes; i++ {
		themes = append(themes, g.rotatedCommunity(g.communityZipf.Uint64()))
	}
	g.themes = themes

	g.queryStamp++
	if g.queryStamp == 0 {
		// Wrapped: clear the stamps so none can read as this query's.
		clear(g.stamp)
		g.queryStamp = 1
	}
	stamp := g.queryStamp
	q := make(Query, 0, n)
	attempts := 0
	for len(q) < n && attempts < 20*n {
		attempts++
		var id uint32
		var ok bool
		local := g.rng.Float64() < g.p.Locality
		fresh := g.rng.Float64() < g.p.CompulsoryMissFrac
		if local {
			c := themes[g.rng.Intn(len(themes))]
			if fresh {
				id, ok = g.pickFresh(c)
				if !ok {
					id, ok = g.pickReuse(g.touched[c])
				}
			} else {
				id, ok = g.pickReuse(g.touched[c])
				if !ok {
					id, ok = g.pickFresh(c)
				}
			}
		} else {
			if fresh {
				c := g.rng.Intn(g.numCommunities)
				id, ok = g.pickFresh(c)
				if !ok {
					id, ok = g.pickReuse(g.globalTouched)
				}
			} else {
				id, ok = g.pickReuse(g.globalTouched)
				if !ok {
					c := g.rng.Intn(g.numCommunities)
					id, ok = g.pickFresh(c)
				}
			}
		}
		if !ok {
			// Table exhausted (tiny tables in tests): fall back to uniform.
			id = uint32(g.rng.Intn(g.p.NumVectors))
		}
		if g.stamp[id] == stamp {
			// Avoid duplicate lookups within one request; retry a bounded
			// number of times by drawing uniformly from the touched set.
			if alt, okAlt := g.pickReuse(g.globalTouched); okAlt {
				if g.stamp[alt] != stamp {
					id = alt
				} else {
					continue
				}
			} else {
				continue
			}
		}
		g.stamp[id] = stamp
		q = append(q, id)
	}
	return q
}

// generate runs profile p's generator for numQueries requests and returns
// its trace and the community of every vector. It is the one generation
// loop: GenerateTable, GenerateWorkload (one call per profile, in
// parallel) and CommunityAssignment (numQueries 0) all run it.
func generate(p Profile, numQueries int) (*Trace, []int32) {
	g := newGenerator(p)
	tr := &Trace{TableName: p.Name, NumVectors: p.NumVectors, Queries: make([]Query, 0, numQueries)}
	for i := 0; i < numQueries; i++ {
		tr.Queries = append(tr.Queries, g.nextQuery())
	}
	return tr, g.communityOf
}

// GenerateTable produces a synthetic trace of numQueries requests for a
// single table profile.
func GenerateTable(p Profile, numQueries int) *Trace {
	tr, _ := generate(p, numQueries)
	return tr
}

// GenerateWorkload produces traces for every profile over the same stream of
// numRequests requests (query i in every table belongs to request i), and
// records the community assignment of each table so embedding generation can
// be aligned with co-access.
func GenerateWorkload(profiles []Profile, numRequests int) *Workload {
	return GenerateWorkloadThen(profiles, numRequests, nil)
}

// GenerateWorkloadThen is GenerateWorkload with a per-table step: then(w, i)
// runs in profile i's job as soon as w.Traces[i] and w.Communities[i] are
// set, so work derived from one table's trace (synth's vectors) is built in
// the same parallel pass. then may be nil; it must touch only table i's
// share of w and of its own state.
//
// Each profile is one job, and at most runtime.GOMAXPROCS(0) jobs run at
// once. Every generator draws from its own profile-seeded source, so the
// result is bit-identical to a serial run whatever the schedule. A panic in
// any job reaches the caller, as it would in a serial run.
func GenerateWorkloadThen(profiles []Profile, numRequests int, then func(w *Workload, i int)) *Workload {
	w := &Workload{
		Profiles:    profiles,
		Traces:      make([]*Trace, len(profiles)),
		Communities: make([][]int32, len(profiles)),
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		panicked any
	)
	// run takes jobs until none are left. A panic in a job (a bad profile,
	// a panicking then) stops every worker from taking more and is raised
	// again on the caller's goroutine once all of them have returned.
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(len(profiles)))
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(profiles) {
				return
			}
			w.Traces[i], w.Communities[i] = generate(profiles[i], numRequests)
			if then != nil {
				then(w, i)
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(profiles))
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return w
}

// CommunityAssignment returns the community index of every vector for a
// profile, without generating any queries. It is deterministic in the
// profile's seed and matches what GenerateWorkload records.
func CommunityAssignment(p Profile) []int32 {
	_, communityOf := generate(p, 0)
	return communityOf
}
