// Package shp implements the supervised partitioner Bandana uses in
// production: a Social Hash Partitioner (Kabiljo et al., VLDB 2017) over the
// lookup hypergraph.
//
// Vertices are embedding vectors; hyperedges are queries (the set of vectors
// a single request looked up). The goal is a balanced partition of the
// vectors into NVM blocks that minimises the average *fanout* — the number
// of distinct blocks a query has to read (Equation 3 of the Bandana paper).
//
// The algorithm is recursive balanced bisection: starting from one bucket
// holding the vectors the training queries name (padded with untrained ones
// to whole blocks), each bucket is repeatedly split into two halves of whole
// blocks. A split is refined with a configurable number of swap
// iterations: each iteration computes, for every vertex, the fanout gain of
// moving it to the other side, and then swaps the highest-gain pairs so the
// two sides stay balanced. Recursion stops when buckets reach the target
// block size (32 vectors for 128 B vectors in 4 KB blocks), so the leaves are
// the blocks. Sibling buckets are refined in parallel. The vectors no query
// names carry no co-access signal, so they are not bisected: they follow in
// ascending id order, in blocks of their own, and a block the training
// traffic reads holds no untrained vector beyond the padding.
package shp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Options configures a partitioning run.
type Options struct {
	// BlockVectors is the target number of vectors per block (bucket leaf
	// size). Defaults to 32.
	BlockVectors int
	// Iterations is the number of swap-refinement iterations per bisection
	// level (the paper uses 16).
	Iterations int
	// Seed is unused: the run has no randomness (a cold start splits in
	// first-co-access order, a warm start from InitialOrder). It is kept so
	// existing callers compile.
	Seed int64
	// Workers bounds the number of buckets refined concurrently. Defaults
	// to GOMAXPROCS.
	Workers int
	// MaxSwapFraction caps the fraction of a side that may be swapped in a
	// single iteration (guards against oscillation). Defaults to 0.2.
	MaxSwapFraction float64
	// InitialOrder warm-starts the partitioner from an existing placement
	// (e.g. the layout currently on NVM): the working order starts as
	// InitialOrder and every bisection seeds its split from the incoming
	// arrangement instead of first-co-access order, so refinement is
	// incremental — few iterations suffice to adapt a good layout to a
	// drifted workload, and with zero signal the old layout survives
	// unchanged. Must be a permutation of [0, numVectors). Nil starts from
	// scratch (Repartition sets it for you).
	InitialOrder []uint32
}

func (o *Options) defaults() {
	if o.BlockVectors <= 0 {
		o.BlockVectors = 32
	}
	if o.Iterations <= 0 {
		o.Iterations = 16
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxSwapFraction <= 0 || o.MaxSwapFraction > 1 {
		o.MaxSwapFraction = 0.2
	}
}

// Result is the outcome of a partitioning run.
type Result struct {
	// Order is the physical placement: Order[pos] = vector ID.
	Order []uint32
	// Levels is the number of bisection levels performed.
	Levels int
	// InitialFanout and FinalFanout are the average query fanout before and
	// after partitioning, measured on the training queries with the target
	// block size.
	InitialFanout float64
	FinalFanout   float64
}

// Partition partitions numVectors vectors using the training queries. A cold
// start (no InitialOrder) bisects the vectors the queries name, padded with
// the lowest-numbered untrained vectors to whole blocks, so the trained
// vectors fill ceil(trained/BlockVectors) blocks; the other untrained vectors
// follow in ascending id order. A warm start refines the whole InitialOrder.
func Partition(numVectors int, queries [][]uint32, opts Options) (*Result, error) {
	if numVectors <= 0 {
		return nil, fmt.Errorf("shp: no vectors to partition")
	}
	opts.defaults()
	for qi, q := range queries {
		for _, id := range q {
			if int(id) >= numVectors {
				return nil, fmt.Errorf("shp: query %d references vector %d outside table of %d", qi, id, numVectors)
			}
		}
	}

	if opts.InitialOrder != nil {
		if err := validateOrder(opts.InitialOrder, numVectors); err != nil {
			return nil, err
		}
	}

	p := &partitioner{
		n:       numVectors,
		queries: queries,
		opts:    opts,
	}
	order := p.run()

	res := &Result{Order: order, Levels: p.levels}
	// Fanout measured against the training hypergraph. The baseline is the
	// placement the run started from: identity for a cold start, the
	// warm-start order for an incremental run — so InitialFanout-FinalFanout
	// is directly the predicted gain of migrating to the new layout.
	before := opts.InitialOrder
	if before == nil {
		before = identityOrder(numVectors)
	}
	res.InitialFanout = averageFanout(before, queries, opts.BlockVectors)
	res.FinalFanout = averageFanout(order, queries, opts.BlockVectors)
	return res, nil
}

// Repartition incrementally re-partitions an existing placement against a
// fresh set of queries: the run is warm-started from prev (see
// Options.InitialOrder), making it the entry point for online background
// re-layout, where the workload has drifted but the current layout is still
// a far better seed than a random split.
func Repartition(prev []uint32, queries [][]uint32, opts Options) (*Result, error) {
	opts.InitialOrder = prev
	return Partition(len(prev), queries, opts)
}

// validateOrder checks that order is a permutation of [0, n).
func validateOrder(order []uint32, n int) error {
	if len(order) != n {
		return fmt.Errorf("shp: initial order covers %d vectors, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if int(id) >= n || seen[id] {
			return fmt.Errorf("shp: initial order is not a permutation (vector %d)", id)
		}
		seen[id] = true
	}
	return nil
}

func identityOrder(n int) []uint32 {
	o := make([]uint32, n)
	for i := range o {
		o[i] = uint32(i)
	}
	return o
}

// averageFanout computes the mean number of distinct blocks per query for a
// given placement order.
func averageFanout(order []uint32, queries [][]uint32, blockVectors int) float64 {
	if len(queries) == 0 {
		return 0
	}
	pos := make([]uint32, len(order))
	for p, id := range order {
		pos[id] = uint32(p)
	}
	// stamp[b] is 1 + the index of the last query that read block b.
	stamp := make([]uint32, (len(order)+blockVectors-1)/blockVectors)
	var total int64
	for qi, q := range queries {
		for _, id := range q {
			if b := pos[id] / uint32(blockVectors); stamp[b] != uint32(qi+1) {
				stamp[b] = uint32(qi + 1)
				total++
			}
		}
	}
	return float64(total) / float64(len(queries))
}

// partitioner holds the shared state of one run.
type partitioner struct {
	n       int
	queries [][]uint32
	opts    Options
	levels  int
	// localOf[id] is id's index within the bucket that currently owns it.
	// One array serves the whole run without locking: sibling buckets own
	// disjoint ids, a bucket's queries name only its own ids, and a bucket
	// is bisected before either child exists.
	localOf []int32
}

// bucket is a contiguous range of the working order slice under refinement,
// with the training queries restricted to it: query i is
// qids[qoff[i]:qoff[i+1]].
type bucket struct {
	vertices []uint32 // vector IDs in this bucket (mutated in place)
	qids     []uint32
	qoff     []int32
	depth    int
}

// root returns the run's working order, which becomes the placement, and the
// bucket the bisections start from, a prefix of it. A warm start bisects the
// whole incoming placement. A cold start bisects only the ids the queries
// name, in id order, padded with the lowest-numbered untrained ids to whole
// blocks; every other id follows in ascending id order, in blocks of its own,
// so the trained ids fill ceil(trained/BlockVectors) blocks.
func (p *partitioner) root() ([]uint32, *bucket) {
	var order []uint32
	bisected := p.n
	if p.opts.InitialOrder != nil {
		order = slices.Clone(p.opts.InitialOrder)
	} else {
		named := make([]bool, p.n)
		for _, q := range p.queries {
			for _, id := range q {
				named[id] = true
			}
		}
		order = make([]uint32, 0, p.n)
		for id, ok := range named {
			if ok {
				order = append(order, uint32(id))
			}
		}
		bv := p.opts.BlockVectors
		bisected = min((len(order)+bv-1)/bv*bv, p.n)
		for id, ok := range named {
			if !ok {
				order = append(order, uint32(id))
			}
		}
	}
	lookups := 0
	for _, q := range p.queries {
		lookups += len(q)
	}
	b := &bucket{vertices: order[:bisected], qids: make([]uint32, 0, lookups), qoff: make([]int32, 1, len(p.queries)+1)}
	for _, q := range p.queries {
		b.qids = append(b.qids, q...)
		b.qoff = append(b.qoff, int32(len(b.qids)))
	}
	return order, b
}

func (p *partitioner) run() []uint32 {
	p.localOf = make([]int32, p.n)
	order, root := p.root()
	var wg sync.WaitGroup
	sem := make(chan struct{}, p.opts.Workers)
	var maxDepth int
	var mu sync.Mutex

	var recurse func(b *bucket)
	recurse = func(b *bucket) {
		mu.Lock()
		if b.depth > maxDepth {
			maxDepth = b.depth
		}
		mu.Unlock()
		if len(b.vertices) <= p.opts.BlockVectors {
			return
		}
		left, right := p.bisect(b)
		// Refine children concurrently when workers are available.
		wg.Add(1)
		select {
		case sem <- struct{}{}:
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				recurse(left)
			}()
		default:
			recurse(left)
			wg.Done()
		}
		recurse(right)
	}
	recurse(root)
	wg.Wait()
	p.levels = maxDepth + 1
	return order
}

// movePow[k] is 0.5^k. Refinement uses the Social Hash Partitioner's smoothed
// move gain: for a query with cntSame co-located vertices (including v) and
// cntOther vertices on the far side, moving v is worth
//
//	p^(cntSame-1) - p^cntOther        (p = 0.5)
//
// which reduces to the exact fanout delta when the counts are 0/1 but,
// unlike the exact delta, still provides a gradient when queries span
// both sides — exactly the situation at the top bisection levels.
var movePow = func() (pow [64]float64) {
	pow[0] = 1
	for i := 1; i < len(pow); i++ {
		pow[i] = pow[i-1] * 0.5
	}
	return pow
}()

func powAt(k int32) float64 {
	if int(k) >= len(movePow) {
		return 0
	}
	return movePow[k]
}

// splitAt is where a bucket of n > blockVectors vectors is cut: half its
// blocks, rounded down, go left. Every cut then falls on a block boundary of
// the final order, so the recursion's leaves are exactly the blocks
// layout.FromOrder makes of it (only the table's last block may be partial)
// and the fanout each bisection minimises is the fanout of those blocks.
func splitAt(n, blockVectors int) int {
	blocks := (n + blockVectors - 1) / blockVectors
	return blocks / 2 * blockVectors
}

// bisect splits a bucket's vertices (in place) into two halves (see splitAt)
// with minimised fanout, and returns child buckets that alias the two halves.
func (p *partitioner) bisect(b *bucket) (*bucket, *bucket) {
	n := len(b.vertices)
	half := splitAt(n, p.opts.BlockVectors)
	numQueries := len(b.qoff) - 1

	// Local indexing: local[k] is the position in b.vertices of the vertex
	// b.qids[k] names. side[i] is 0 (left) or 1.
	for i, v := range b.vertices {
		p.localOf[v] = int32(i)
	}
	local := make([]int32, len(b.qids))
	for k, id := range b.qids {
		local[k] = p.localOf[id]
	}

	// Initial split. A warm-started run preserves the incoming arrangement
	// (the first half of the existing order goes left), so the previous
	// layout's block grouping is the seed at every level and refinement
	// perturbs it only where the new queries disagree. A cold start orders
	// vertices by the first query (hyperedge) they appear in, so that
	// vertices co-accessed by the same queries start on the same side; a
	// vertex no query here names (root's padding, or a trained id whose
	// queries this bucket dropped) takes key numQueries. The swap refinement
	// below polishes either seed.
	side := make([]uint8, n)
	if p.opts.InitialOrder != nil {
		for i := half; i < n; i++ {
			side[i] = 1
		}
	} else {
		firstSeen := make([]int32, n)
		for i := range firstSeen {
			firstSeen[i] = int32(numQueries)
		}
		for qi := 0; qi < numQueries; qi++ {
			for _, li := range local[b.qoff[qi]:b.qoff[qi+1]] {
				if firstSeen[li] == int32(numQueries) {
					firstSeen[li] = int32(qi)
				}
			}
		}
		// The first half of the vertices stably sorted by firstSeen go left.
		// The keys lie in [0, numQueries], so count them instead of
		// sorting: below the key at rank half a vertex goes left, above it
		// right, and of the vertices holding it the first ones by index fill
		// the left side up.
		keys := make([]int32, numQueries+1)
		for _, k := range firstSeen {
			keys[k]++
		}
		cut, room := int32(0), int32(half)
		for room >= keys[cut] {
			room -= keys[cut]
			cut++
		}
		for i, k := range firstSeen {
			switch {
			case k > cut:
				side[i] = 1
			case k == cut:
				if room == 0 {
					side[i] = 1
				} else {
					room--
				}
			}
		}
	}

	// Refinement is by the smoothed move gain of movePow. Each iteration
	// accumulates every vertex's gain over the queries (one with fewer than
	// two members here cannot affect fanout), then pairs the two sides'
	// highest gains greedily and swaps each pair whose gains sum above
	// 1e-12, up to maxSwaps pairs; an iteration that swaps nothing ends the
	// refinement. The pairing is defined by a full sort of each side, but
	// swapper.swap decides it from a selection of each side's largest gains:
	// it sorts a side only where the last swapped gain ties with the first
	// one left behind, since only there does the sort's order of equal gains
	// pick the vertices.
	gain := make([]float64, n)
	maxSwaps := max(int(p.opts.MaxSwapFraction*float64(half)), 1)
	var sw swapper
	for iter := 0; iter < p.opts.Iterations; iter++ {
		clear(gain)
		for qi := 0; qi < numQueries; qi++ {
			q := local[b.qoff[qi]:b.qoff[qi+1]]
			if len(q) < 2 {
				continue
			}
			// A query's members on one side all gain the same: count the
			// sides, compute the two deltas once and add each member's.
			var cnt1 int32
			for _, li := range q {
				cnt1 += int32(side[li])
			}
			cnt0 := int32(len(q)) - cnt1
			var delta [2]float64
			if cnt0 > 0 {
				delta[0] = powAt(cnt0-1) - powAt(cnt1)
			}
			if cnt1 > 0 {
				delta[1] = powAt(cnt1-1) - powAt(cnt0)
			}
			for _, li := range q {
				gain[li] += delta[side[li]&1]
			}
		}
		if sw.swap(gain, side, maxSwaps) == 0 {
			break
		}
	}

	// Project the queries onto the two sides, dropping those left with fewer
	// than two members: count first, so each child gets one exact backing
	// array.
	var ids, qs [2]int
	for qi := 0; qi < numQueries; qi++ {
		var cnt [2]int
		for _, li := range local[b.qoff[qi]:b.qoff[qi+1]] {
			cnt[side[li]]++
		}
		for s, c := range cnt {
			if c >= 2 {
				ids[s] += c
				qs[s]++
			}
		}
	}
	var child [2]*bucket
	for s := range child {
		child[s] = &bucket{qids: make([]uint32, 0, ids[s]), qoff: make([]int32, 1, qs[s]+1), depth: b.depth + 1}
	}
	for qi := 0; qi < numQueries; qi++ {
		lo, hi := b.qoff[qi], b.qoff[qi+1]
		for k := lo; k < hi; k++ {
			c := child[side[local[k]]]
			c.qids = append(c.qids, b.qids[k])
		}
		for _, c := range child {
			if end := int32(len(c.qids)); end-c.qoff[len(c.qoff)-1] >= 2 {
				c.qoff = append(c.qoff, end)
			} else {
				c.qids = c.qids[:c.qoff[len(c.qoff)-1]]
			}
		}
	}

	// Rearrange the vertices slice in place: side-0 vertices first.
	moved := make([]uint32, 0, n)
	for i, v := range b.vertices {
		if side[i] == 0 {
			moved = append(moved, v)
		}
	}
	for i, v := range b.vertices {
		if side[i] != 0 {
			moved = append(moved, v)
		}
	}
	copy(b.vertices, moved)
	child[0].vertices, child[1].vertices = b.vertices[:half], b.vertices[half:]
	return child[0], child[1]
}

// swapper is one bisection's scratch for its refinement iterations.
type swapper struct {
	vals  [2][]float64 // each side's gains
	top   [2]descending
	cand  []indexedGain
	moved []int32 // the vertices that change side
}

type indexedGain struct {
	gain float64
	i    int32
}

// byGainDesc orders by descending gain; gains are never NaN. pdqsort's
// permutation depends only on the outcomes of its comparisons, so sorting
// these pairs moves them exactly as sorting the indices by their gains would.
func byGainDesc(a, b indexedGain) int {
	switch {
	case a.gain > b.gain:
		return -1
	case a.gain < b.gain:
		return 1
	}
	return 0
}

// swap performs one refinement iteration's swaps and returns how many pairs
// it swapped. The rule is the greedy pairing of the two sides' candidate
// lists (each side's vertices in ascending index order, slices.SortFunc'ed by
// descending gain): pair k swaps while gain0[k]+gain1[k] > 1e-12, up to
// maxSwaps pairs. The iteration's outcome is which vertices change side, so
// swap computes that set without sorting the sides:
//
//   - the s pairs to swap follow from each side's s+1 largest gains alone,
//     which descending reaches rank by rank in O(n + s log s);
//   - on a side whose s-th and (s+1)-th largest gains differ (or that swaps
//     whole), the swapped set is every vertex with a gain at least the s-th;
//   - only where they tie does the set depend on the order pdqsort leaves
//     equal gains in, so that side falls back to the candidate list and sort
//     above, and swaps its first s.
//
// The result is bit for bit the full sort's; TestSwapMatchesSortedPairing
// holds the two together.
func (w *swapper) swap(gain []float64, side []uint8, maxSwaps int) int {
	if w.vals[0] == nil {
		w.vals = [2][]float64{make([]float64, len(side)), make([]float64, len(side))}
	}
	var size [2]int
	for i, s := range side {
		w.vals[s][size[s]] = gain[i]
		size[s]++
	}
	k := min(maxSwaps, size[0], size[1])
	if k == 0 {
		return 0
	}
	top := &w.top
	for s := range top {
		top[s].reset(w.vals[s][:size[s]])
	}
	swaps := 0
	for swaps < k && top[0].at(swaps)+top[1].at(swaps) > 1e-12 {
		swaps++
	}
	if swaps == 0 {
		return 0
	}
	// cut[s] is the least gain a side-s vertex swaps at; +Inf (no gain is
	// infinite) marks a side whose swaps the fallback already chose.
	var cut [2]float64
	w.moved = w.moved[:0]
	for s := range cut {
		cut[s] = top[s].at(swaps - 1)
		if swaps == size[s] || top[s].at(swaps) != cut[s] {
			continue
		}
		cut[s] = math.Inf(1)
		c := w.cand[:0]
		for i, si := range side {
			if int(si) == s {
				c = append(c, indexedGain{gain[i], int32(i)})
			}
		}
		slices.SortFunc(c, byGainDesc)
		for _, g := range c[:swaps] {
			w.moved = append(w.moved, g.i)
		}
		w.cand = c
	}
	for i, s := range side {
		if gain[i] >= cut[s] {
			w.moved = append(w.moved, int32(i))
		}
	}
	for _, i := range w.moved {
		side[i] ^= 1
	}
	return swaps
}

// descending sorts v into descending order lazily, rank by rank: at(k)
// returns the k-th largest value (from 0), and sorts no more of v than ranks
// 0..k need. It is an incremental quicksort: each call keeps partitioning,
// around a median-of-three pivot, the segment that holds rank k, three ways so
// that a run of values equal to the pivot is final as soon as nothing larger
// is left before it. Reaching rank k costs O(len(v) + k log k).
type descending struct {
	v      []float64
	sorted int   // v[:sorted] is final: the largest values, in order
	bounds []int // segment ends past sorted, nearest last: each segment's values are >= all later ones
}

func (d *descending) reset(v []float64) {
	d.v, d.sorted, d.bounds = v, 0, append(d.bounds[:0], len(v))
}

func (d *descending) at(k int) float64 {
	v := d.v
	for d.sorted <= k {
		lo, hi := d.sorted, d.bounds[len(d.bounds)-1]
		if hi == lo {
			d.bounds = d.bounds[:len(d.bounds)-1]
			continue
		}
		if hi-lo <= 16 {
			for i := lo + 1; i < hi; i++ {
				for j := i; j > lo && v[j] > v[j-1]; j-- {
					v[j], v[j-1] = v[j-1], v[j]
				}
			}
			d.sorted = hi
			continue
		}
		p := median3(v[lo], v[(lo+hi)/2], v[hi-1])
		// v[lo:gt0] > p, v[gt0:lt1] == p, v[lt1:hi] < p.
		gt0, i, lt1 := lo, lo, hi
		for i < lt1 {
			switch x := v[i]; {
			case x > p:
				v[gt0], v[i] = x, v[gt0]
				gt0++
				i++
			case x < p:
				lt1--
				v[i], v[lt1] = v[lt1], x
			default:
				i++
			}
		}
		if lt1 < hi {
			d.bounds = append(d.bounds, lt1)
		}
		if gt0 == lo {
			d.sorted = lt1
		} else {
			d.bounds = append(d.bounds, gt0)
		}
	}
	return v[k]
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}
