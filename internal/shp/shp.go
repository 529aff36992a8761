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
// holding every vector, each bucket is repeatedly split into two halves of
// whole blocks. A split is refined with a configurable number of swap
// iterations: each iteration computes, for every vertex, the fanout gain of
// moving it to the other side, and then swaps the highest-gain pairs so the
// two sides stay balanced. Recursion stops when buckets reach the target
// block size (32 vectors for 128 B vectors in 4 KB blocks), so the leaves are
// the blocks. Sibling buckets are refined in parallel.
package shp

import (
	"cmp"
	"fmt"
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
	// Seed drives the initial random split.
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

// Partition partitions numVectors vectors using the training queries.
// Vectors that never appear in a query are appended at arbitrary positions
// in blocks with free space, as in the paper (§4.3.2).
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
	var total int64
	seen := make(map[uint32]struct{}, 64)
	for _, q := range queries {
		for k := range seen {
			delete(seen, k)
		}
		for _, id := range q {
			seen[pos[id]/uint32(blockVectors)] = struct{}{}
		}
		total += int64(len(seen))
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

// root builds the bucket holding every vector.
func (p *partitioner) root() *bucket {
	var all []uint32
	if p.opts.InitialOrder != nil {
		// Warm start: begin from the existing placement so refinement is
		// incremental (the swap iterations only move vectors whose
		// co-access changed).
		all = make([]uint32, p.n)
		copy(all, p.opts.InitialOrder)
	} else {
		// Start with all vectors in one bucket. Vectors that appear in
		// queries come first (they carry signal); untouched vectors are
		// appended at the end so they fill whatever blocks remain — the
		// paper notes SHP places rarely-accessed vectors arbitrarily.
		appears := make([]bool, p.n)
		for _, q := range p.queries {
			for _, id := range q {
				appears[id] = true
			}
		}
		all = make([]uint32, 0, p.n)
		for id := 0; id < p.n; id++ {
			if appears[id] {
				all = append(all, uint32(id))
			}
		}
		for id := 0; id < p.n; id++ {
			if !appears[id] {
				all = append(all, uint32(id))
			}
		}
	}
	lookups := 0
	for _, q := range p.queries {
		lookups += len(q)
	}
	b := &bucket{vertices: all, qids: make([]uint32, 0, lookups), qoff: make([]int32, 1, len(p.queries)+1)}
	for _, q := range p.queries {
		b.qids = append(b.qids, q...)
		b.qoff = append(b.qoff, int32(len(b.qids)))
	}
	return b
}

func (p *partitioner) run() []uint32 {
	p.localOf = make([]int32, p.n)
	root := p.root()
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
	return root.vertices
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
	// vertices co-accessed by the same queries start on the same side. The
	// swap refinement below polishes either seed.
	side := make([]uint8, n)
	if p.opts.InitialOrder != nil {
		for i := half; i < n; i++ {
			side[i] = 1
		}
	} else {
		firstSeen := make([]int32, n)
		for i := range firstSeen {
			firstSeen[i] = int32(numQueries) + int32(i%2) // unseen vertices alternate sides
		}
		for qi := 0; qi < numQueries; qi++ {
			for _, li := range local[b.qoff[qi]:b.qoff[qi+1]] {
				if firstSeen[li] >= int32(numQueries) {
					firstSeen[li] = int32(qi)
				}
			}
		}
		byFirst := make([]int32, n)
		for i := range byFirst {
			byFirst[i] = int32(i)
		}
		slices.SortStableFunc(byFirst, func(a, b int32) int { return cmp.Compare(firstSeen[a], firstSeen[b]) })
		for rank, li := range byFirst {
			if rank >= half {
				side[li] = 1
			}
		}
	}

	// Refinement is by the smoothed move gain of movePow.
	gain := make([]float64, n)
	byGain := func(a, b int32) int { // descending; gains are never NaN
		switch ga, gb := gain[a], gain[b]; {
		case ga > gb:
			return -1
		case ga < gb:
			return 1
		}
		return 0
	}
	cand := make([]int32, n)
	for iter := 0; iter < p.opts.Iterations; iter++ {
		clear(gain)
		// Accumulate per-vertex move gains from each query; one with fewer
		// than two members here cannot affect fanout.
		for qi := 0; qi < numQueries; qi++ {
			q := local[b.qoff[qi]:b.qoff[qi+1]]
			if len(q) < 2 {
				continue
			}
			var cnt0, cnt1 int32
			for _, li := range q {
				if side[li] == 0 {
					cnt0++
				} else {
					cnt1++
				}
			}
			for _, li := range q {
				if side[li] == 0 {
					gain[li] += powAt(cnt0-1) - powAt(cnt1)
				} else {
					gain[li] += powAt(cnt1-1) - powAt(cnt0)
				}
			}
		}
		// Candidate lists sorted by descending gain: side 0 fills cand from
		// the front, side 1 from the back.
		n0, n1 := 0, n
		for i := n - 1; i >= 0; i-- {
			if side[i] != 0 {
				n1--
				cand[n1] = int32(i)
			}
		}
		for i := 0; i < n; i++ {
			if side[i] == 0 {
				cand[n0] = int32(i)
				n0++
			}
		}
		cand0, cand1 := cand[:n0], cand[n1:]
		slices.SortFunc(cand0, byGain)
		slices.SortFunc(cand1, byGain)

		maxSwaps := int(p.opts.MaxSwapFraction * float64(half))
		if maxSwaps < 1 {
			maxSwaps = 1
		}
		swaps := 0
		for k := 0; k < len(cand0) && k < len(cand1) && swaps < maxSwaps; k++ {
			a, bb := cand0[k], cand1[k]
			if gain[a]+gain[bb] <= 1e-12 {
				break
			}
			side[a], side[bb] = 1, 0
			swaps++
		}
		if swaps == 0 {
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
