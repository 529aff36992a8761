// Package mrc computes miss-rate/hit-rate curves for embedding lookup
// streams.
//
// The paper characterises each embedding table by the stack distances
// (Mattson et al., 1970) of its lookups: the rank a vector occupies in an
// infinite LRU queue at the moment it is re-requested. From the stack
// distance distribution one reads off the hit-rate curve — the hit rate of
// an LRU cache of any size — which drives Figure 3, the DRAM allocation
// across tables, and the miniature-cache tuning of §4.3.3.
//
// Two implementations are provided: an exact O(n log n) algorithm using a
// Fenwick tree, and a SHARDS-style spatially sampled variant that processes
// only a hash-selected subset of vectors and scales the resulting curve,
// which is what makes "dozens of miniature caches" affordable.
package mrc

import (
	"math"
	"sort"
)

// Distances is the distribution of stack distances over a lookup stream.
type Distances struct {
	// Histogram[d] counts lookups whose stack distance is exactly d
	// (d >= 1: the vector was the d-th most recently used distinct vector).
	Histogram []int64
	// Infinite counts compulsory misses (first access to a vector).
	Infinite int64
	// Total is the total number of lookups in the original stream.
	Total int64
	// SampledTotal is the number of lookups that survived spatial sampling
	// (equal to Total for exact computation).
	SampledTotal int64
	// scale is the inverse key-sampling rate, used to scale stack distances
	// back to full-population cache sizes (1 for exact computation).
	scale float64
}

// StackDistances computes the exact stack distance distribution of a lookup
// stream (vector IDs in access order) using Mattson's algorithm with a
// Fenwick tree: O(n log n) time, O(n + #unique) space.
func StackDistances(accesses []uint32) *Distances {
	n := len(accesses)
	d := &Distances{Total: int64(n), SampledTotal: int64(n), scale: 1}
	if n == 0 {
		return d
	}
	tree := newFenwick(n)
	lastPos := make(map[uint32]int, 1024)
	var maxDist int
	dist := make([]int, 0, n) // temporary distances; 0 means compulsory
	for i, id := range accesses {
		pos := i + 1 // 1-based
		if prev, ok := lastPos[id]; ok {
			// Number of distinct vectors touched strictly after prev.
			others := tree.rangeSum(prev+1, pos-1)
			sd := int(others) + 1
			dist = append(dist, sd)
			if sd > maxDist {
				maxDist = sd
			}
			tree.add(prev, -1)
		} else {
			dist = append(dist, 0)
			d.Infinite++
		}
		tree.add(pos, 1)
		lastPos[id] = pos
	}
	d.Histogram = make([]int64, maxDist+1)
	for _, sd := range dist {
		if sd > 0 {
			d.Histogram[sd]++
		}
	}
	return d
}

// SampledStackDistances computes an approximate stack distance distribution
// by processing only vectors whose hash falls under samplingRate (SHARDS
// spatial sampling). Distances and counts are scaled by 1/samplingRate so
// the resulting hit-rate curve is directly comparable to the exact one.
func SampledStackDistances(accesses []uint32, samplingRate float64) *Distances {
	if samplingRate >= 1 {
		return StackDistances(accesses)
	}
	if samplingRate <= 0 {
		return &Distances{Total: int64(len(accesses)), scale: 1}
	}
	threshold := uint64(samplingRate * float64(math.MaxUint64))
	sampled := make([]uint32, 0, int(float64(len(accesses))*samplingRate*2)+16)
	for _, id := range accesses {
		if hash64(uint64(id)) <= threshold {
			sampled = append(sampled, id)
		}
	}
	d := StackDistances(sampled)
	d.Total = int64(len(accesses))
	d.SampledTotal = int64(len(sampled))
	d.scale = 1 / samplingRate
	return d
}

// hash64 is SplitMix64, a fast high-quality integer hash used for spatial
// sampling decisions.
func hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// HRC is a hit-rate curve: the hit rate of an LRU cache as a function of its
// size in vectors.
type HRC struct {
	// sizes are cache sizes (ascending) at which the curve changes.
	sizes []int
	// cumHits[i] is the (scaled) number of hits with stack distance <=
	// sizes[i].
	cumHits []float64
	// total is the (unscaled) number of lookups.
	total float64
}

// HitRateCurve converts a distance distribution into a hit-rate curve.
//
// For sampled distributions the hit *ratio* is estimated on the sampled
// accesses (the SHARDS assumption: the sample's hit ratio tracks the
// population's), then scaled to full-trace hit counts; stack distances are
// scaled by the inverse key-sampling rate to map onto full-size caches.
func (d *Distances) HitRateCurve() *HRC {
	h := &HRC{total: float64(d.Total)}
	if d.Total == 0 || d.SampledTotal == 0 {
		return h
	}
	// Each sampled hit represents Total/SampledTotal accesses of the full
	// stream, so cumulative hit counts stay below Total and the implied hit
	// ratio never exceeds the sample's.
	hitWeight := float64(d.Total) / float64(d.SampledTotal)
	var cum float64
	for sd := 1; sd < len(d.Histogram); sd++ {
		c := d.Histogram[sd]
		if c == 0 {
			continue
		}
		cum += float64(c) * hitWeight
		// The cache size needed to capture distance sd scales with the
		// inverse key-sampling rate.
		size := int(math.Ceil(float64(sd) * d.scale))
		h.sizes = append(h.sizes, size)
		h.cumHits = append(h.cumHits, cum)
	}
	return h
}

// HitsAt returns the expected number of hits for an LRU cache of the given
// size (in vectors) over the analysed stream.
func (h *HRC) HitsAt(size int) float64 {
	if size <= 0 || len(h.sizes) == 0 {
		return 0
	}
	idx := sort.SearchInts(h.sizes, size+1) - 1
	if idx < 0 {
		return 0
	}
	return h.cumHits[idx]
}

// HitRate returns the hit rate for an LRU cache of the given size.
func (h *HRC) HitRate(size int) float64 {
	if h.total == 0 {
		return 0
	}
	return h.HitsAt(size) / h.total
}

// MaxHitRate returns the hit rate of an infinite cache (1 - compulsory miss
// ratio).
func (h *HRC) MaxHitRate() float64 {
	if h.total == 0 || len(h.cumHits) == 0 {
		return 0
	}
	return h.cumHits[len(h.cumHits)-1] / h.total
}

// MarginalHits returns the expected additional hits obtained by growing the
// cache from size a to size b (b > a). The DRAM allocator uses this to
// greedily distribute memory across tables.
func (h *HRC) MarginalHits(a, b int) float64 {
	if b <= a {
		return 0
	}
	return h.HitsAt(b) - h.HitsAt(a)
}

// Total returns the number of lookups the curve was built from.
func (h *HRC) Total() float64 { return h.total }
