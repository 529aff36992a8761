// Package cache implements the admission policies of Bandana's DRAM vector
// cache studied in §4.3 of the paper.
//
// The cache itself is internal/vcache: a segmented LRU queue of vector IDs
// that takes an insert at any queue position. Vectors that the application
// explicitly requested are always cached — an AdmissionPolicy only chooses
// the queue position they enter at, the MRU end unless training says the
// vector is cold (ThresholdAdmit's demand threshold); vectors that were
// merely *prefetched* — co-located in the same 4 KB NVM block as a requested
// vector — pass through the policy too, which decides whether they enter the
// queue at all and at which position. The paper evaluates:
//
//   - inserting prefetched vectors at a configurable queue position
//     (Figure 11a),
//   - admitting them only on a hit in a keys-only shadow cache that
//     simulates a prefetch-free cache (Figure 11b),
//   - a combination of the two (Figure 11c), and
//   - thresholding on the number of times the vector was accessed during
//     the SHP training run (Figure 12) — the policy Bandana adopts.
//
// The deployed policy combines the first and the last: NewThresholdAdmit
// admits a prefetch by its training count and enters it mid-queue, at
// PrefetchPosition, so a speculative fill that nobody asks for is evicted
// after half the cache's insertions instead of all of them.
//
// The same training counts give the deployed policy a third verdict, after
// the frequency bound of a cache of C vectors: PinnedAdmit pins the C ids
// training saw most often (HottestIDs) into a cache that never evicts them
// (vcache's Pin). The thresholds still decide what enters; once in, a pinned
// id stays, and the room the pinned set has not yet filled serves every
// other id as the thresholds' segmented LRU, the first to go when a pinned
// id needs it. The miniature caches choose it per table, where it reads
// fewer blocks than the thresholds alone.
package cache

import (
	"cmp"
	"math/bits"
	"slices"

	"bandana/internal/vcache"
)

// AdmissionPolicy decides where a vector read from NVM enters the cache: the
// queue position of a requested one, the fate of a prefetched one.
//
// The trace simulator (internal/sim) feeds the policy the application's
// access stream via OnAccess, asks DemandPosition for every requested vector
// it fills and consults AdmitPrefetch for every co-located prefetch
// candidate. The store (internal/core) serves one policy, the one Bandana
// deploys: a ThresholdAdmit, whose verdicts depend on the id alone and whose
// OnAccess does nothing. It asks Prefetches and OnProbation — the two
// verdicts AdmitPrefetch and DemandPosition return — once per vector when
// the thresholds are set, and holds the answers as two bits per vector in
// layout order, so a threshold tuned in simulation is served exactly. Its pin
// verdict, a PinnedAdmit, answers the same two questions, and the store holds
// its pinned set as a third bit per vector.
//
// Implementations must be safe for concurrent use. The stateless policies
// (NoPrefetch, AlwaysAdmit, ThresholdAdmit, PinnedAdmit) are trivially safe; the
// shadow-cache policies' queue is a vcache, which locks internally.
type AdmissionPolicy interface {
	// OnAccess is invoked for every application-requested lookup (hit or
	// miss), allowing stateful policies to observe the true access stream.
	OnAccess(id uint32)
	// DemandPosition is invoked for every requested vector that missed and
	// is about to be cached: the queue position it enters at (0 = MRU end).
	// A requested vector is always cached and always evicts if the cache is
	// full; the position only decides how soon it is evicted in turn if
	// nobody asks for it again (a hit promotes it to MRU like any other).
	DemandPosition(id uint32) float64
	// AdmitPrefetch is invoked for every prefetch candidate (a vector
	// sharing the block of a missed vector). It returns whether to admit
	// the vector and the queue position to insert it at (0 = MRU end,
	// values near 1 = close to eviction).
	AdmitPrefetch(id uint32) (admit bool, position float64)
	// Name identifies the policy in experiment output.
	Name() string
}

// ProbationPosition is where a requested vector that training says is cold
// enters the queue: the head of the last segment, whatever the segment count
// (§4.3.1's insertion-position idea applied to demand fills). It outlives
// about a sixteenth of the cache's insertions there instead of all of them.
const ProbationPosition = 1.0

// PrefetchPosition is where a prefetch the deployed ThresholdAdmit admits
// enters the queue: the queue's midpoint, the head of segment 8 of segments
// 0–15 (§4.3.1, Figure 11a). It outlives about half the cache's insertions
// there, and a hit promotes it to the MRU end like any other entry. It is a
// constant, not a tuned value: a tuner choosing the position on the trace it
// replays picks the MRU end every time, because every prefetch that trace
// admits is one it goes on to hit, while on traffic the tuner did not see
// the midpoint reads fewer blocks.
const PrefetchPosition = 0.5

// demandAtMRU is the demand half of every policy that only rules on
// prefetches: a requested vector enters at the MRU end.
type demandAtMRU struct{}

// DemandPosition implements AdmissionPolicy.
func (demandAtMRU) DemandPosition(uint32) float64 { return 0 }

// NoPrefetch never admits prefetched vectors: the baseline policy in which
// each miss caches only the requested vector.
type NoPrefetch struct{ demandAtMRU }

// OnAccess implements AdmissionPolicy.
func (NoPrefetch) OnAccess(uint32) {}

// AdmitPrefetch implements AdmissionPolicy.
func (NoPrefetch) AdmitPrefetch(uint32) (bool, float64) { return false, 0 }

// Name implements AdmissionPolicy.
func (NoPrefetch) Name() string { return "no-prefetch" }

// AlwaysAdmit admits every prefetched vector at a fixed queue position.
// Position 0 reproduces the naive "treat prefetched vectors like requested
// ones" policy of Figure 10; other positions reproduce Figure 11a.
type AlwaysAdmit struct {
	demandAtMRU
	Position float64
}

// OnAccess implements AdmissionPolicy.
func (AlwaysAdmit) OnAccess(uint32) {}

// AdmitPrefetch implements AdmissionPolicy.
func (p AlwaysAdmit) AdmitPrefetch(uint32) (bool, float64) { return true, p.Position }

// Name implements AdmissionPolicy.
func (p AlwaysAdmit) Name() string { return "always-admit" }

// shadow is the keys-only queue of the shadow policies, fed the requested
// ids only: a payload-free vcache. Every insert and every promotion lands at
// its MRU end, so it is an exact LRU whatever its segment count.
type shadow struct{ keys *vcache.Cache }

func newShadow(capacity int) shadow {
	return shadow{keys: vcache.New(vcache.Options{Capacity: capacity})}
}

// OnAccess implements AdmissionPolicy: a shadow hit is promoted, a miss
// inserted.
func (s shadow) OnAccess(id uint32) {
	if _, _, ok := s.keys.Get(id); !ok {
		s.keys.Add(id, nil, false)
	}
}

// ShadowAdmit admits a prefetched vector only if it currently appears in a
// keys-only shadow cache fed by the true (prefetch-free) access stream
// (Figure 11b). Admitted vectors are inserted at Position. Safe for
// concurrent use.
type ShadowAdmit struct {
	demandAtMRU
	shadow
	Position float64
}

// NewShadowAdmit builds a ShadowAdmit policy with a shadow cache of
// shadowVectors keys.
func NewShadowAdmit(shadowVectors int, position float64) *ShadowAdmit {
	return &ShadowAdmit{shadow: newShadow(shadowVectors), Position: position}
}

// AdmitPrefetch implements AdmissionPolicy.
func (p *ShadowAdmit) AdmitPrefetch(id uint32) (bool, float64) {
	return p.keys.Contains(id), p.Position
}

// Name implements AdmissionPolicy.
func (p *ShadowAdmit) Name() string { return "shadow-admit" }

// ShadowPosition admits every prefetched vector but chooses its queue
// position based on the shadow cache: shadow hits go to the MRU end, shadow
// misses to AltPosition (Figure 11c). Safe for concurrent use.
type ShadowPosition struct {
	demandAtMRU
	shadow
	AltPosition float64
}

// NewShadowPosition builds a ShadowPosition policy.
func NewShadowPosition(shadowVectors int, altPosition float64) *ShadowPosition {
	return &ShadowPosition{shadow: newShadow(shadowVectors), AltPosition: altPosition}
}

// AdmitPrefetch implements AdmissionPolicy.
func (p *ShadowPosition) AdmitPrefetch(id uint32) (bool, float64) {
	if p.keys.Contains(id) {
		return true, 0
	}
	return true, p.AltPosition
}

// Name implements AdmissionPolicy.
func (p *ShadowPosition) Name() string { return "shadow-position" }

// ThresholdAdmit is the policy Bandana deploys: one judgement — how often
// training saw the vector — with two thresholds, both tuned per table and
// cache size by miniature-cache simulation (§4.3.3). A prefetched vector is
// admitted only if it was accessed more than Threshold times during the SHP
// training run (Figure 12). A requested vector accessed fewer than
// DemandThreshold times enters at ProbationPosition instead of the MRU end,
// so an id training never or hardly saw cannot push out, on one touch, ids it
// saw dozens of times; the zero DemandThreshold gates nothing.
//
// Where a table's cache is smaller than the table, the miniature caches also
// weigh pinning the ids training saw most often on top of the thresholds:
// that verdict is a PinnedAdmit.
type ThresholdAdmit struct {
	// Counts[id] is the number of training queries that contained id.
	Counts          []uint32
	Threshold       uint32
	DemandThreshold uint32
	// Position is where an admitted prefetch enters the queue:
	// PrefetchPosition in the deployed policy (NewThresholdAdmit), the MRU
	// end (0) in the paper's Figure 12 sweep.
	Position float64
}

// NewThresholdAdmit returns the ThresholdAdmit Bandana deploys over counts
// with the two thresholds: its admitted prefetches enter at
// PrefetchPosition. The tuner replays this policy, the store compiles it and
// the experiments serve it, so all three mean the same thing by a threshold.
func NewThresholdAdmit(counts []uint32, threshold, demandThreshold uint32) ThresholdAdmit {
	return ThresholdAdmit{Counts: counts, Threshold: threshold, DemandThreshold: demandThreshold, Position: PrefetchPosition}
}

// OnAccess implements AdmissionPolicy.
func (ThresholdAdmit) OnAccess(uint32) {}

// OnProbation reports whether a requested id fills at ProbationPosition:
// training saw it fewer than DemandThreshold times. An id beyond Counts was
// never seen in training.
func (p ThresholdAdmit) OnProbation(id uint32) bool {
	var count uint32
	if int(id) < len(p.Counts) {
		count = p.Counts[id]
	}
	return count < p.DemandThreshold
}

// Prefetches reports whether a prefetched id is admitted: training saw it
// more than Threshold times.
func (p ThresholdAdmit) Prefetches(id uint32) bool {
	return int(id) < len(p.Counts) && p.Counts[id] > p.Threshold
}

// DemandPosition implements AdmissionPolicy.
func (p ThresholdAdmit) DemandPosition(id uint32) float64 {
	if p.OnProbation(id) {
		return ProbationPosition
	}
	return 0
}

// AdmitPrefetch implements AdmissionPolicy.
func (p ThresholdAdmit) AdmitPrefetch(id uint32) (bool, float64) {
	return p.Prefetches(id), p.Position
}

// Name implements AdmissionPolicy.
func (p ThresholdAdmit) Name() string { return "threshold-admit" }

// PinnedAdmit is the pin verdict of the deployed policy: a ThresholdAdmit
// (Pair) whose cache never evicts the ids training saw most often
// (HottestIDs at the cache's size). Pair decides what enters, as it would
// without the pin; a pinned id that enters is filed off the cache's recency
// list for good, and every other id lives in the room the pinned set has not
// yet filled, the first to go when a pinned id needs that room. A pinned id
// is never put on probation. The cache itself must hold the set
// (vcache.Cache.Pin with Set): the policy only rules on admission.
type PinnedAdmit struct {
	Pair ThresholdAdmit
	// Set is the pinned set as a bitset over ids (bit id%64 of word id/64),
	// as vcache's Pin takes it; at least ⌈len(Pair.Counts)/64⌉ words.
	Set []uint64
}

// NewPinnedAdmit returns the pin verdict over ids (distinct; see
// HottestIDs) on top of pair.
func NewPinnedAdmit(pair ThresholdAdmit, ids []uint32) PinnedAdmit {
	n := len(pair.Counts)
	for _, id := range ids {
		n = max(n, int(id)+1)
	}
	set := make([]uint64, (n+63)/64)
	for _, id := range ids {
		set[id/64] |= 1 << (id % 64)
	}
	return PinnedAdmit{Pair: pair, Set: set}
}

// WarmOrder returns the pinned ids in the order a layout install fills them
// into the cache ahead of their requests: ascending training count (Pair's
// Counts), ties in id order, so the coldest is the first to leave the cache
// while nothing has asked for it.
func (p PinnedAdmit) WarmOrder() []uint32 {
	var ids []uint32
	for w, word := range p.Set {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, uint32(w*64+bits.TrailingZeros64(word)))
		}
	}
	count := func(id uint32) uint32 {
		if int(id) < len(p.Pair.Counts) {
			return p.Pair.Counts[id]
		}
		return 0
	}
	slices.SortStableFunc(ids, func(a, b uint32) int { return cmp.Compare(count(a), count(b)) })
	return ids
}

// HottestIDs returns, in ascending id order, the k ids of counts with the
// highest counts among those eligible accepts (every id when eligible is
// nil); ties go to the lower id. Fewer than k come back only when fewer are
// eligible.
func HottestIDs(counts []uint32, k int, eligible func(id uint32) bool) []uint32 {
	ids := make([]uint32, 0, len(counts))
	for id := range counts {
		if eligible == nil || eligible(uint32(id)) {
			ids = append(ids, uint32(id))
		}
	}
	if k < len(ids) {
		// ids is in ascending order, so a stable sort by descending count
		// breaks ties towards the lower id.
		slices.SortStableFunc(ids, func(a, b uint32) int { return cmp.Compare(counts[b], counts[a]) })
		ids = ids[:max(k, 0)]
		slices.Sort(ids)
	}
	return ids
}

// OnAccess implements AdmissionPolicy.
func (PinnedAdmit) OnAccess(uint32) {}

// Pins reports whether id is in the pinned set.
func (p PinnedAdmit) Pins(id uint32) bool {
	return int(id/64) < len(p.Set) && p.Set[id/64]&(1<<(id%64)) != 0
}

// Prefetches is Pair's: the pin decides what stays, not what enters.
func (p PinnedAdmit) Prefetches(id uint32) bool { return p.Pair.Prefetches(id) }

// OnProbation is Pair's for an id outside the set: where it enters the room.
// A pinned id is never on probation (the cache files it off its queue).
func (p PinnedAdmit) OnProbation(id uint32) bool { return !p.Pins(id) && p.Pair.OnProbation(id) }

// DemandPosition implements AdmissionPolicy.
func (p PinnedAdmit) DemandPosition(id uint32) float64 {
	if p.OnProbation(id) {
		return ProbationPosition
	}
	return 0
}

// AdmitPrefetch implements AdmissionPolicy.
func (p PinnedAdmit) AdmitPrefetch(id uint32) (bool, float64) {
	return p.Prefetches(id), p.Pair.Position
}

// Name implements AdmissionPolicy.
func (PinnedAdmit) Name() string { return "pinned" }
