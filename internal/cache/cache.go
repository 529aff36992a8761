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
package cache

import "bandana/internal/vcache"

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
// layout order, so a threshold tuned in simulation is served exactly.
//
// Implementations must be safe for concurrent use. The stateless policies
// (NoPrefetch, AlwaysAdmit, ThresholdAdmit) are trivially safe; the
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
