package core

import (
	"fmt"

	"bandana/internal/layout"
	"bandana/internal/shp"
	"bandana/internal/sim"
	"bandana/internal/trace"
)

// TrainReport summarises what Train decided for each table.
type TrainReport struct {
	Tables []TableTrainReport
}

// TableTrainReport is the per-table outcome of training.
type TableTrainReport struct {
	Name string
	// TrainingQueries and TrainingLookups describe the training trace.
	TrainingQueries int
	TrainingLookups int64
	// Vectors is the table's size and TrainedVectors how many distinct ids
	// of it the training trace named: SHP bisects those, and the rest
	// follow in blocks of their own.
	Vectors        int
	TrainedVectors int
	// InitialFanout / FinalFanout are SHP's average query fanout before and
	// after partitioning.
	InitialFanout float64
	FinalFanout   float64
	// FanoutFloor is the packing bound FinalFanout cannot go below: the
	// mean over the training queries of ceil(distinct ids / vectors per
	// block), the blocks a query would touch were its ids packed perfectly.
	FanoutFloor float64
	// CacheVectors is the DRAM allocation chosen for this table.
	CacheVectors int
	// Threshold is the prefetch-admission threshold chosen by the
	// miniature caches (sim.DisablePrefetch: prefetching stays off) and
	// DemandThreshold the demand threshold chosen with it (0: no gate).
	Threshold       uint32
	DemandThreshold uint32
	// PinnedVectors is how many of the table's hottest training ids the
	// miniature caches pinned on top of the thresholds (0: none): the cache
	// never evicts a pinned id, and the thresholds rule in the room the
	// pinned ids leave.
	PinnedVectors int
	// MiniatureGain is the effective bandwidth increase predicted by the
	// miniature cache at the chosen verdict.
	MiniatureGain float64
}

// String renders the report as one log line.
func (r TableTrainReport) String() string {
	verdict := "prefetch off"
	if r.Threshold != sim.DisablePrefetch {
		verdict = fmt.Sprintf("prefetch threshold %d", r.Threshold)
	}
	if r.PinnedVectors > 0 {
		verdict = fmt.Sprintf("pinned hottest %d, %s", r.PinnedVectors, verdict)
	}
	return fmt.Sprintf("%-10s trained on %d of %d vectors, fanout %.1f -> %.1f (floor %.1f), cache %d vectors, %s, demand threshold %d",
		r.Name, r.TrainedVectors, r.Vectors, r.InitialFanout, r.FinalFanout, r.FanoutFloor, r.CacheVectors, verdict, r.DemandThreshold)
}

// Train partitions, allocates and tunes the store using per-table training
// traces. traces[i] corresponds to table i; a nil entry leaves that table
// untouched (identity layout, even-split cache, no prefetching).
//
// Train is the plan's cold start (plan.go): SHP from scratch, one trace for
// both the access counts and the tuning replays, a fresh cache, and
// prefetching at any predicted gain. A failure before the commit leaves the
// store exactly as it was; then every trained table is installed, one at a
// time, through installLayout — on the file backend a crash at any instant
// reopens with every table on exactly its old or its new layout, and no
// vector or acknowledged update is lost.
func (s *Store) Train(traces []*trace.Trace, opts TrainOptions) (*TrainReport, error) {
	if err := s.checkWritable(); err != nil {
		return nil, err
	}
	if len(traces) != len(s.tables) {
		return nil, fmt.Errorf("core: got %d traces for %d tables", len(traces), len(s.tables))
	}
	opts.defaults()
	var plans []*tablePlan
	for i, tr := range traces {
		if tr != nil {
			plans = append(plans, &tablePlan{st: s.tables[i], tr: tr, countsTr: tr, tuneTr: tr})
		}
	}

	// Whole-store mutators are serialized: the plans below are computed
	// against the published state, and the install protocol supports one
	// install at a time.
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()

	cold := start{layout: s.partition(opts.SHPIterations), cache: (*storeTable).freshCache}
	// Each install also persists the state file on a file-backed store, so a
	// restart serves the trained layout without retraining.
	if err := s.plan(plans, cold, sim.TunerConfig{SamplingRate: opts.MiniCacheSampling, Thresholds: opts.Thresholds}); err != nil {
		return nil, err
	}
	report := &TrainReport{Tables: make([]TableTrainReport, len(s.tables))}
	for _, p := range plans {
		st, tr := p.st, p.tr
		report.Tables[st.index] = TableTrainReport{
			Name:            st.name,
			TrainingQueries: len(tr.Queries),
			TrainingLookups: tr.Lookups(),
			Vectors:         st.numVectors,
			TrainedVectors:  tr.Stats().UniqueVectors,
			InitialFanout:   p.before,
			FinalFanout:     p.after,
			FanoutFloor:     fanoutFloor(tr, st.blockVectors),
			CacheVectors:    p.cacheCap,
			Threshold:       p.choice.Threshold,
			DemandThreshold: p.choice.DemandThreshold,
			PinnedVectors:   len(p.pinned),
			MiniatureGain:   p.choice.MiniatureGain,
		}
	}
	return report, nil
}

// partition is the cold start's layout step: SHP from scratch (§4.2), which
// reports its own fanouts before and after.
func (s *Store) partition(iterations int) layoutStep {
	return func(p *tablePlan, queries [][]uint32) error {
		res, err := shp.Partition(p.st.numVectors, queries, s.shpOptions(p.st, iterations))
		if err != nil {
			return err
		}
		p.before, p.after = res.InitialFanout, res.FinalFanout
		p.layout, err = layout.FromOrder(res.Order, p.st.blockVectors)
		return err
	}
}

// fanoutFloor is the average fanout no placement can beat on tr: a query of k
// distinct ids touches at least ceil(k / blockVectors) blocks. Like
// AccessCounts it passes over ids outside the table (partitioning reports
// them).
func fanoutFloor(tr *trace.Trace, blockVectors int) float64 {
	if len(tr.Queries) == 0 {
		return 0
	}
	lastQuery := make([]int32, tr.NumVectors) // 1-based number of the last query that named the id
	var blocks int64
	for qi, q := range tr.Queries {
		distinct := 0
		for _, id := range q {
			if int(id) < len(lastQuery) && lastQuery[id] != int32(qi+1) {
				lastQuery[id] = int32(qi + 1)
				distinct++
			}
		}
		blocks += int64((distinct + blockVectors - 1) / blockVectors)
	}
	return float64(blocks) / float64(len(tr.Queries))
}
