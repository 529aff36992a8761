package core

import (
	"fmt"
	"sync"

	"bandana/internal/alloc"
	"bandana/internal/layout"
	"bandana/internal/mrc"
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
	// MiniatureGain is the effective bandwidth increase predicted by the
	// miniature cache at the chosen thresholds.
	MiniatureGain float64
}

// String renders the report as one log line.
func (r TableTrainReport) String() string {
	prefetch := "prefetch off"
	if r.Threshold != sim.DisablePrefetch {
		prefetch = fmt.Sprintf("prefetch threshold %d", r.Threshold)
	}
	return fmt.Sprintf("%-10s trained on %d of %d vectors, fanout %.1f -> %.1f (floor %.1f), cache %d vectors, %s, demand threshold %d",
		r.Name, r.TrainedVectors, r.Vectors, r.InitialFanout, r.FinalFanout, r.FanoutFloor, r.CacheVectors, prefetch, r.DemandThreshold)
}

// trainPlan is what Train computed for one table before anything is
// committed: the state its install publishes.
type trainPlan struct {
	layout *layout.Layout
	// counts are the training trace's access counts: the tuner's input and
	// what the threshold policy is compiled from, dropped with the plan.
	counts []uint32
	hrc    *mrc.HRC
	// cacheCap is the DRAM allocation; choice is the tuner's verdict.
	cacheCap int
	choice   sim.ThresholdChoice
}

// Train partitions, allocates and tunes the store using per-table training
// traces. traces[i] corresponds to table i; a nil entry leaves that table
// untouched (identity layout, even-split cache, no prefetching).
//
// It computes first and commits after: SHP, access counts, hit-rate curves,
// the DRAM allocation and the admission thresholds are all worked out
// against the computed layouts without touching the device or the published
// state, so a failure there leaves the store exactly as it was. Only then is
// each trained table installed, one at a time, through installLayout — on the
// file backend a crash at any instant reopens with every table on exactly its
// old or its new layout, and no vector or acknowledged update is lost.
func (s *Store) Train(traces []*trace.Trace, opts TrainOptions) (*TrainReport, error) {
	if err := s.checkWritable(); err != nil {
		return nil, err
	}
	if len(traces) != len(s.tables) {
		return nil, fmt.Errorf("core: got %d traces for %d tables", len(traces), len(s.tables))
	}
	opts.defaults()
	report := &TrainReport{Tables: make([]TableTrainReport, len(s.tables))}
	for i, tr := range traces {
		if tr != nil && tr.NumVectors != s.tables[i].numVectors {
			return nil, fmt.Errorf("core: table %q: trace covers %d vectors, table has %d",
				s.tables[i].name, tr.NumVectors, s.tables[i].numVectors)
		}
	}

	// Whole-store mutators are serialized: the plans below are computed
	// against the published state, and the install protocol supports one
	// install at a time.
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()

	// forEachTrained runs fn for every table with a trace, trainParallelism
	// at a time, and returns the first error in table order.
	forEachTrained := func(fn func(i int) error) error {
		errs := make([]error, len(s.tables))
		sem := make(chan struct{}, trainParallelism)
		var wg sync.WaitGroup
		for i := range s.tables {
			if traces[i] == nil {
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = fn(i)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Phase 1 (parallel across tables): partition with SHP, compute access
	// counts and hit-rate curves.
	plans := make([]*trainPlan, len(s.tables))
	err := forEachTrained(func(i int) error {
		var err error
		plans[i], err = s.planTable(i, traces[i], opts, &report.Tables[i])
		return err
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: allocate the DRAM budget across the trained tables using the
	// hit-rate curves (tables without a trace keep their current allocation
	// and are excluded from the optimisation).
	budget := 0
	var demands []alloc.TableDemand
	var demandIdx []int
	for i, st := range s.tables {
		if plans[i] == nil {
			continue
		}
		budget += st.loadState().cacheCap
		demands = append(demands, alloc.TableDemand{
			Name:       st.name,
			HRC:        plans[i].hrc,
			MaxVectors: st.numVectors,
			MinVectors: st.blockVectors,
		})
		demandIdx = append(demandIdx, i)
	}
	if len(demands) > 0 { // every cache holds at least one vector, so budget > 0
		vectors, err := splitDRAM(demands, budget)
		if err != nil {
			return nil, fmt.Errorf("core: DRAM allocation: %w", err)
		}
		for di, ti := range demandIdx {
			plans[ti].cacheCap = max(vectors[di], 1)
			report.Tables[ti].CacheVectors = vectors[di]
		}
	}

	// Phase 3 (parallel): tune the admission thresholds per table
	// with miniature caches over the computed layout, at the allocated cache
	// size.
	err = forEachTrained(func(i int) error {
		p := plans[i]
		var err error
		p.choice, err = sim.TuneThreshold(traces[i], sim.TunerConfig{
			Layout:       p.layout,
			Counts:       p.counts,
			CacheVectors: p.cacheCap,
			SamplingRate: opts.MiniCacheSampling,
			Thresholds:   opts.Thresholds,
		})
		if err != nil {
			return fmt.Errorf("core: table %q: %w", s.tables[i].name, err)
		}
		rep := &report.Tables[i]
		rep.Threshold = p.choice.Threshold
		rep.DemandThreshold = p.choice.DemandThreshold
		rep.MiniatureGain = p.choice.MiniatureGain
		if rep.CacheVectors == 0 {
			rep.CacheVectors = p.cacheCap
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 4 (serial): commit. Each install also persists the state file on
	// a file-backed store, so a restart serves the trained layout without
	// retraining.
	var installs []layoutInstall
	for i, st := range s.tables {
		p := plans[i]
		if p == nil {
			continue
		}
		installs = append(installs, layoutInstall{st: st, layout: p.layout, mutate: func(ts *tableState) {
			st.freshCache(ts, p.cacheCap)
			st.applyChoice(ts, p.counts, p.choice, 0)
		}})
	}
	if err := s.installLayouts(installs); err != nil {
		return nil, err
	}
	return report, nil
}

// splitDRAMHook, when non-nil, sees every DRAM split before it is made:
// tests use it to check that Train and adaptation split alike.
var splitDRAMHook func(demands []alloc.TableDemand, budget int)

// splitDRAM divides budget vectors of DRAM across the tables of demands from
// their hit-rate curves: the one allocation rule of Train and adaptation. The
// lookahead makes the greedy scoring see across the plateaus of the sampled
// curves; without it the split degenerates to a tie-broken even one (see
// alloc.Options.LookaheadVectors).
func splitDRAM(demands []alloc.TableDemand, budget int) ([]int, error) {
	if splitDRAMHook != nil {
		splitDRAMHook(demands, budget)
	}
	res, err := alloc.Allocate(demands, alloc.Options{TotalVectors: budget, LookaheadVectors: budget / 16})
	if err != nil {
		return nil, err
	}
	return res.Vectors, nil
}

// planTable runs SHP for one table and computes its access statistics,
// touching neither the device nor the published state. It fills the
// per-table report entry.
func (s *Store) planTable(i int, tr *trace.Trace, opts TrainOptions, rep *TableTrainReport) (*trainPlan, error) {
	st := s.tables[i]
	rep.Name = st.name
	rep.TrainingQueries = len(tr.Queries)
	rep.TrainingLookups = tr.Lookups()

	rep.FanoutFloor = fanoutFloor(tr, st.blockVectors)
	queries := make([][]uint32, len(tr.Queries))
	for qi, q := range tr.Queries {
		queries[qi] = q
	}
	res, err := shp.Partition(st.numVectors, queries, shp.Options{
		BlockVectors: st.blockVectors,
		Iterations:   opts.SHPIterations,
		Seed:         s.seed + int64(i),
	})
	if err != nil {
		return nil, fmt.Errorf("core: table %q: %w", st.name, err)
	}
	rep.InitialFanout = res.InitialFanout
	rep.FinalFanout = res.FinalFanout
	p := &trainPlan{counts: tr.AccessCounts()}
	rep.Vectors = st.numVectors
	for _, c := range p.counts {
		if c > 0 {
			rep.TrainedVectors++
		}
	}
	if p.layout, err = layout.FromOrder(res.Order, st.blockVectors); err != nil {
		return nil, fmt.Errorf("core: table %q: %w", st.name, err)
	}

	// Hit-rate curve for the DRAM allocator, from (sampled) stack
	// distances over the flattened lookup stream.
	flat := make([]uint32, 0, tr.Lookups())
	for _, q := range tr.Queries {
		flat = append(flat, q...)
	}
	p.hrc = mrc.SampledStackDistances(flat, hrcSampling).HitRateCurve()
	return p, nil
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

// applyChoice writes a tuner verdict for one table into ts, for Train and the
// adaptation loop alike. Prefetching goes on when the tuner found a
// threshold whose prefetches earn at least minGain over the best
// prefetch-free configuration; otherwise it goes off and the table serves
// that configuration. Either way the demand threshold and the prediction kept
// are the ones that go with what will serve. The policy is compiled from
// counts, which ts does not keep.
func (st *storeTable) applyChoice(ts *tableState, counts []uint32, choice sim.ThresholdChoice, minGain float64) {
	ts.threshold = choice.Threshold
	ts.prefetch = choice.Threshold != sim.DisablePrefetch && choice.PrefetchGain >= minGain
	if ts.prefetch {
		ts.demandThreshold = choice.DemandThreshold
		ts.predicted = choice.Predicted
	} else {
		ts.demandThreshold = choice.NoPrefetchDemandThreshold
		ts.predicted = choice.NoPrefetch
	}
	st.setThresholdPolicy(ts, counts)
}
