package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bandana/internal/alloc"
	"bandana/internal/cache"
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
	// InitialFanout / FinalFanout are SHP's average query fanout before and
	// after partitioning.
	InitialFanout float64
	FinalFanout   float64
	// CacheVectors is the DRAM allocation chosen for this table.
	CacheVectors int
	// Threshold is the prefetch-admission threshold chosen by the
	// miniature caches.
	Threshold uint32
	// MiniatureGain is the effective bandwidth increase predicted by the
	// miniature cache at the chosen threshold.
	MiniatureGain float64
}

// Train partitions, allocates and tunes the store using per-table training
// traces. traces[i] corresponds to table i; a nil entry leaves that table
// untouched (identity layout, even-split cache, no prefetching).
func (s *Store) Train(traces []*trace.Trace, opts TrainOptions) (*TrainReport, error) {
	if err := s.checkWritable(); err != nil {
		return nil, err
	}
	if len(traces) != len(s.tables) {
		return nil, fmt.Errorf("core: got %d traces for %d tables", len(traces), len(s.tables))
	}
	opts.defaults()
	report := &TrainReport{Tables: make([]TableTrainReport, len(s.tables))}

	// Validate the traces before mutating anything, so a bad input cannot
	// leave the data dir flagged as interrupted (see the marker below).
	for i, tr := range traces {
		if tr != nil && tr.NumVectors != s.tables[i].numVectors {
			return nil, fmt.Errorf("core: table %q: trace covers %d vectors, table has %d",
				s.tables[i].name, tr.NumVectors, s.tables[i].numVectors)
		}
	}

	// Whole-store mutators are serialized: two concurrent Trains (or a
	// Train racing a LoadState) would race the rewrite marker and persist
	// protocol below.
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()

	// Training rewrites whole tables, which is only crash-consistent as a
	// unit on the file backend: set the rewrite marker first so a crash
	// before the new state is persisted makes the data dir refuse to reopen
	// with a stale layout. Cleared after Persist below — or on an error
	// path, provided no table was actually rewritten yet (rewroteAny), so a
	// pure compute failure cannot brick a still-consistent data dir.
	if err := s.markDirMutation(); err != nil {
		return nil, err
	}
	var rewroteAny atomic.Bool
	failErr := func(err error) (*TrainReport, error) {
		if !rewroteAny.Load() {
			if cerr := s.clearDirMutation(); cerr != nil {
				return nil, errors.Join(err, cerr)
			}
		}
		return nil, err
	}

	// Phase 1 (parallel across tables): partition with SHP, rewrite NVM,
	// compute access counts and hit-rate curves.
	type phase1 struct {
		hrc *mrc.HRC
		err error
	}
	results := make([]phase1, len(s.tables))
	sem := make(chan struct{}, opts.Parallelism)
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
			results[i] = s.trainTable(i, traces[i], opts, report, &rewroteAny)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i].err != nil {
			return failErr(results[i].err)
		}
	}

	// Phase 2: allocate the DRAM budget across tables using the hit-rate
	// curves (tables without a trace keep their current allocation and are
	// excluded from the optimisation).
	budget := 0
	var demands []alloc.TableDemand
	var demandIdx []int
	for i, st := range s.tables {
		cacheCap := st.loadState().cacheCap
		budget += cacheCap
		if traces[i] == nil || results[i].hrc == nil {
			budget -= cacheCap // keep their share reserved as-is
			continue
		}
		demands = append(demands, alloc.TableDemand{
			Name:       st.name,
			HRC:        results[i].hrc,
			MaxVectors: st.numVectors,
			MinVectors: st.blockVectors,
		})
		demandIdx = append(demandIdx, i)
	}
	if len(demands) > 0 && budget > 0 {
		allocRes, err := alloc.Allocate(demands, alloc.Options{TotalVectors: budget})
		if err != nil {
			return failErr(fmt.Errorf("core: DRAM allocation: %w", err))
		}
		for di, ti := range demandIdx {
			s.tables[ti].resizeCache(allocRes.Vectors[di])
			report.Tables[ti].CacheVectors = allocRes.Vectors[di]
		}
	}

	// Phase 3 (parallel): tune the prefetch-admission threshold per table
	// with miniature caches at the allocated cache size.
	if !opts.SkipThresholdTuning {
		var wg2 sync.WaitGroup
		errs := make([]error, len(s.tables))
		for i := range s.tables {
			if traces[i] == nil {
				continue
			}
			wg2.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg2.Done()
				defer func() { <-sem }()
				errs[i] = s.tuneTable(i, traces[i], opts, report)
			}(i)
		}
		wg2.Wait()
		for _, err := range errs {
			if err != nil {
				return failErr(err)
			}
		}
	}
	// A file-backed store persists the trained state alongside the (already
	// rewritten) blocks, so a restart serves the trained layout without
	// retraining.
	if s.dataDir != "" {
		if err := s.Persist(); err != nil {
			return nil, fmt.Errorf("core: persist trained state: %w", err)
		}
		if err := s.clearDirMutation(); err != nil {
			return nil, err
		}
	}
	s.noteStructuralMutation()
	return report, nil
}

// trainTable runs SHP for one table, rewrites its NVM blocks and computes
// its access statistics. It fills the per-table report entry and returns the
// hit-rate curve for the allocation phase. rewroteAny is set just before the
// first NVM mutation so Train's error paths know whether the data dir is
// still pristine.
func (s *Store) trainTable(i int, tr *trace.Trace, opts TrainOptions, report *TrainReport, rewroteAny *atomic.Bool) (out struct {
	hrc *mrc.HRC
	err error
}) {
	st := s.tables[i]
	rep := &report.Tables[i]
	rep.Name = st.name
	rep.TrainingQueries = len(tr.Queries)
	rep.TrainingLookups = tr.Lookups()

	blockVectors := st.blockVectors
	if opts.BlockVectors > 0 {
		blockVectors = opts.BlockVectors
	}

	counts := tr.AccessCounts()

	newLayout := st.loadState().layout
	if !opts.SkipPartitioning {
		queries := make([][]uint32, len(tr.Queries))
		for qi, q := range tr.Queries {
			queries[qi] = q
		}
		res, err := shp.Partition(st.numVectors, queries, shp.Options{
			BlockVectors: blockVectors,
			Iterations:   opts.SHPIterations,
			Seed:         s.seed + int64(i),
		})
		if err != nil {
			out.err = fmt.Errorf("core: table %q: %w", st.name, err)
			return out
		}
		rep.InitialFanout = res.InitialFanout
		rep.FinalFanout = res.FinalFanout
		l, err := layout.FromOrder(res.Order, st.blockVectors)
		if err != nil {
			out.err = fmt.Errorf("core: table %q: %w", st.name, err)
			return out
		}
		newLayout = l
	}

	// Install the new layout and rewrite the table's NVM blocks — one
	// atomic step with respect to concurrent lookups and updates.
	rewroteAny.Store(true)
	if err := s.rewriteTable(st, newLayout, func(ts *tableState) {
		ts.layout = newLayout
		ts.counts = counts
	}); err != nil {
		out.err = err
		return out
	}

	// Hit-rate curve for the DRAM allocator, from (sampled) stack
	// distances over the flattened lookup stream.
	flat := make([]uint32, 0, tr.Lookups())
	for _, q := range tr.Queries {
		flat = append(flat, q...)
	}
	out.hrc = mrc.SampledStackDistances(flat, opts.HRCSampling).HitRateCurve()
	return out
}

// tuneTable chooses the prefetch-admission threshold for one table with
// miniature caches and installs the verdict.
func (s *Store) tuneTable(i int, tr *trace.Trace, opts TrainOptions, report *TrainReport) error {
	st := s.tables[i]
	snap := st.loadState()

	choice, err := sim.TuneThreshold(tr, sim.TunerConfig{
		Layout:       snap.layout,
		Counts:       snap.counts,
		CacheVectors: snap.cacheCap,
		SamplingRate: opts.MiniCacheSampling,
		Thresholds:   opts.Thresholds,
	})
	if err != nil {
		return fmt.Errorf("core: table %q: %w", st.name, err)
	}
	st.installChoice(snap.counts, choice, 0)

	rep := &report.Tables[i]
	rep.Threshold = choice.Threshold
	rep.MiniatureGain = choice.MiniatureGain
	if rep.CacheVectors == 0 {
		rep.CacheVectors = snap.cacheCap
	}
	return nil
}

// installChoice publishes a tuner verdict for one table, for Train and the
// adaptation loop alike. Prefetching goes on when the tuner found a
// threshold that beats no-prefetch by at least minGain: the policy installed
// is the same cache.ThresholdAdmit the miniature caches just replayed through
// the store's own batch algorithm (see package sim), so serving behaves
// exactly as simulated. Otherwise it goes off — no policy at all, so a block
// read pays neither the member walk nor the admission calls. Either way the
// state keeps the prediction that matches what will serve.
func (st *storeTable) installChoice(counts []uint32, choice sim.ThresholdChoice, minGain float64) {
	enable := choice.Threshold != sim.DisablePrefetch && choice.MiniatureGain >= minGain
	st.mutateState(func(ts *tableState) {
		ts.counts = counts
		ts.threshold = choice.Threshold
		ts.prefetch = enable
		if enable {
			ts.policy = cache.ThresholdAdmit{Counts: counts, Threshold: choice.Threshold}
			ts.predicted = choice.Predicted
		} else {
			ts.policy = nil
			ts.predicted = choice.NoPrefetch
		}
	})
}
