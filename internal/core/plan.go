package core

import (
	"fmt"
	"sync"

	"bandana/internal/alloc"
	"bandana/internal/cache"
	"bandana/internal/layout"
	"bandana/internal/mrc"
	"bandana/internal/shp"
	"bandana/internal/sim"
	"bandana/internal/trace"
)

// tablePlan is one table's part of a plan: its inputs, and the state its
// commit publishes.
type tablePlan struct {
	st *storeTable
	// tr is the trace the hit-rate curve and the layout are computed from,
	// countsTr the one the access counts are taken from, and tuneTr the one
	// the thresholds are tuned on.
	tr, countsTr, tuneTr *trace.Trace
	// counts are the tuner's input and what the threshold policy is compiled
	// from, dropped with the plan.
	counts []uint32
	hrc    *mrc.HRC
	// layout will serve (moves: it is not the published one); before and
	// after are the fanouts the layout step measured.
	layout        *layout.Layout
	moves         bool
	before, after float64
	// cacheCap is the DRAM allocation; choice is the tuner's verdict, and
	// pinned the ids it pins, when it pins and the verdict is taken (nil
	// otherwise).
	cacheCap int
	choice   sim.ThresholdChoice
	pinned   []uint32
}

// layoutStep sets p's layout for the queries of its trace, and the fanouts on
// them before and after. Setting the published layout keeps it.
type layoutStep func(p *tablePlan, queries [][]uint32) error

// start is what a plan starts from. Train's cold start partitions from
// scratch and gives each table a new cache; an adaptation epoch's warm start
// refines the layout that serves and resizes the cache in place.
type start struct {
	layout layoutStep
	// blockBudget caps the NVM blocks the plan's layout changes rewrite,
	// taken in table order; a table beyond it keeps its layout. 0: no cap.
	blockBudget int
	// cache gives ts a cache of capacity vectors, holding pinned (a bitset
	// over ids) as its pinned set when it is non-nil.
	cache   func(st *storeTable, ts *tableState, capacity int, pinned []uint64)
	minGain float64 // the prefetch gain that turns prefetching on (applyChoice)
}

// plan is the one pipeline of Train and adaptation. It computes each table's
// access counts, hit-rate curve, layout, DRAM share and tuner verdict (tuner
// holds the sampling rate and candidate thresholds) without touching the
// device or the published state, so a failure there changes nothing. Then it
// commits table by table, each one's layout, cache and tuned policy in one
// install (installLayouts). Callers hold s.mutateMu.
func (s *Store) plan(plans []*tablePlan, from start, tuner sim.TunerConfig) error {
	err := forEachPlan(plans, func(p *tablePlan) error {
		if p.tr.NumVectors != p.st.numVectors {
			return fmt.Errorf("trace covers %d vectors, table has %d", p.tr.NumVectors, p.st.numVectors)
		}
		p.counts = p.countsTr.AccessCounts()
		queries := make([][]uint32, len(p.tr.Queries))
		flat := make([]uint32, 0, p.tr.Lookups())
		for qi, q := range p.tr.Queries {
			queries[qi] = q
			flat = append(flat, q...)
		}
		// Hit-rate curve for the DRAM allocator, from (sampled) stack
		// distances over the flattened lookup stream.
		p.hrc = mrc.SampledStackDistances(flat, hrcSampling).HitRateCurve()
		return from.layout(p, queries)
	})
	if err != nil {
		return err
	}

	if err := s.splitDRAM(plans); err != nil {
		return err
	}
	blocksLeft := from.blockBudget
	for _, p := range plans {
		cur := p.st.loadState().layout
		if p.moves = p.layout != cur; p.moves && from.blockBudget > 0 {
			if blocksLeft < p.st.numBlocks {
				p.layout, p.moves = cur, false // a later plan picks it up
			} else {
				blocksLeft -= p.st.numBlocks
			}
		}
	}

	// Tune the admission thresholds with miniature caches over the layout
	// and at the cache size that will serve them. A pin verdict pins the
	// cache's worth of the hottest ids, where the pair it was tuned over is
	// what serves (applyChoice).
	err = forEachPlan(plans, func(p *tablePlan) error {
		cfg := tuner
		cfg.Layout, cfg.Counts, cfg.CacheVectors = p.layout, p.counts, p.cacheCap
		var err error
		if p.choice, err = sim.TuneThreshold(p.tuneTr, cfg); err != nil {
			return err
		}
		if p.choice.Pinned && (p.choice.Threshold == sim.DisablePrefetch || p.choice.PrefetchGain >= from.minGain) {
			p.pinned = cache.HottestIDs(p.counts, p.cacheCap, nil)
		}
		return nil
	})
	if err != nil {
		return err
	}

	installs := make([]layoutInstall, len(plans))
	for i, p := range plans {
		installs[i] = layoutInstall{st: p.st, layout: p.layout, mutate: func(ts *tableState) {
			p.st.applyChoice(ts, p.counts, p.choice, from.minGain, p.pinned)
			from.cache(p.st, ts, p.cacheCap, ts.admit.pinnedSet())
		}}
	}
	return s.installLayouts(installs)
}

// shpOptions are table st's SHP options in either start: the seed is the
// table's own, so a plan's layouts do not depend on which tables it covers.
func (s *Store) shpOptions(st *storeTable, iterations int) shp.Options {
	return shp.Options{BlockVectors: st.blockVectors, Iterations: iterations, Seed: s.seed + int64(st.index)}
}

// forEachPlan runs fn for every plan, planParallelism at a time, and returns
// the first error in table order.
func forEachPlan(plans []*tablePlan, fn func(p *tablePlan) error) error {
	errs := make([]error, len(plans))
	sem := make(chan struct{}, planParallelism)
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			if err := fn(p); err != nil {
				errs[i] = fmt.Errorf("core: table %q: %w", p.st.name, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitDRAMHook, when non-nil, sees every DRAM split before it is made:
// tests use it to check that Train and adaptation split alike.
var splitDRAMHook func(demands []alloc.TableDemand, budget int)

// splitDRAM divides the planned tables' DRAM among them by their hit-rate
// curves: the one allocation rule of Train and adaptation. Tables outside the
// plan keep their allocation and are excluded from the optimisation, so a
// warming table is never starved. The planned tables share the store's
// budget less those allocations — taken from the configured total, not from
// the planned tables' current sizes, so an epoch whose commit failed partway
// cannot shift what the next one splits. The lookahead makes the greedy
// scoring see across the plateaus of the sampled curves; without it the
// split degenerates to a tie-broken even one (see
// alloc.Options.LookaheadVectors).
func (s *Store) splitDRAM(plans []*tablePlan) error {
	if len(plans) == 0 {
		return nil
	}
	budget := s.dramBudget
	planned := make(map[*storeTable]bool, len(plans))
	demands := make([]alloc.TableDemand, len(plans))
	for i, p := range plans {
		planned[p.st] = true
		demands[i] = alloc.TableDemand{Name: p.st.name, HRC: p.hrc, MaxVectors: p.st.numVectors, MinVectors: p.st.blockVectors}
	}
	for _, st := range s.tables {
		if !planned[st] {
			budget -= st.loadState().cacheCap
		}
	}
	budget = max(budget, len(plans)) // every cache holds at least one vector
	if splitDRAMHook != nil {
		splitDRAMHook(demands, budget)
	}
	res, err := alloc.Allocate(demands, alloc.Options{TotalVectors: budget, LookaheadVectors: budget / 16})
	if err != nil {
		return fmt.Errorf("core: DRAM allocation: %w", err)
	}
	for i, p := range plans {
		p.cacheCap = max(res.Vectors[i], 1)
	}
	return nil
}

// applyChoice writes a tuner verdict for one table into ts, for Train and the
// adaptation loop alike. Prefetching goes on when the tuner found a threshold
// whose prefetches earn at least minGain over the best prefetch-free
// configuration; otherwise it goes off and the table serves that
// configuration. Either way the demand threshold and the prediction kept are
// the ones that go with what will serve. pinned, when the plan took the pin
// verdict (non-nil; only where the tuned pair serves), is pinned on top. The
// policy is compiled from counts, which ts does not keep.
func (st *storeTable) applyChoice(ts *tableState, counts []uint32, choice sim.ThresholdChoice, minGain float64, pinned []uint32) {
	ts.threshold = choice.Threshold
	ts.prefetch = choice.Threshold != sim.DisablePrefetch && choice.PrefetchGain >= minGain
	if ts.prefetch || choice.Threshold == sim.DisablePrefetch {
		ts.demandThreshold = choice.DemandThreshold
		ts.predicted = choice.Predicted
	} else {
		ts.demandThreshold = choice.NoPrefetchDemandThreshold
		ts.predicted = choice.NoPrefetch
	}
	st.setThresholdPolicy(ts, counts, pinned)
}
