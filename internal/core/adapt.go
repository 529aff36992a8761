// The adaptation layer: a background engine that closes the paper's tuning
// loops at runtime. Each epoch is Train's plan (plan.go) from a warm start —
// hit-rate curves via sampled stack distances, greedy DRAM allocation, SHP
// re-partitioning from the serving layout, miniature-cache threshold tuning —
// over a bounded window of the *live* access stream that per-table recorders
// capture on the serving path. Every decision is published through the same
// atomic state pointer serving already reads, a resized cache is swapped for
// one filled from it (no cold restart), and layout changes go through the
// same crash-recoverable install Train uses (rewrite.go, package datadir), so
// the store tunes itself under load without ever blocking its readers.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/layout"
	"bandana/internal/shp"
	"bandana/internal/sim"
	"bandana/internal/trace"
)

// ErrAdaptationRunning is returned by StartAdaptation when the engine is
// already started.
var ErrAdaptationRunning = errors.New("core: adaptation already started (StopAdaptation first)")

// ErrAdaptationNotStarted is returned by AdaptNow when no engine is
// installed (StartAdaptation has not run, or StopAdaptation tore it down —
// possibly concurrently with the AdaptNow call).
var ErrAdaptationNotStarted = errors.New("core: adaptation not started")

// AdaptOptions configures the online adaptation engine.
type AdaptOptions struct {
	// Interval is the background epoch period. <= 0 starts the engine in
	// manual mode: recording is on but epochs only run when AdaptNow is
	// called (how tests and the /v1/adapt endpoint drive it).
	Interval time.Duration
	// RecorderQueries bounds each table's recorded window (ring capacity in
	// queries). Defaults to 4096.
	RecorderQueries int
	// RecorderStripes is the lock striping of each recorder. Defaults to 16.
	RecorderStripes int
	// SampleEvery records one in N queries (1 = everything). Defaults to 1;
	// raise it on very hot stores to cut recording overhead further.
	SampleEvery int
	// MinQueries is the minimum recorded window before a table is adapted;
	// colder tables keep their current configuration (and their DRAM share
	// is reserved, so a warming table is never starved by the optimiser).
	// Defaults to 64.
	MinQueries int
	// Thresholds are the candidate admission thresholds; nil derives them
	// from the recorded access counts (sim.AdaptiveThresholds).
	Thresholds []uint32
	// MinPrefetchGain is the minimum held-out miniature-cache gain required
	// to turn prefetching ON for a table this epoch; below it the table
	// serves prefetch-free. The offline Train can afford optimism (its
	// trace is the whole workload); the online loop tunes on a short noisy
	// window where a marginal measured gain often means live cache
	// pollution, so it demands a margin. Defaults to 0.15.
	MinPrefetchGain float64
	// RelayoutEvery runs the background re-layout pass every N epochs; 0
	// disables re-layout (allocation and thresholds still adapt). The pass
	// re-partitions with the Social Hash Partitioner over the recorded
	// co-access hypergraph, warm-started from the current layout (the
	// paper's supervised partitioner, §4.3.2).
	RelayoutEvery int
	// RelayoutMinGain is the minimum relative fanout improvement (on the
	// recorded queries) required before a table is migrated; below it the
	// migration cost is not worth the layout delta. Defaults to 0.05.
	RelayoutMinGain float64
	// RelayoutBlockBudget caps the NVM blocks rewritten by migrations in
	// one epoch (tables beyond the budget wait for a later epoch); 0 means
	// unlimited.
	RelayoutBlockBudget int
	// SHPIterations bounds the warm-started refinement; incremental runs
	// need far fewer than a cold Train. Defaults to 6.
	SHPIterations int
}

func (o *AdaptOptions) defaults() {
	if o.RecorderQueries <= 0 {
		o.RecorderQueries = 4096
	}
	if o.RecorderStripes <= 0 {
		o.RecorderStripes = 16
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1
	}
	if o.MinQueries <= 0 {
		o.MinQueries = 64
	}
	if o.RelayoutMinGain <= 0 {
		o.RelayoutMinGain = 0.05
	}
	if o.MinPrefetchGain <= 0 {
		o.MinPrefetchGain = 0.15
	}
	if o.SHPIterations <= 0 {
		o.SHPIterations = 6
	}
}

// adapter is the runtime state of the adaptation engine.
type adapter struct {
	opts AdaptOptions

	// Background loop lifecycle (nil channels in manual mode).
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	running  atomic.Bool

	epochs         atomic.Int64
	lastEpochNS    atomic.Int64
	lastRelayoutNS atomic.Int64
	lastErr        atomic.Pointer[string]
	// tableRelayouts counts each table's committed re-layouts.
	tableRelayouts []atomic.Int64

	// Per-table counter baselines from the end of the previous epoch, so
	// stats can report hit ratios *since the last adaptation*, not
	// since-boot averages that drown out drift.
	mu          sync.Mutex
	baseLookups []int64
	baseHits    []int64
	// recorders are the exact recorder instances this adapter installed, so
	// StopAdaptation can remove its own recorders without clobbering those
	// of a successor engine.
	recorders []*trace.Recorder
}

// StartAdaptation turns the store into a self-tuning system: it installs
// per-table access recorders on the serving path and (when opts.Interval >
// 0) starts a background goroutine that runs an adaptation epoch every
// interval. Returns an error if the engine is already started.
func (s *Store) StartAdaptation(opts AdaptOptions) error {
	// A replica's configuration is whatever its next re-sync streams in;
	// adapting locally would mutate NVM blocks and trained state that the
	// primary owns.
	if err := s.checkWritable(); err != nil {
		return err
	}
	opts.defaults()
	a := &adapter{
		opts:           opts,
		baseLookups:    make([]int64, len(s.tables)),
		baseHits:       make([]int64, len(s.tables)),
		tableRelayouts: make([]atomic.Int64, len(s.tables)),
		recorders:      make([]*trace.Recorder, len(s.tables)),
	}
	// Win the engine slot before touching any serving state, so a losing
	// concurrent StartAdaptation cannot install recorders with its own
	// config under the winner's adapter.
	if !s.adapt.CompareAndSwap(nil, a) {
		return ErrAdaptationRunning
	}
	for i, st := range s.tables {
		a.baseLookups[i] = st.lookups()
		a.baseHits[i] = st.counters.Value(ctrHits)
		a.recorders[i] = trace.NewRecorder(opts.RecorderQueries, opts.RecorderStripes, opts.SampleEvery)
		st.recorder.Store(a.recorders[i])
	}
	if opts.Interval > 0 {
		a.stop = make(chan struct{})
		a.done = make(chan struct{})
		a.running.Store(true)
		go s.adaptLoop(a)
	}
	return nil
}

// adaptLoop is the background ticker: one adaptation epoch per interval.
func (s *Store) adaptLoop(a *adapter) {
	defer close(a.done)
	ticker := time.NewTicker(a.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			if _, err := s.AdaptNow(); err != nil {
				msg := err.Error()
				a.lastErr.Store(&msg)
			}
		}
	}
}

// StopAdaptation stops the background loop (waiting for an in-flight epoch
// to finish) and removes the serving-path recorders. Idempotent; a stopped
// engine can be restarted with StartAdaptation.
func (s *Store) StopAdaptation() {
	a := s.adapt.Load()
	if a == nil {
		return
	}
	// Drain the background loop first (idempotent for concurrent stops),
	// then release the engine slot. Only the stop that wins the CAS removes
	// the recorders — and only the exact instances this adapter installed —
	// so a racing StopAdaptation can neither tear down a successor engine
	// installed by a concurrent StartAdaptation nor strip its recorders.
	if a.stop != nil {
		a.stopOnce.Do(func() { close(a.stop) })
		<-a.done
	}
	a.running.Store(false)
	if !s.adapt.CompareAndSwap(a, nil) {
		return
	}
	for i, st := range s.tables {
		st.recorder.CompareAndSwap(a.recorders[i], nil)
	}
}

// AdaptEpochReport summarises one adaptation epoch.
type AdaptEpochReport struct {
	Epoch    int64
	Duration time.Duration
	Tables   []TableAdaptReport
}

// TableAdaptReport is the per-table outcome of one epoch.
type TableAdaptReport struct {
	Name            string
	RecordedQueries int
	RecordedLookups int64
	// Adapted is false when the recorded window was below MinQueries (the
	// table keeps its configuration).
	Adapted bool
	// CacheVectors is the DRAM allocation after this epoch.
	CacheVectors int
	// Threshold, DemandThreshold, PinnedVectors and MiniatureGain mirror
	// TableTrainReport.
	Threshold       uint32
	DemandThreshold uint32
	PinnedVectors   int
	MiniatureGain   float64
	// Relayout reports whether the table's blocks were migrated this epoch;
	// FanoutBefore/FanoutAfter are measured on the recorded queries.
	Relayout         bool
	FanoutBefore     float64
	FanoutAfter      float64
	RelayoutDuration time.Duration
}

// AdaptNow runs one adaptation epoch synchronously: the plan's warm start
// (plan.go) over each table's recorded window. SHP refines the serving layout
// every RelayoutEvery epochs, caches are swapped for ones of their new size
// filled from the old (see resizeCache), and prefetching
// needs a predicted gain of MinPrefetchGain. Serving continues throughout;
// the only serving-visible pauses are the per-table bulk copy of a migration.
func (s *Store) AdaptNow() (*AdaptEpochReport, error) {
	a := s.adapt.Load()
	if a == nil {
		return nil, ErrAdaptationNotStarted
	}
	began := time.Now()
	// One epoch at a time, and never concurrent with Train/LoadState: they
	// share the cache/threshold state and the migration protocol supports a
	// single in-flight migration.
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()
	// Re-check under the lock: a Stop (or Stop+Start) that won the race
	// while this call waited must not have its successor's recorders
	// consumed by an epoch running with the dead engine's options.
	if s.adapt.Load() != a {
		return nil, ErrAdaptationNotStarted
	}

	opts := a.opts
	epoch := a.epochs.Load() + 1
	report := &AdaptEpochReport{Epoch: epoch, Tables: make([]TableAdaptReport, len(s.tables))}

	// Snapshot each table's recorded window. Counts for the admission policy
	// come from the window's *training prefix* only, and thresholds are
	// tuned on the held-out suffix: tuning on the very stream the counts
	// were measured from systematically overstates prefetch gains (the
	// counts are that replay's future), and under drift that overfitting
	// turns into live cache pollution.
	var plans []*tablePlan
	for i, st := range s.tables {
		rep := &report.Tables[i]
		rep.Name = st.name
		rep.CacheVectors = st.loadState().cacheCap
		r := st.recorder.Load()
		if r == nil {
			continue
		}
		tr := r.Snapshot(st.name, st.numVectors)
		rep.RecordedQueries = len(tr.Queries)
		rep.RecordedLookups = tr.Lookups()
		if len(tr.Queries) < opts.MinQueries {
			// Leave the window in place so a slow table keeps accumulating
			// across epochs (the ring bounds memory); resetting here would
			// turn MinQueries into a minimum arrival *rate* and starve
			// low-traffic tables of adaptation forever.
			continue
		}
		r.Reset()
		rep.Adapted = true
		countsTr, tuneTr := tr.Split(0.6)
		if len(tuneTr.Queries) == 0 { // degenerate tiny window
			countsTr, tuneTr = tr, tr
		}
		plans = append(plans, &tablePlan{st: st, tr: tr, countsTr: countsTr, tuneTr: tuneTr})
	}

	warm := start{layout: keepLayout, cache: (*storeTable).resizeCache, minGain: opts.MinPrefetchGain}
	if opts.RelayoutEvery > 0 && epoch%int64(opts.RelayoutEvery) == 0 {
		warm.layout = s.repartition(opts.SHPIterations, opts.RelayoutMinGain)
		warm.blockBudget = opts.RelayoutBlockBudget
	}
	// The commit moves the snapshot seq — cache allocations, thresholds and
	// layouts are all part of the image a replica streams — also when it
	// fails after an earlier table committed.
	err := s.plan(plans, warm, sim.TunerConfig{SamplingRate: miniCacheSampling, Thresholds: opts.Thresholds})
	for _, p := range plans {
		if p.moves && p.st.loadState().layout == p.layout { // committed
			a.tableRelayouts[p.st.index].Add(1)
			a.lastRelayoutNS.Store(s.lastInstallNS.Load())
		}
		rep := &report.Tables[p.st.index]
		rep.CacheVectors = p.cacheCap
		rep.Threshold = p.choice.Threshold
		rep.DemandThreshold = p.choice.DemandThreshold
		rep.PinnedVectors = len(p.pinned)
		rep.MiniatureGain = p.choice.MiniatureGain
		rep.Relayout, rep.FanoutBefore, rep.FanoutAfter = p.moves, p.before, p.after
	}
	if err != nil {
		return nil, err
	}

	// Persist the adapted state so a restart resumes from the latest
	// configuration instead of the last offline Train.
	if s.dataDir != "" {
		if err := s.Persist(); err != nil {
			return nil, fmt.Errorf("core: persist adapted state: %w", err)
		}
	}

	// Publish epoch accounting and reset the per-epoch counter baselines.
	a.mu.Lock()
	for i, st := range s.tables {
		a.baseLookups[i] = st.lookups()
		a.baseHits[i] = st.counters.Value(ctrHits)
	}
	a.mu.Unlock()
	report.Duration = time.Since(began)
	a.lastEpochNS.Store(int64(report.Duration))
	a.epochs.Store(epoch)
	a.lastErr.Store(nil) // a completed epoch supersedes any earlier failure
	return report, nil
}

// keepLayout is the layout step of an epoch without re-layout.
func keepLayout(p *tablePlan, _ [][]uint32) error {
	p.layout = p.st.loadState().layout
	return nil
}

// repartition is the warm start's layout step: SHP re-partitions the recorded
// co-access hypergraph warm-started from the serving layout (§4.3.2), and the
// candidate replaces it only when it cuts the fanout on the recorded queries
// by minGain — below that the migration is not worth the layout delta.
func (s *Store) repartition(iterations int, minGain float64) layoutStep {
	return func(p *tablePlan, queries [][]uint32) error {
		p.layout = p.st.loadState().layout
		res, err := shp.Repartition(p.layout.Order(), queries, s.shpOptions(p.st, iterations))
		if err != nil {
			return err
		}
		p.before, p.after = res.InitialFanout, res.FinalFanout
		if p.before <= 0 || (p.before-p.after)/p.before < minGain {
			return nil
		}
		p.layout, err = layout.FromOrder(res.Order, p.st.blockVectors)
		return err
	}
}

// AdaptationStats is a snapshot of the adaptation engine for observability.
type AdaptationStats struct {
	// Enabled reports whether recorders are installed (StartAdaptation was
	// called); Background reports whether the interval loop is running.
	Enabled    bool
	Background bool
	Interval   time.Duration
	// EpochsCompleted counts finished adaptation epochs; Relayouts counts
	// completed background migrations.
	EpochsCompleted int64
	Relayouts       int64
	// LastEpochDuration / LastRelayoutDuration are wall-clock times of the
	// most recent epoch and migration.
	LastEpochDuration    time.Duration
	LastRelayoutDuration time.Duration
	// LastError is the most recent background-epoch failure ("" when the
	// last epoch succeeded or none ran).
	LastError string
	Tables    []TableAdaptationStats
}

// TableAdaptationStats is the per-table adaptation view.
type TableAdaptationStats struct {
	Name string
	// EpochLookups/EpochHits/EpochHitRate cover the window since the last
	// completed adaptation epoch (or since StartAdaptation).
	EpochLookups int64
	EpochHits    int64
	EpochHitRate float64
	// CacheVectors, Threshold, DemandThreshold and Prefetching mirror the
	// live config.
	CacheVectors    int
	Threshold       uint32
	DemandThreshold uint32
	Prefetching     bool
	// RecordedQueries is the current recorder fill.
	RecordedQueries int
	// Relayouts counts this table's completed background migrations.
	Relayouts int64
}

// AdaptationStats returns the adaptation engine's observability snapshot.
// When the engine has never been started, Enabled is false and Tables is
// empty.
func (s *Store) AdaptationStats() AdaptationStats {
	a := s.adapt.Load()
	if a == nil {
		return AdaptationStats{}
	}
	out := AdaptationStats{
		Enabled:              true,
		Background:           a.running.Load(),
		Interval:             a.opts.Interval,
		EpochsCompleted:      a.epochs.Load(),
		LastEpochDuration:    time.Duration(a.lastEpochNS.Load()),
		LastRelayoutDuration: time.Duration(a.lastRelayoutNS.Load()),
		Tables:               make([]TableAdaptationStats, len(s.tables)),
	}
	if msg := a.lastErr.Load(); msg != nil {
		out.LastError = *msg
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, st := range s.tables {
		state := st.loadState()
		ts := TableAdaptationStats{
			Name:            st.name,
			EpochLookups:    st.lookups() - a.baseLookups[i],
			EpochHits:       st.counters.Value(ctrHits) - a.baseHits[i],
			CacheVectors:    state.cacheCap,
			Threshold:       state.threshold,
			DemandThreshold: state.demandThreshold,
			Prefetching:     state.prefetch,
			Relayouts:       a.tableRelayouts[i].Load(),
		}
		out.Relayouts += ts.Relayouts
		if r := st.recorder.Load(); r != nil {
			ts.RecordedQueries = r.Len()
		}
		if ts.EpochLookups > 0 {
			ts.EpochHitRate = float64(ts.EpochHits) / float64(ts.EpochLookups)
		}
		out.Tables[i] = ts
	}
	return out
}
