package experiments

import (
	"fmt"
	"time"

	"bandana/internal/cache"
	"bandana/internal/layout"
	"bandana/internal/mrc"
	"bandana/internal/shp"
	"bandana/internal/sim"
)

// runAblationSHP quantifies how much SHP's swap-refinement iterations matter:
// the same bisection run with 1, 4 and 16 iterations per level.
func (r *Runner) runAblationSHP() (*Table, error) {
	ti := fig2Table
	train := r.env.Train(ti)
	eval := r.env.Eval(ti)
	queries := make([][]uint32, len(train.Queries))
	for i, q := range train.Queries {
		queries[i] = q
	}
	iters := []int{1, 4, 16}
	if r.opts.Quick {
		iters = []int{1, 4}
	}
	t := &Table{
		Columns: []string{"refinement iterations", "training fanout", "eval eff. BW increase", "runtime"},
		Notes:   "table 2; fanout is the average number of blocks per training query (lower is better)",
	}
	for _, it := range iters {
		start := time.Now()
		res, err := shp.Partition(train.NumVectors, queries, shp.Options{
			BlockVectors: blockVectors,
			Iterations:   it,
			Seed:         r.opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		l, err := layout.FromOrder(res.Order, blockVectors)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(it), f2(res.FinalFanout), pct(sim.FanoutGain(eval, l)), dur.Round(time.Millisecond).String())
	}
	return t, nil
}

// runAblationAdmission compares the whole admission-policy family at one
// cache size on table 2 with the SHP layout: no prefetch, admit-all (MRU and
// mid-queue), shadow-cache admission, shadow-driven position, and the tuned
// access-count threshold Bandana uses — each as an increase over the paper's
// per-vector baseline (paperGain), so the no-prefetch row shows what the
// batch path's one-read-per-block is worth on its own.
func (r *Runner) runAblationAdmission() (*Table, error) {
	ti := fig2Table
	eval := r.env.Eval(ti)
	shpL, err := r.env.SHPLayout(ti, blockVectors)
	if err != nil {
		return nil, err
	}
	counts := r.env.Counts(ti)
	sizes := r.env.cacheSizes(ti)
	size := sizes[len(sizes)/2]

	choice, err := sim.TuneThreshold(eval, sim.TunerConfig{
		Layout: shpL, Counts: counts, CacheVectors: size, SamplingRate: 0.25,
	})
	if err != nil {
		return nil, err
	}

	policies := []cache.AdmissionPolicy{
		cache.NoPrefetch{},
		cache.AlwaysAdmit{},
		cache.AlwaysAdmit{Position: 0.7},
		cache.NewShadowAdmit(size*3/2, 0),
		cache.NewShadowPosition(size*3/2, 0.7),
		cache.NewThresholdAdmit(counts, choice.Threshold, choice.DemandThreshold),
	}
	labels := []string{
		"no prefetch (batch reads only)",
		"admit all @ MRU",
		"admit all @ pos 0.7",
		"shadow admission",
		"shadow-driven position",
		fmt.Sprintf("access thresholds (prefetch t=%d, demand t=%d, tuned)", choice.Threshold, choice.DemandThreshold),
	}
	baseline := sim.ReplayBaseline(eval, shpL, size, nil)
	t := &Table{
		Columns: []string{"policy", "hit rate", "block reads", "eff. BW increase"},
		Notes:   fmt.Sprintf("table 2, SHP layout, cache of %d vectors; increase over the paper's baseline of one block read per missed vector", size),
	}
	for i, p := range policies {
		res := sim.Replay(eval, sim.Config{Layout: shpL, CacheVectors: size, Policy: p})
		t.AddRow(labels[i], fmt.Sprintf("%.3f", res.HitRate), itoa(int(res.BlockReads)),
			pct(paperGain(res, baseline)))
	}
	return t, nil
}

// runAblationMRC compares exact Mattson stack distances with SHARDS-style
// sampled ones: accuracy of the resulting hit-rate curve and runtime.
func (r *Runner) runAblationMRC() (*Table, error) {
	ti := fig2Table
	flat := flatten(r.env.Train(ti).Queries)
	numVectors := r.env.Workload().Traces[ti].NumVectors

	start := time.Now()
	exact := mrc.StackDistances(flat).HitRateCurve()
	exactDur := time.Since(start)

	rates := []float64{0.1, 0.01}
	sizes := []int{numVectors / 100, numVectors / 20, numVectors / 5}

	t := &Table{
		Columns: []string{"method", "runtime", "hit rate @1%", "hit rate @5%", "hit rate @20%"},
		Notes:   "table 2 training trace; sampled curves should track the exact curve at a fraction of the cost",
	}
	t.AddRow("exact", exactDur.Round(time.Millisecond).String(),
		fmt.Sprintf("%.3f", exact.HitRate(sizes[0])),
		fmt.Sprintf("%.3f", exact.HitRate(sizes[1])),
		fmt.Sprintf("%.3f", exact.HitRate(sizes[2])))
	for _, rate := range rates {
		start := time.Now()
		sampled := mrc.SampledStackDistances(flat, rate).HitRateCurve()
		dur := time.Since(start)
		t.AddRow(fmt.Sprintf("sampled %.0f%%", rate*100), dur.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3f", sampled.HitRate(sizes[0])),
			fmt.Sprintf("%.3f", sampled.HitRate(sizes[1])),
			fmt.Sprintf("%.3f", sampled.HitRate(sizes[2])))
	}
	return t, nil
}
