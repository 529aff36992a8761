package experiments

import (
	"fmt"

	"bandana/internal/alloc"
	"bandana/internal/cache"
	"bandana/internal/layout"
	"bandana/internal/mrc"
	"bandana/internal/sim"
)

// hrcForAllocation builds the hit-rate curve of table i from its training
// trace (spatially sampled to keep it cheap).
func (r *Runner) hrcForAllocation(i int) *mrc.HRC {
	flat := flatten(r.env.Train(i).Queries)
	return mrc.SampledStackDistances(flat, 0.1).HitRateCurve()
}

// endToEndConfig parametrises one end-to-end evaluation pass.
type endToEndConfig struct {
	totalCache   int
	blockVectors int     // vectors per 4 KB block (32 for 128 B vectors)
	trainFrac    float64 // fraction of the training trace SHP sees (1.0 = all)
	sampling     float64 // miniature-cache sampling rate
	numTables    int     // evaluate only the first N tables (0 = all)
}

// endToEndGains runs the full Bandana pipeline — SHP placement, DRAM
// allocation across tables, miniature-cache threshold tuning — and returns
// the per-table effective bandwidth increase over the paper's baseline
// policy (original layout, same per-table cache, no prefetching, one block
// read per missed vector — paperGain).
func (r *Runner) endToEndGains(cfg endToEndConfig) ([]float64, []int, error) {
	n := r.env.NumTables()
	if cfg.numTables > 0 && cfg.numTables < n {
		n = cfg.numTables
	}
	if cfg.blockVectors <= 0 {
		cfg.blockVectors = blockVectors
	}
	if cfg.sampling <= 0 {
		cfg.sampling = 0.1
	}

	// Phase 1: DRAM allocation across tables from their hit-rate curves.
	demands := make([]alloc.TableDemand, n)
	for i := 0; i < n; i++ {
		demands[i] = alloc.TableDemand{
			Name:       r.env.Profile(i).Name,
			HRC:        r.hrcForAllocation(i),
			MaxVectors: r.env.Workload().Traces[i].NumVectors,
			MinVectors: cfg.blockVectors,
		}
	}
	allocRes, err := alloc.Allocate(demands, alloc.Options{TotalVectors: cfg.totalCache})
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: per-table layout, threshold tuning and measurement.
	gains := make([]float64, n)
	for i := 0; i < n; i++ {
		train := r.env.Train(i)
		eval := r.env.Eval(i)
		counts := r.env.Counts(i)
		cacheSize := allocRes.Vectors[i]
		if cacheSize < cfg.blockVectors {
			cacheSize = cfg.blockVectors
		}

		prefix := 0
		if cfg.trainFrac > 0 && cfg.trainFrac < 1 {
			prefix = int(cfg.trainFrac * float64(len(train.Queries)))
		}
		order, _, _, err := r.env.shpOrder(i, prefix)
		if err != nil {
			return nil, nil, err
		}
		shpL, err := layout.FromOrder(order, cfg.blockVectors)
		if err != nil {
			return nil, nil, err
		}
		idL := r.env.Identity(i, cfg.blockVectors)

		choice, err := sim.TuneThreshold(eval, sim.TunerConfig{
			Layout: shpL, Counts: counts, CacheVectors: cacheSize,
			SamplingRate: cfg.sampling,
		})
		if err != nil {
			return nil, nil, err
		}

		bandanaRes := sim.Replay(eval, sim.Config{
			Layout: shpL, CacheVectors: cacheSize,
			Policy: cache.NewThresholdAdmit(counts, choice.Threshold, choice.DemandThreshold),
		})
		baseline := sim.ReplayBaseline(eval, idL, cacheSize, nil)
		gains[i] = paperGain(bandanaRes, baseline)
	}
	return gains, allocRes.Vectors[:n], nil
}

// runFig13 reproduces Figure 13: per-table effective bandwidth increase as a
// function of the total DRAM cache size shared by all tables.
func (r *Runner) runFig13() (*Table, error) {
	sizes := r.env.totalCacheSizes()
	n := r.env.NumTables()
	if r.opts.Quick {
		n = 3
	}
	cols := []string{"total cache (vectors)"}
	for i := 0; i < n; i++ {
		cols = append(cols, fmt.Sprintf("table %d", i+1))
	}
	t := &Table{
		Columns: cols,
		Notes:   "full pipeline (SHP + DRAM allocation + tuned thresholds) vs baseline (original layout, same per-table cache, no prefetching)",
	}
	for _, total := range sizes {
		gains, _, err := r.endToEndGains(endToEndConfig{totalCache: total, numTables: n})
		if err != nil {
			return nil, err
		}
		row := []string{itoa(total)}
		for i := 0; i < n; i++ {
			row = append(row, pct(gains[i]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// defaultTotalCache returns the mid-point of the end-to-end cache sweep,
// used by Figures 14-16 (the paper uses 4 M vectors).
func (r *Runner) defaultTotalCache() int {
	sizes := r.env.totalCacheSizes()
	return sizes[len(sizes)/2]
}

// runFig14 reproduces Figure 14: per-table effective bandwidth increase when
// the admission threshold is tuned by miniature caches of different sampling
// rates, including the full-cache oracle.
func (r *Runner) runFig14() (*Table, error) {
	rates := []struct {
		label string
		rate  float64
	}{
		{"2% sampling", 0.02},
		{"10% sampling", 0.10},
		{"25% sampling", 0.25},
		{"full cache", 1.0},
	}
	if r.opts.Quick {
		rates = rates[1:3]
	}
	n := r.env.NumTables()
	if r.opts.Quick {
		n = 3
	}
	cols := []string{"table"}
	for _, rt := range rates {
		cols = append(cols, rt.label)
	}
	t := &Table{
		Columns: cols,
		Notes:   "the paper samples down to 0.1% at 10M-vector scale; sampling rates here are scaled to the smaller tables",
	}
	perRate := make([][]float64, len(rates))
	for k, rt := range rates {
		gains, _, err := r.endToEndGains(endToEndConfig{
			totalCache: r.defaultTotalCache(), sampling: rt.rate, numTables: n,
		})
		if err != nil {
			return nil, err
		}
		perRate[k] = gains
	}
	for i := 0; i < n; i++ {
		row := []string{itoa(i + 1)}
		for k := range rates {
			row = append(row, pct(perRate[k][i]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runFig15 reproduces Figure 15: per-table effective bandwidth increase as a
// function of the number of requests used to train SHP.
func (r *Runner) runFig15() (*Table, error) {
	fracs := []struct {
		label string
		frac  float64
	}{
		{"4% of training trace (~200M-equivalent)", 0.04},
		{"20% of training trace (~1B-equivalent)", 0.20},
		{"100% of training trace (~5B-equivalent)", 1.00},
	}
	if r.opts.Quick {
		fracs = fracs[1:]
	}
	n := r.env.NumTables()
	if r.opts.Quick {
		n = 3
	}
	cols := []string{"table"}
	for _, f := range fracs {
		cols = append(cols, f.label)
	}
	t := &Table{
		Columns: cols,
		Notes:   "more SHP training data improves placement and therefore end-to-end effective bandwidth",
	}
	perFrac := make([][]float64, len(fracs))
	for k, f := range fracs {
		gains, _, err := r.endToEndGains(endToEndConfig{
			totalCache: r.defaultTotalCache(), trainFrac: f.frac, numTables: n,
		})
		if err != nil {
			return nil, err
		}
		perFrac[k] = gains
	}
	for i := 0; i < n; i++ {
		row := []string{itoa(i + 1)}
		for k := range fracs {
			row = append(row, pct(perFrac[k][i]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runFig16 reproduces Figure 16: per-table effective bandwidth increase for
// embedding vector sizes of 64, 128 and 256 bytes. Smaller vectors mean more
// vectors per 4 KB block and therefore more prefetch opportunity.
func (r *Runner) runFig16() (*Table, error) {
	sizes := []struct {
		label string
		bv    int
	}{
		{"64 B vectors (64/block)", 64},
		{"128 B vectors (32/block)", 32},
		{"256 B vectors (16/block)", 16},
	}
	n := r.env.NumTables()
	if r.opts.Quick {
		n = 3
		sizes = sizes[1:]
	}
	cols := []string{"table"}
	for _, s := range sizes {
		cols = append(cols, s.label)
	}
	t := &Table{
		Columns: cols,
		Notes:   "the SHP order is hierarchical, so re-chunking it at 16/32/64 vectors per block preserves locality; cache size in vectors is held constant as in the paper",
	}
	perSize := make([][]float64, len(sizes))
	for k, s := range sizes {
		gains, _, err := r.endToEndGains(endToEndConfig{
			totalCache: r.defaultTotalCache(), blockVectors: s.bv, numTables: n,
		})
		if err != nil {
			return nil, err
		}
		perSize[k] = gains
	}
	for i := 0; i < n; i++ {
		row := []string{itoa(i + 1)}
		for k := range sizes {
			row = append(row, pct(perSize[k][i]))
		}
		t.AddRow(row...)
	}
	return t, nil
}
