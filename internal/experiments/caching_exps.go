package experiments

import (
	"fmt"

	"bandana/internal/cache"
	"bandana/internal/layout"
	"bandana/internal/sim"
)

// fig2Table is the index of the paper's "table 2", the busiest table, which
// Figures 11, 12 and Table 2 study in isolation.
const fig2Table = 1

// paperGain is the effective bandwidth increase of a replay over the paper's
// baseline policy (§4.3): one 4 KB block read per missed vector, no
// prefetching — the no-prefetch replay's Misses. sim's own no-prefetch
// BlockReads is a different quantity, the batch-serving store with
// prefetching off, which already reads each distinct block once per query;
// every §4.3 figure and table reproduced here (Figures 10-16, Table 2, the
// admission ablation) is drawn against the paper's per-vector baseline.
func paperGain(res, noPrefetch sim.Result) float64 {
	if res.BlockReads == 0 || noPrefetch.Misses == 0 {
		return 0
	}
	return float64(noPrefetch.Misses)/float64(res.BlockReads) - 1
}

// runFig10 reproduces Figure 10: with a limited cache and the naive policy
// of treating prefetched vectors like requested ones (admitting all 32 at
// the MRU position), effective bandwidth *drops* — on the SHP-partitioned
// layout and even more so on the original layout. Gains are over the paper's
// per-vector baseline (see paperGain), so every column includes what reading
// each of a query's blocks once is worth; the drop is each layout's naive
// column against its no-prefetch column.
func (r *Runner) runFig10() (*Table, error) {
	ti := fig2Table
	eval := r.env.Eval(ti)
	shpL, err := r.env.SHPLayout(ti, blockVectors)
	if err != nil {
		return nil, err
	}
	idL := r.env.Identity(ti, blockVectors)

	t := &Table{
		Columns: []string{"cache size (vectors)", "partitioned tables", "partitioned, no prefetch", "original tables", "original, no prefetch"},
		Notes:   "admit-all prefetching at the MRU position, and no prefetching, vs the paper's baseline (one block read per missed vector) at the same cache size (table 2)",
	}
	for _, size := range r.env.cacheSizes(ti) {
		row := []string{itoa(size)}
		for _, l := range []*layout.Layout{shpL, idL} {
			off := sim.ReplayBaseline(eval, l, size, nil)
			naive := sim.Replay(eval, sim.Config{Layout: l, CacheVectors: size, Policy: cache.AlwaysAdmit{}})
			row = append(row, pct(paperGain(naive, off)), pct(paperGain(off, off)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runFig11 reproduces Figure 11: (a) inserting prefetched vectors at a lower
// queue position, (b) admitting them only on a shadow-cache hit, and (c) the
// combination, all against the paper's no-prefetch baseline (paperGain) on
// table 2 with the SHP layout.
func (r *Runner) runFig11() (*Table, error) {
	ti := fig2Table
	eval := r.env.Eval(ti)
	shpL, err := r.env.SHPLayout(ti, blockVectors)
	if err != nil {
		return nil, err
	}
	positions := []float64{0, 0.3, 0.5, 0.7, 0.9}
	multipliers := []float64{1.0, 1.5, 2.0}
	sizes := r.env.cacheSizes(ti)
	if r.opts.Quick {
		positions = []float64{0, 0.5, 0.9}
		sizes = sizes[len(sizes)-1:]
	}

	t := &Table{
		Columns: []string{"policy", "parameter", "cache size", "eff. BW increase"},
		Notes:   "policies of §4.3.1 on table 2 with the SHP layout, relative to the paper's baseline (no prefetching, one block read per missed vector) at the same cache size",
	}
	for _, size := range sizes {
		baseline := sim.ReplayBaseline(eval, shpL, size, nil)
		// (a) insertion position.
		for _, pos := range positions {
			res := sim.Replay(eval, sim.Config{Layout: shpL, CacheVectors: size, Policy: cache.AlwaysAdmit{Position: pos}})
			t.AddRow("(a) insertion position", fmt.Sprintf("pos=%.1f", pos), itoa(size),
				pct(paperGain(res, baseline)))
		}
		// (b) shadow-cache admission.
		for _, m := range multipliers {
			policy := cache.NewShadowAdmit(int(float64(size)*m), 0)
			res := sim.Replay(eval, sim.Config{Layout: shpL, CacheVectors: size, Policy: policy})
			t.AddRow("(b) shadow admission", fmt.Sprintf("shadow=%.1fx", m), itoa(size),
				pct(paperGain(res, baseline)))
		}
		// (c) combination: admit everywhere, position decided by shadow hit.
		for _, pos := range positions {
			policy := cache.NewShadowPosition(int(float64(size)*1.5), pos)
			res := sim.Replay(eval, sim.Config{Layout: shpL, CacheVectors: size, Policy: policy})
			t.AddRow("(c) shadow position", fmt.Sprintf("alt-pos=%.1f", pos), itoa(size),
				pct(paperGain(res, baseline)))
		}
	}
	return t, nil
}

// runFig12 reproduces Figure 12: admitting prefetched vectors only when
// their SHP-training access count exceeds a threshold t, for several
// thresholds and cache sizes (table 2, SHP layout), relative to the paper's
// no-prefetch baseline (paperGain).
func (r *Runner) runFig12() (*Table, error) {
	ti := fig2Table
	eval := r.env.Eval(ti)
	shpL, err := r.env.SHPLayout(ti, blockVectors)
	if err != nil {
		return nil, err
	}
	counts := r.env.Counts(ti)
	thresholds := []uint32{5, 10, 20, 40, 80}
	sizes := r.env.cacheSizes(ti)
	if r.opts.Quick {
		thresholds = []uint32{5, 20}
		sizes = sizes[:1]
	}
	cols := []string{"access threshold"}
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("cache %d", s))
	}
	t := &Table{
		Columns: cols,
		Notes:   "smaller caches favour higher (more selective) thresholds; larger caches favour lower thresholds (§4.3.2); admitted prefetches enter at the MRU end, as in the paper's sweep (the deployed policy enters them mid-queue)",
	}
	baselines := make([]sim.Result, len(sizes))
	for i, size := range sizes {
		baselines[i] = sim.ReplayBaseline(eval, shpL, size, nil)
	}
	for _, th := range thresholds {
		row := []string{itoa(int(th))}
		for i, size := range sizes {
			res := sim.Replay(eval, sim.Config{
				Layout: shpL, CacheVectors: size,
				Policy: cache.ThresholdAdmit{Counts: counts, Threshold: th},
			})
			row = append(row, pct(paperGain(res, baselines[i])))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runTable2 reproduces Table 2: the admission threshold chosen by miniature
// caches at several sampling rates, compared with the full-cache (oracle)
// choice, and the effective bandwidth gain each chosen threshold achieves on
// the full-size cache over the paper's no-prefetch baseline (paperGain).
func (r *Runner) runTable2() (*Table, error) {
	ti := fig2Table
	eval := r.env.Eval(ti)
	shpL, err := r.env.SHPLayout(ti, blockVectors)
	if err != nil {
		return nil, err
	}
	counts := r.env.Counts(ti)
	rates := []struct {
		label string
		rate  float64
	}{
		{"full cache", 1.0},
		{"25% sampling", 0.25},
		{"10% sampling", 0.10},
		{"2% sampling", 0.02},
	}
	if r.opts.Quick {
		rates = rates[:2]
	}
	cols := []string{"cache size"}
	for _, rt := range rates {
		cols = append(cols, rt.label+" threshold", rt.label+" BW gain")
	}
	t := &Table{
		Columns: cols,
		Notes:   "BW gain is measured on the full-size cache using the threshold each miniature cache chose; the paper samples down to 0.1% at 10M-vector scale",
	}
	for _, size := range r.env.cacheSizes(ti) {
		baseline := sim.ReplayBaseline(eval, shpL, size, nil)
		row := []string{itoa(size)}
		for _, rt := range rates {
			choice, err := sim.TuneThreshold(eval, sim.TunerConfig{
				Layout: shpL, Counts: counts, CacheVectors: size,
				SamplingRate: rt.rate, Thresholds: []uint32{5, 10, 20, 40, 80},
			})
			if err != nil {
				return nil, err
			}
			full := sim.Replay(eval, sim.Config{
				Layout: shpL, CacheVectors: size,
				Policy: cache.NewThresholdAdmit(counts, choice.Threshold, choice.DemandThreshold),
			})
			gain := paperGain(full, baseline)
			thLabel := itoa(int(choice.Threshold))
			if choice.Threshold == sim.DisablePrefetch {
				thLabel = "off"
			}
			row = append(row, thLabel, pct(gain))
		}
		t.AddRow(row...)
	}
	return t, nil
}
