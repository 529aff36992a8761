// Package synth builds the synthetic embedding tables + workload used by
// the demo binaries (bandana-server, bandana init) and by the benchmark
// harness (bench/), which stands up every set-up from it. It exists so that
// all of them generate bit-identical tables for identical options —
// `bandana init --data-dir X` followed by `bandana-server --backend file
// --data-dir X` must serve exactly the vectors that were ingested. The
// experiments (internal/experiments) draw their workload from the same
// generator, trace.GenerateWorkload, and build their tables lazily.
//
// Tables are built in parallel: each table's trace and then its vectors are
// one job, with at most runtime.GOMAXPROCS(0) jobs at once. Every table and
// every trace profile has its own seeded source, so the output is
// bit-identical per seed whatever the number of cores
// (TestBuildWorkloadGolden pins it).
package synth

import (
	"bandana/internal/table"
	"bandana/internal/trace"
)

// Options configures synthetic workload construction beyond the basic
// Build parameters.
type Options struct {
	Scale     float64
	NumTables int
	Seed      int64
	Requests  int
	// DriftRotateEvery > 0 enables the hot-set-rotation drift workload:
	// every table's hot communities rotate after that many requests (see
	// trace.DriftProfiles). 0 keeps the stationary workload.
	DriftRotateEvery int
}

// Build generates numTables scaled-down versions of the paper's Table 1
// profiles plus a shared training workload of the given request count.
// Table geometry is aligned with the workload's co-access communities so
// that SHP has signal to find. numTables is clamped to [1, 8].
func Build(scale float64, numTables int, seed int64, requests int) ([]*table.Table, *trace.Workload) {
	return BuildWorkload(Options{Scale: scale, NumTables: numTables, Seed: seed, Requests: requests})
}

// BuildWorkload is Build with the full option set (drift, etc.). Identical
// options produce bit-identical tables and traces across processes.
func BuildWorkload(opts Options) ([]*table.Table, *trace.Workload) {
	numTables := opts.NumTables
	if numTables < 1 {
		numTables = 1
	}
	if numTables > 8 {
		numTables = 8
	}
	profiles := trace.DefaultProfiles(opts.Scale)[:numTables]
	if opts.DriftRotateEvery > 0 {
		profiles = trace.DriftProfiles(opts.Scale, opts.DriftRotateEvery)[:numTables]
	}
	seed := opts.Seed
	requests := opts.Requests
	for i := range profiles {
		profiles[i].Seed += seed * 100
	}
	tables := make([]*table.Table, len(profiles))
	workload := trace.GenerateWorkloadThen(profiles, requests, func(w *trace.Workload, i int) {
		p := profiles[i]
		tables[i] = table.Generate(p.Name, table.GenerateOptions{
			NumVectors:  p.NumVectors,
			Dim:         64,
			NumClusters: p.NumVectors / trace.DefaultCommunitySize,
			Seed:        seed + int64(i),
			Assignments: w.Communities[i],
		}).Table
	})
	return tables, workload
}
