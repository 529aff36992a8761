package bandana_test

import (
	"math"
	"path/filepath"
	"testing"

	"bandana"
)

// TestGoldenQuickstartHitRatios pins the end-to-end policy behaviour of the
// quickstart scenario (examples/quickstart): two scaled-down tables, a 1200
// request synthetic workload, train on a 60% prefix and serve the 40%
// suffix. The trained hit ratios are the paper-relevant outcome of the whole
// pipeline — SHP placement, DRAM allocation, miniature-cache threshold
// tuning, prefetch and demand admission — so a silent change in any of those
// layers shows up here. Everything is seeded, so the expected values are exact
// today; the tolerance absorbs deliberate small reshuffles (e.g. sharded-LRU
// eviction order), not policy regressions.
//
// Golden values (seed 1, scale 0.001): baseline 0.54/0.48, trained
// 0.50/0.71 at 6667/10161 block reads (see the last move below). What the
// paper optimises is block reads, so they are pinned per table beside the hit
// ratios. The allocator gives table 1 340 vectors and table 2 860, and the
// tuner pins each table's hottest training ids, the whole cache's worth, on
// top of prefetch threshold 10 with demand threshold 22 on table 1 and
// prefetch threshold 22 with demand threshold 22 on table 2.
// Table 1 reads fewer blocks than untrained but hits less: it gave table 2
// DRAM, which saves more reads there than table 1 loses.
//
// Moved on purpose by ISSUE 24, from 0.46/0.29 at 6387/14972 (prefetch
// threshold 0 on both tables, which admitted so much of every block read
// that the hit ratios sat below the untrained baseline's):
//   - SHP splitting on block boundaries (the 10,000-vector tables cut at
//     n/2 ended in leaves of 19-20 vectors that the 32-vector blocks
//     straddled): 0.58/0.30 at 5846/14641, thresholds unchanged;
//   - the demand threshold, tuned at the 64-vector miniature floor:
//     0.64/0.30 at 5104/14641 (table 1 gated, none found for table 2);
//   - the miniature floor at 128 vectors, where the tuner finds table 2's
//     gate and drops its prefetching: 0.64/0.59 at 5099/13389.
//
// Moved on purpose when SHP began bisecting only the ids training named
// (1,281 and 1,646 of each table's 10,000) and giving the rest blocks of their
// own: 0.64/0.59 at 5134/13397 (+0.7%/+0.1% reads on this small held-out
// suffix; a variant without padding to whole blocks read 5088 on table 1),
// thresholds unchanged. The checks kept their 2% windows around
// 5099/13389, which held both.
//
// Moved on purpose when admitted prefetches began entering the queue
// mid-queue (cache.PrefetchPosition) and Train began splitting DRAM with
// adaptation's lookahead: 0.44/0.70 at 7328/10679, 18007 reads in all
// (−2.8% from 18531). The lookahead moves 260 vectors of DRAM from table 1 to
// table 2. The position alone, at the old 600/600 split, read 5119/14388
// (table 2 +7.4%), so the two ship together. The tuner then chose prefetch
// threshold 10 with demand threshold 22 on table 1 and prefetch threshold 22
// with demand threshold 22 on table 2.
//
// Moved on purpose when the miniature caches began choosing the pin verdict
// (the cache never evicts its allocation's worth of the hottest training
// ids, and the thresholds serve every other id in the room they leave),
// which both tables take over the same thresholds: 0.50/0.71 at 6667/10161,
// 16828 reads in all (−6.5% from 18007). The split is unchanged. The checks
// keep their windows.
//
// The goldens must hold bit-for-bit on both backends.
func TestGoldenQuickstartHitRatios(t *testing.T) {
	for _, backend := range []string{bandana.BackendMem, bandana.BackendFile} {
		t.Run(backend, func(t *testing.T) {
			runGoldenQuickstart(t, backend)
		})
	}
}

func runGoldenQuickstart(t *testing.T, backend string) {
	profiles := bandana.DefaultProfiles(0.001)[:2]
	workload := bandana.GenerateWorkload(profiles, 1200)
	tables := make([]*bandana.Table, len(profiles))
	for i, p := range profiles {
		g := bandana.GenerateTable(p.Name, bandana.TableGenerateOptions{
			NumVectors:  p.NumVectors,
			Dim:         64,
			NumClusters: p.NumVectors / 64,
			Seed:        int64(i),
			Assignments: workload.Communities[i],
		})
		tables[i] = g.Table
	}
	cfg := bandana.Config{Tables: tables, DRAMBudgetVectors: 1200, Seed: 1}
	if backend == bandana.BackendFile {
		cfg.Backend = bandana.BackendFile
		cfg.DataDir = filepath.Join(t.TempDir(), "store")
	}
	store, err := bandana.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	trains := make([]*bandana.Trace, len(workload.Traces))
	evals := make([]*bandana.Trace, len(workload.Traces))
	for i, tr := range workload.Traces {
		trains[i], evals[i] = tr.Split(0.6)
	}
	serve := func() []bandana.TableStats {
		store.ResetStats()
		for ti, tr := range evals {
			for _, q := range tr.Queries {
				if _, err := store.LookupBatch(ti, q); err != nil {
					t.Fatal(err)
				}
			}
		}
		return store.Stats()
	}

	const tol = 0.02
	checkHitRate := func(phase string, stats []bandana.TableStats, want []float64) {
		t.Helper()
		for i, w := range want {
			if got := stats[i].HitRate; math.Abs(got-w) > tol {
				t.Errorf("%s %s hit ratio = %.4f, want %.2f±%.2f", phase, stats[i].Name, got, w, tol)
			}
		}
	}

	baseline := serve()
	checkHitRate("baseline", baseline, []float64{0.54, 0.48})

	if _, err := store.Train(trains, bandana.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	trained := serve()
	checkHitRate("trained", trained, []float64{0.50, 0.71})

	// Training must actually pay off: fewer NVM block reads for the same
	// workload on every table (the paper's effective-bandwidth win), and the
	// count itself is a golden (same 2% slack as the hit ratios).
	for i, want := range []int64{6667, 10161} {
		if got := trained[i].BlockReads; math.Abs(float64(got-want)) > tol*float64(want) {
			t.Errorf("trained %s block reads = %d, want %d±%.0f%%", trained[i].Name, got, want, 100*tol)
		}
	}
	for i := range trained {
		if trained[i].BlockReads >= baseline[i].BlockReads {
			t.Errorf("table %s: block reads did not improve (%d -> %d)",
				trained[i].Name, baseline[i].BlockReads, trained[i].BlockReads)
		}
		if trained[i].Policy == "" {
			t.Errorf("table %s: training installed no admission policy", trained[i].Name)
		}
	}
}
