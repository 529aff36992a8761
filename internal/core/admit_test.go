package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/sim"
	"bandana/internal/trace"
)

// admitBitsMismatch checks every table's published state. A table with
// prefetching on or a demand gate must hold admission bits, and they must
// be, at every layout position p, the verdicts of the reference
// cache.ThresholdAdmit over counts(st) at the table's thresholds — or its pin
// verdict over the cache's worth of the hottest ids — for VectorAt(p); a
// table with neither must hold none. It also returns how many
// prefetch and probation bits are set, so a caller can tell a vacuous check.
func admitBitsMismatch(s *Store, counts func(st *storeTable) []uint32) (prefetch, probation int, err error) {
	for _, st := range s.tables {
		ts := st.loadState()
		if decides := ts.prefetch || ts.demandThreshold > 0; decides != (ts.admit != nil) {
			return 0, 0, fmt.Errorf("table %q: prefetch %v, demand threshold %d, admission bits %v",
				st.name, ts.prefetch, ts.demandThreshold, ts.admit != nil)
		}
		if ts.admit == nil {
			continue
		}
		c := counts(st)
		if c == nil {
			return 0, 0, fmt.Errorf("table %q: no reference counts", st.name)
		}
		var ref cache.AdmissionPolicy = cache.ThresholdAdmit{
			Counts: c, Threshold: ts.threshold, DemandThreshold: ts.demandThreshold, Position: ts.admit.position,
		}
		probationBit := func(p int) bool { return bit(ts.admit.probation, p) }
		if ts.admit.pinned != nil {
			// The pin verdict: the cache's worth of the hottest ids, over the
			// thresholds.
			hottest := cache.HottestIDs(c, ts.cacheCap, nil)
			pin := cache.NewPinnedAdmit(ref.(cache.ThresholdAdmit), hottest)
			if !slices.Equal(ts.admit.pinnedIDs(), hottest) {
				return 0, 0, fmt.Errorf("table %q: pinned, not the cache's worth of the hottest ids", st.name)
			}
			ref = pin
		}
		for p := range ts.layout.NumVectors() {
			id := ts.layout.VectorAt(p)
			admit, _ := ref.AdmitPrefetch(id)
			cold := ref.DemandPosition(id) > 0
			if bit(ts.admit.prefetch, p) != admit || probationBit(p) != cold {
				return 0, 0, fmt.Errorf("table %q position %d (id %d): bits say prefetch %v probation %v, the reference %v %v",
					st.name, p, id, bit(ts.admit.prefetch, p), probationBit(p), admit, cold)
			}
			if admit {
				prefetch++
			}
			if cold {
				probation++
			}
		}
	}
	return prefetch, probation, nil
}

// TestAdmitBitsFollowEveryPublish holds the compiled admission bits to the
// policy they were compiled from after every way a table's state is
// published — Train, an AdaptNow that re-lays a table out, a forced demand
// threshold, an installed gated ThresholdAdmit, LoadState and a reopen — and
// inside every layout install, right after the new layout is published: a
// re-layout moves the bits with their vectors and keeps the policy.
func TestAdmitBitsFollowEveryPublish(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 2048, 600)
	trains := make([]*trace.Trace, len(traces))
	evals := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		trains[i], evals[i] = tr.Split(0.5)
	}
	dir := filepath.Join(t.TempDir(), "store")
	cfg := Config{Tables: tables, DRAMBudgetVectors: 400, Seed: 1, Backend: BackendFile, DataDir: dir, Direct: testDirect()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	var installs int
	var installErr error
	migrationCrashHook = func(stage string) {
		if stage != "installed" {
			return
		}
		installs++
		if _, _, err := admitBitsMismatch(s, countsOf); err != nil && installErr == nil {
			installErr = fmt.Errorf("at install %d: %w", installs, err)
		}
	}
	defer func() { migrationCrashHook = nil }()

	var prefetchBits, probationBits int
	counts := countsOf
	check := func(after string) {
		t.Helper()
		if installErr != nil {
			t.Fatalf("%s: %v", after, installErr)
		}
		pre, prob, err := admitBitsMismatch(s, counts)
		if err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		prefetchBits += pre
		probationBits += prob
	}
	check("Open")

	if _, err := s.Train(trains, TrainOptions{SHPIterations: 6, MiniCacheSampling: 0.5}); err != nil {
		t.Fatal(err)
	}
	// The reference policies are built from the test's own training counts.
	for i, st := range s.tables {
		if !slices.Equal(countsOf(st), trains[i].AccessCounts()) {
			t.Fatalf("table %q: threshold policy compiled from counts other than its training trace's", st.name)
		}
	}
	check("Train")

	if err := s.StartAdaptation(AdaptOptions{
		MinQueries: 16, RelayoutEvery: 1, RelayoutMinGain: 0.01, SHPIterations: 8,
	}); err != nil {
		t.Fatal(err)
	}
	servePhase(t, s, evals, 0, len(evals[0].Queries))
	before := installs
	rep, err := s.AdaptNow()
	if err != nil {
		t.Fatal(err)
	}
	s.StopAdaptation()
	relaidOut := 0
	for _, tr := range rep.Tables {
		if tr.Relayout {
			relaidOut++
		}
	}
	if relaidOut == 0 || installs-before != relaidOut {
		t.Fatalf("AdaptNow re-laid out %d tables over %d installs: the test exercises no re-layout", relaidOut, installs-before)
	}
	check("AdaptNow")

	// Gate table 1 so the saved state, hence LoadState and the reopen,
	// carries a demand threshold.
	forceDemandThreshold(s.tables[1], 3)
	check("a forced demand threshold")
	var saved bytes.Buffer
	if err := s.SaveState(&saved); err != nil {
		t.Fatal(err)
	}

	trained := countsOf(s.tables[0])
	installThreshold(s.tables[0], cache.ThresholdAdmit{
		Counts:          trained,
		Threshold:       sim.AdaptiveThresholds(trained)[1],
		DemandThreshold: sim.DemandThresholds(trained, 256)[0],
		Position:        0.5,
	})
	check("an installed gated policy")

	if err := s.LoadState(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	check("LoadState")

	// The reopened tables are new: their references are the closed ones'.
	byName := make(map[string][]uint32)
	for _, st := range s.tables {
		byName[st.name] = countsOf(st)
	}
	counts = func(st *storeTable) []uint32 { return byName[st.name] }
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(Config{Backend: BackendFile, DataDir: dir, Seed: 1, Direct: testDirect()}); err != nil {
		t.Fatal(err)
	}
	check("reopen")

	t.Logf("%d layout installs checked; %d prefetch and %d probation bits set over every check", installs, prefetchBits, probationBits)
	if prefetchBits == 0 || probationBits == 0 {
		t.Fatalf("vacuous: %d prefetch and %d probation bits set over every check", prefetchBits, probationBits)
	}
}
