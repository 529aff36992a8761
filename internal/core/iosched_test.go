package core

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bandana/internal/fp16"
	"bandana/internal/nvm"
	"bandana/internal/table"
)

// TestMissStormCoalescesToOneDeviceRead pins the end-to-end coalescing
// invariant through the full store: K goroutines missing the same vector
// concurrently cause exactly one device block read, and every caller gets
// the identical vector. A gated store makes the overlap deterministic: the
// first miss's read parks at the device, still pending, while the rest of
// the storm coalesces onto it.
func TestMissStormCoalescesToOneDeviceRead(t *testing.T) {
	const storm = 24
	tables, _ := buildTestTables(t, 1, 512, 10)
	gs := &gatedStore{MemStore: nvm.NewMemStore(64)}
	dev := nvm.NewDevice(nvm.DeviceConfig{NumBlocks: 64, Store: gs, Seed: 1})
	s, err := Open(Config{
		Tables:  tables,
		Device:  dev,
		Seed:    1,
		IOSched: IOSchedOptions{QueueDepth: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
		dev.Close()
	}()

	const id = 137
	paused, resume := make(chan struct{}), make(chan struct{})
	park := func() { close(paused); <-resume }
	gs.afterRead.Store(&park)

	vecs := make([][]float32, storm)
	errs := make([]error, storm)
	var wg sync.WaitGroup
	lookup := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vecs[i], errs[i] = s.Lookup(0, id)
		}()
	}
	lookup(0)
	<-paused // the first miss's block read is in flight and still pending
	for i := 1; i < storm; i++ {
		lookup(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ios, _ := s.IOSchedStats(); ios.Coalesced != storm-1; ios, _ = s.IOSchedStats() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d misses coalesced onto the in-flight read", ios.Coalesced, storm-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(resume)
	wg.Wait()

	for i := 0; i < storm; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !vecsEqual(vecs[i], vecs[0]) {
			t.Fatalf("caller %d received a different vector", i)
		}
	}
	if got := dev.Stats().BlocksRead; got != 1 {
		t.Fatalf("storm of %d misses caused %d device reads, want exactly 1", storm, got)
	}

	st := s.Stats()[0]
	if st.Lookups != storm || st.Misses != storm || st.Hits != 0 {
		t.Fatalf("counters lookups=%d misses=%d hits=%d, want %d/%d/0", st.Lookups, st.Misses, st.Hits, storm, storm)
	}
	if st.BlockReads != 1 || st.CoalescedReads != storm-1 {
		t.Fatalf("blockReads=%d coalescedReads=%d, want 1/%d", st.BlockReads, st.CoalescedReads, storm-1)
	}
	if ds := s.DeviceStats(); ds.CoalescedReads != storm-1 {
		t.Fatalf("device coalesced=%d, want %d", ds.CoalescedReads, storm-1)
	}
	ios, _ := s.IOSchedStats()
	if ios.DeviceReads != 1 || ios.Coalesced != storm-1 {
		t.Fatalf("iosched stats %+v", ios)
	}

	// The storm resolved, the vector is cached: the next lookup is a plain
	// hit and touches neither the scheduler nor the device.
	if _, err := s.Lookup(0, id); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().BlocksRead; got != 1 {
		t.Fatalf("cache hit read the device (%d reads)", got)
	}
}

// TestConcurrentColdBatchesMatchSequential: two goroutines serving disjoint
// cold 64-id batches on a file store — their misses issued at once — return
// the table's bytes and count the same block and coalesced reads as one
// goroutine serving the same batches in turn.
func TestConcurrentColdBatchesMatchSequential(t *testing.T) {
	const n, rounds = 32768, 4 // 1,024 blocks of 32 vectors
	tables, _ := buildTestTables(t, 1, n, 10)
	open := func(name string) *Store {
		s, err := Open(Config{
			Tables:            tables,
			DRAMBudgetVectors: 512,
			Seed:              1,
			Backend:           BackendFile,
			DataDir:           filepath.Join(t.TempDir(), name),
			Direct:            testDirect(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	// Batch k of side 0 takes one vector from each of 64 blocks of the
	// table's first half, side 1 the same from its second half (the layout
	// is untrained, so block = id/32): every batch reads its own blocks, and
	// neither side can hit or coalesce on what the other read.
	batch := func(side, k int) []uint32 {
		ids := make([]uint32, 64)
		for i := range ids {
			ids[i] = uint32(side*n/2 + (k*64+i)*32 + k)
		}
		return ids
	}
	check := func(ids []uint32, out [][]byte) {
		for i, id := range ids {
			want, err := tables[0].Raw(id)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(out[i], want) {
				t.Errorf("vector %d: wrong bytes", id)
				return
			}
		}
	}
	serve := func(s *Store, side, k int) {
		ids := batch(side, k)
		out, err := s.LookupBatchRaw(0, ids)
		if err != nil {
			t.Error(err)
			return
		}
		check(ids, out)
	}

	seq, conc := open("seq"), open("conc")
	for k := 0; k < rounds; k++ {
		serve(seq, 0, k)
		serve(seq, 1, k)
	}
	for k := 0; k < rounds; k++ {
		var wg sync.WaitGroup
		for side := 0; side < 2; side++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve(conc, side, k)
			}()
		}
		wg.Wait()
	}

	want, got := seq.Stats()[0], conc.Stats()[0]
	if got.Lookups != want.Lookups || got.Misses != want.Misses || got.BlockReads != want.BlockReads ||
		got.CoalescedReads != want.CoalescedReads || got.BlockReads != rounds*2*64 {
		t.Fatalf("concurrent %+v, sequential %+v: want the same %d block reads", got, want, rounds*2*64)
	}
	// Which reader served the misses follows the store's read path: a mapped
	// store reads in place and the scheduler never sees them; under O_DIRECT
	// the scheduler reads every block.
	ios, _ := conc.IOSchedStats()
	if ios.InFlight != 0 {
		t.Fatalf("scheduler after the rounds: %+v", ios)
	}
	if ds := conc.DeviceStats(); ds.Store.ReadPath == "mmap" {
		if ios.DemandReads != 0 || ds.BlocksRead != got.BlockReads {
			t.Fatalf("mapped store: scheduler %+v, device read %d blocks, store counted %d: want no scheduled read and every block read in place",
				ios, ds.BlocksRead, got.BlockReads)
		}
	} else if ios.DeviceReads != got.BlockReads {
		t.Fatalf("%s store: scheduler read %d blocks, store counted %d", ds.Store.ReadPath, ios.DeviceReads, got.BlockReads)
	}
}

// TestMissReaderFollowsReadPath pins which reader serves a miss on each
// backend, and what each leaves in the device's and the scheduler's stats:
// the mem backend and a buffered file store read their memory in place — no
// scheduled read, one device read batch per serving batch — and an O_DIRECT
// file store reads through the scheduler. No reader draws a modelled
// latency.
func TestMissReaderFollowsReadPath(t *testing.T) {
	const n = 8192 // 256 blocks of 32 vectors
	tables, _ := buildTestTables(t, 1, n, 10)
	legs := []struct {
		name     string
		cfg      Config
		readPath string
	}{
		{"mem", Config{}, ""},
		{"file", Config{Backend: BackendFile}, "mmap"},
		{"file-direct", Config{Backend: BackendFile, Direct: true}, "pread"},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			cfg := leg.cfg
			cfg.Tables, cfg.DRAMBudgetVectors, cfg.Seed = tables, 256, 1
			if cfg.Backend == BackendFile {
				cfg.DataDir = filepath.Join(t.TempDir(), "store")
				if cfg.Direct && !nvm.DirectIOSupported(t.TempDir()) {
					t.Skip("the filesystem rejects O_DIRECT")
				}
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if rp := s.DeviceStats().Store.ReadPath; rp != leg.readPath {
				t.Skipf("store reads by %q here, not %q", rp, leg.readPath)
			}
			// Eight cold batches, each one vector from each of 16 blocks no
			// earlier batch touched (the layout is untrained: block = id/32).
			const batches = 8
			for k := 0; k < batches; k++ {
				ids := make([]uint32, 16)
				for i := range ids {
					ids[i] = uint32((k*16+i)*32 + k)
				}
				out, err := s.LookupBatchRaw(0, ids)
				if err != nil {
					t.Fatal(err)
				}
				for i, id := range ids {
					if want, _ := tables[0].Raw(id); !bytes.Equal(out[i], want) {
						t.Fatalf("vector %d: wrong bytes", id)
					}
				}
			}
			st, ds := s.Stats()[0], s.DeviceStats()
			ios, _ := s.IOSchedStats()
			if st.BlockReads != batches*16 || ds.BlocksRead != st.BlockReads {
				t.Fatalf("store counted %d block reads, device %d: want %d each", st.BlockReads, ds.BlocksRead, batches*16)
			}
			if ds.ReadLatency.Count != 0 {
				t.Fatalf("the device drew %d modelled latencies on the serving path, want 0", ds.ReadLatency.Count)
			}
			if leg.readPath != "pread" {
				if ios.DemandReads != 0 || ios.Batches != 0 || ds.ReadBatches != batches {
					t.Fatalf("in-place reads: scheduler %+v, device %d batches: want 0 and %d", ios, ds.ReadBatches, batches)
				}
				if st.QueueWaitLatency.Count != 0 || st.Latency.Count != batches {
					t.Fatalf("in-place reads: %d queue-wait and %d device-service samples, want 0 and %d",
						st.QueueWaitLatency.Count, st.Latency.Count, batches)
				}
				return
			}
			if ios.DemandReads != st.BlockReads || ios.DeviceReads != st.BlockReads {
				t.Fatalf("scheduled reads: scheduler %+v, store counted %d block reads", ios, st.BlockReads)
			}
			if ds.ReadBatches != ios.Batches || st.Latency.Count != batches {
				t.Fatalf("device made %d read batches, scheduler %d device calls, store %d device-service samples: want one batch per call and %d samples",
					ds.ReadBatches, ios.Batches, st.Latency.Count, batches)
			}
		})
	}
}

// TestSchedulerOnOffEquivalence trains and serves the identical workload on
// four stores — {mem, file} x {one slot and one block per device call, eight
// of each} — and asserts they are indistinguishable: same vectors, same hit
// ratios, same counters. Single-threaded serving never coalesces, so the
// scheduler's depth must be invisible to everything but latency.
func TestSchedulerOnOffEquivalence(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 2048, 150)

	type variant struct {
		name string
		cfg  Config
	}
	variants := []variant{
		{"mem-qd1", Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 7,
			IOSched: IOSchedOptions{QueueDepth: 1}}},
		{"mem-qd8", Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 7,
			IOSched: IOSchedOptions{QueueDepth: 8}}},
		{"file-qd1", Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 7,
			Backend: BackendFile, DataDir: filepath.Join(t.TempDir(), "qd1"),
			IOSched: IOSchedOptions{QueueDepth: 1}}},
		{"file-qd8", Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 7,
			Backend: BackendFile, DataDir: filepath.Join(t.TempDir(), "qd8"),
			IOSched: IOSchedOptions{QueueDepth: 8}}},
	}

	stores := make([]*Store, len(variants))
	for i, v := range variants {
		s, err := Open(v.cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		defer s.Close()
		if _, err := s.Train(traces, TrainOptions{}); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		stores[i] = s
	}

	for ti, tr := range traces {
		for qi, q := range tr.Queries {
			if qi >= 60 {
				break
			}
			ref, err := stores[0].LookupBatch(ti, q)
			if err != nil {
				t.Fatal(err)
			}
			for vi := 1; vi < len(stores); vi++ {
				got, err := stores[vi].LookupBatch(ti, q)
				if err != nil {
					t.Fatalf("%s: %v", variants[vi].name, err)
				}
				for k := range ref {
					if !vecsEqual(ref[k], got[k]) {
						t.Fatalf("table %d query %d: %s returns different vector for id %d",
							ti, qi, variants[vi].name, q[k])
					}
				}
			}
		}
	}

	ref := stores[0].Stats()
	for vi := range stores {
		got := stores[vi].Stats()
		for i := range ref {
			if ref[i].Lookups != got[i].Lookups || ref[i].Hits != got[i].Hits ||
				ref[i].Misses != got[i].Misses || ref[i].BlockReads != got[i].BlockReads {
				t.Fatalf("table %s: %s counters diverge: %+v vs %+v",
					ref[i].Name, variants[vi].name, ref[i], got[i])
			}
			if ref[i].HitRate != got[i].HitRate {
				t.Fatalf("table %s: %s hit ratio %v != %v",
					ref[i].Name, variants[vi].name, got[i].HitRate, ref[i].HitRate)
			}
			if got[i].CoalescedReads != 0 {
				t.Fatalf("table %s: %s coalesced %d reads in single-threaded serving",
					ref[i].Name, variants[vi].name, got[i].CoalescedReads)
			}
		}
	}
}

// TestUpdateVectorVisibleWithScheduler: an update (a log append and an
// overlay put, never a device read) must be visible to the very next lookup,
// including under concurrent miss traffic on the same table — read in place
// or through the scheduler, as the backend has it.
func TestUpdateVectorVisibleWithScheduler(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 10)
	s, err := Open(testBackendConfig(t, Config{
		Tables:  tables,
		Seed:    3,
		IOSched: IOSchedOptions{QueueDepth: 8},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			id := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				id = (id*1664525 + 1013904223) % 1024
				if _, err := s.Lookup(0, id); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint32(w * 31))
	}

	vec := make([]float32, tables[0].Dim)
	for round := 0; round < 20; round++ {
		for i := range vec {
			vec[i] = float32(round*8+i) / 4 // fp16-exact
		}
		if err := s.UpdateVector(0, 500, vec); err != nil {
			t.Fatal(err)
		}
		got, err := s.Lookup(0, 500)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(got, vec) {
			t.Fatalf("round %d: update not visible: got %v want %v", round, got[:4], vec[:4])
		}
	}
	close(stop)
	wg.Wait()
}

// TestIOSchedConfigValidation: Open must reject nonsensical scheduler
// options instead of silently normalizing them.
func TestIOSchedConfigValidation(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 256, 5)
	for _, opts := range []IOSchedOptions{
		{QueueDepth: -4},
		{QueueDepth: 100000},
	} {
		if _, err := Open(Config{Tables: tables, Seed: 1, IOSched: opts}); err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
}

// TestLateStaleReadIsResubmittedOnce drives readBlocksMiss's freshness loop
// through the token scheduler: a miss attaches to a block read its owner is
// already issuing (Late), and an update moves the table's epoch past the
// owner's tag before the read completes. The follower must discard the
// shared bytes, re-submit — now as the block's own reader, under the current
// epoch — and return; it must not spin on the stale result or hang.
func TestLateStaleReadIsResubmittedOnce(t *testing.T) {
	const n, dim, owner, follower, other = 256, 64, 70, 71, 200 // 70 and 71 share a block
	tbl := table.New("v", n, dim)
	for i := uint32(0); i < n; i++ {
		if err := tbl.SetVector(i, versioned(dim, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	gs := &gatedStore{MemStore: nvm.NewMemStore(n * dim * fp16.ByteSize / nvm.BlockSize)}
	s, err := Open(Config{Tables: []*table.Table{tbl}, Device: nvm.NewDevice(nvm.DeviceConfig{Store: gs})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	paused, resume := make(chan struct{}), make(chan struct{})
	park := func() { close(paused); <-resume }
	gs.afterRead.Store(&park)
	lookup := func(id uint32, done chan<- error) {
		vec, err := s.Lookup(0, id)
		if err == nil {
			_, err = versionOf(vec, id)
		}
		done <- err
	}
	done := make(chan error, 2)
	go lookup(owner, done)
	<-paused // the owner holds the token; its block is read and still pending
	if err := s.UpdateVector(0, other, versioned(dim, other, 1)); err != nil {
		t.Fatal(err)
	}
	go lookup(follower, done)
	deadline := time.Now().Add(5 * time.Second)
	for st, _ := s.IOSchedStats(); st.CoalescedLate != 1; st, _ = s.IOSchedStats() {
		if time.Now().After(deadline) {
			t.Fatal("the second miss never attached to the in-flight read")
		}
		time.Sleep(time.Millisecond)
	}
	close(resume)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a lookup did not return: the re-submit loop did not terminate")
		}
	}
	if st, _ := s.IOSchedStats(); st.DeviceReads != 2 || st.Coalesced != 1 {
		t.Fatalf("%d device reads, %d coalesced: want the owner's read, one stale attach and one re-read", st.DeviceReads, st.Coalesced)
	}
}
