package iosched

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bandana/internal/nvm"
)

// countingStore wraps a MemStore and counts every read that reaches the
// backing store — the ground truth for coalescing assertions.
type countingStore struct {
	*nvm.MemStore
	readCalls  atomic.Int64
	blocksRead atomic.Int64
}

func (s *countingStore) ReadBlock(idx int, dst []byte) error {
	s.readCalls.Add(1)
	s.blocksRead.Add(1)
	return s.MemStore.ReadBlock(idx, dst)
}

func (s *countingStore) ReadBlocks(idxs []int, dst []byte) error {
	s.readCalls.Add(1)
	s.blocksRead.Add(int64(len(idxs)))
	return s.MemStore.ReadBlocks(idxs, dst)
}

// newCountingStore returns a counting store whose blocks hold a distinct
// pattern per block index.
func newCountingStore(t *testing.T, numBlocks int) *countingStore {
	t.Helper()
	cs := &countingStore{MemStore: nvm.NewMemStore(numBlocks)}
	for b := 0; b < numBlocks; b++ {
		if err := cs.MemStore.WriteBlock(b, blockPattern(b)); err != nil {
			t.Fatal(err)
		}
	}
	return cs
}

// newTestDevice builds a device over a new counting store.
func newTestDevice(t *testing.T, numBlocks int) (*nvm.Device, *countingStore) {
	t.Helper()
	cs := newCountingStore(t, numBlocks)
	dev := nvm.NewDevice(nvm.DeviceConfig{NumBlocks: numBlocks, Store: cs, Seed: 1})
	t.Cleanup(func() { dev.Close() })
	return dev, cs
}

func blockPattern(b int) []byte {
	buf := make([]byte, nvm.BlockSize)
	for i := range buf {
		buf[i] = byte(b*31 + i)
	}
	return buf
}

func mustNew(t *testing.T, dev *nvm.Device, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestMissStormCoalescesToOneRead pins the coalescing invariant: K
// concurrent reads of one block cause exactly one backing-store read, and
// every caller receives byte-identical data. The issue gate holds the
// leader's read at the device so the other K-1 readers deterministically
// attach to the in-flight read.
func TestMissStormCoalescesToOneRead(t *testing.T) {
	const storm = 16
	dev, cs := newTestDevice(t, 64)
	gateReached := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	cfg := Config{QueueDepth: 4}.WithGate(func([]int) {
		gateOnce.Do(func() {
			close(gateReached)
			<-release
		})
	})
	s := mustNew(t, dev, cfg)

	type result struct {
		res ReadResult
		buf []byte
		err error
	}
	results := make(chan result, storm)
	read := func(tag uint64) {
		buf := make([]byte, nvm.BlockSize)
		res, err := s.ReadBlock(7, buf, Demand, tag)
		results <- result{res, buf, err}
	}

	go read(42) // leader
	<-gateReached
	// The leader holds a slot and its read is (as far as the scheduler is
	// concerned) in flight. The rest of the storm arrives now.
	for i := 1; i < storm; i++ {
		go read(99)
	}
	waitFor(t, "storm to coalesce", func() bool {
		return s.Stats().Coalesced == storm-1
	})
	close(release)

	want := blockPattern(7)
	var coalesced, late int
	for i := 0; i < storm; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !bytes.Equal(r.buf, want) {
			t.Fatalf("reader %d got wrong bytes", i)
		}
		if r.res.Coalesced {
			coalesced++
		}
		if r.res.Late {
			late++
		}
		// Every result reports the tag of the read that touched the device
		// — the leader's — which is what lets callers verify freshness of
		// Late-coalesced bytes against their own version counter.
		if r.res.LeaderTag != 42 {
			t.Fatalf("reader %d: leader tag %d, want 42", i, r.res.LeaderTag)
		}
	}
	if got := cs.blocksRead.Load(); got != 1 {
		t.Fatalf("storm of %d caused %d device reads, want exactly 1", storm, got)
	}
	if coalesced != storm-1 || late != storm-1 {
		t.Fatalf("coalesced=%d late=%d, want %d each", coalesced, late, storm-1)
	}
	st := s.Stats()
	if st.DeviceReads != 1 || st.Coalesced != storm-1 || st.CoalescedLate != storm-1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestQueuedCoalescing covers the other attach path: readers that arrive
// while the shared op's call still waits for a slot are not marked Late, and
// still share one device read.
func TestQueuedCoalescing(t *testing.T) {
	const storm = 8
	dev, cs := newTestDevice(t, 64)
	cfg, log := holdFirstRead(Config{QueueDepth: 1})
	s := mustNew(t, dev, cfg)

	var held sync.WaitGroup
	readAsync(t, &held, s, Demand, 0) // holds the only slot at the gate
	<-log.reached
	var wg sync.WaitGroup
	var lateCount atomic.Int64
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, nvm.BlockSize)
			res, err := s.ReadBlock(9, buf, Demand, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, blockPattern(9)) {
				t.Error("wrong bytes")
			}
			if res.Late {
				lateCount.Add(1)
			}
		}()
	}
	waitFor(t, "storm to coalesce", func() bool { return s.Stats().Coalesced == storm-1 })
	close(log.release)
	wg.Wait()
	held.Wait()
	if got := cs.blocksRead.Load(); got != 2 {
		t.Fatalf("%d device reads, want block 0's and one of block 9", got)
	}
	if lateCount.Load() != 0 {
		t.Fatalf("%d readers marked Late; coalescing onto a waiting call should attach before issue", lateCount.Load())
	}
}

// TestAccumulationBatchesConcurrentReads: distinct-block reads from
// concurrent callers overlap at the device, as many at once as there are
// slots and no more.
func TestAccumulationBatchesConcurrentReads(t *testing.T) {
	const slots, callers = 4, 6
	dev, ms := newMeetDevice(t, 64, slots)
	s := mustNew(t, dev, Config{QueueDepth: slots})
	var wg sync.WaitGroup
	for b := 0; b < callers; b++ {
		readAsync(t, &wg, s, Demand, b)
	}
	wg.Wait()
	select {
	case <-ms.met:
	default:
		t.Fatalf("%d concurrent reads were never in flight together", slots)
	}
	st := s.Stats()
	if st.MaxInFlight != slots || st.Batches != callers || st.MaxBatchSize != 1 {
		t.Fatalf("stats %+v, want %d one-block device calls, %d in flight at most", st, callers, slots)
	}
	if got := dev.Stats().MaxQueueDepth; got != slots {
		t.Fatalf("device queue depth peaked at %d, want %d", got, slots)
	}
}

// TestLowLoadDispatchesImmediately: with no window, an isolated read is not
// parked waiting for a batch that will never fill.
func TestLowLoadDispatchesImmediately(t *testing.T) {
	dev, _ := newTestDevice(t, 16)
	s := mustNew(t, dev, Config{QueueDepth: 32})
	start := time.Now()
	buf := make([]byte, nvm.BlockSize)
	res, err := s.ReadBlock(5, buf, Demand, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("isolated read took %s", elapsed)
	}
	if res.Coalesced || res.Late {
		t.Fatalf("isolated read reported %+v", res)
	}
	if !bytes.Equal(buf, blockPattern(5)) {
		t.Fatal("wrong bytes")
	}
}

// TestErrorIsolation: one bad block in a device call must fail only its own
// read; the reads issued with it — and their followers from other calls —
// still succeed with correct data.
func TestErrorIsolation(t *testing.T) {
	dev, _ := newTestDevice(t, 8)
	cfg, log := holdFirstRead(Config{QueueDepth: 4})
	s := mustNew(t, dev, cfg)
	owner := make(chan error, 1)
	ownerDst := make([]byte, 4*nvm.BlockSize)
	go func() {
		_, err := s.ReadBlocks([]int{1, 2, 999, 3}, ownerDst, Demand, 0) // 999 is out of range
		owner <- err
	}()
	<-log.reached
	type result struct {
		block int
		buf   []byte
		err   error
	}
	results := make(chan result, 3)
	for _, b := range []int{1, 2, 3} {
		go func(b int) {
			buf := make([]byte, nvm.BlockSize)
			_, err := s.ReadBlock(b, buf, Demand, 0)
			results <- result{b, buf, err}
		}(b)
	}
	waitFor(t, "followers attached", func() bool { return s.Stats().Coalesced == 3 })
	close(log.release)
	if err := <-owner; err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	checkBlocks(t, []int{1, 2}, ownerDst)
	checkBlocks(t, []int{3}, ownerDst[3*nvm.BlockSize:])
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("block %d poisoned by a bad read in its device call: %v", r.block, r.err)
		}
		if !bytes.Equal(r.buf, blockPattern(r.block)) {
			t.Fatalf("block %d: wrong bytes", r.block)
		}
	}
}

// TestReadBlocksMulti: the multi-block submit path returns every block's
// bytes and per-read results.
func TestReadBlocksMulti(t *testing.T) {
	dev, _ := newTestDevice(t, 32)
	s := mustNew(t, dev, Config{QueueDepth: 8})
	blocks := []int{3, 17, 4, 28, 9}
	dst := make([]byte, len(blocks)*nvm.BlockSize)
	results, err := s.ReadBlocks(blocks, dst, Demand, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(blocks) {
		t.Fatalf("%d results for %d blocks", len(results), len(blocks))
	}
	for i, b := range blocks {
		if !bytes.Equal(dst[i*nvm.BlockSize:(i+1)*nvm.BlockSize], blockPattern(b)) {
			t.Fatalf("block %d: wrong bytes", b)
		}
	}
}

// TestWaitServiceDecomposition pins the queue-wait vs device-service split:
// every completed read reports a non-negative WaitUS, the scheduler's stats
// expose matching QueueWait/Service histograms whose counts reconcile with
// the dispatch counters, and a device call's service sample is its wall
// time — the device draws no modelled latency for it.
func TestWaitServiceDecomposition(t *testing.T) {
	dev, _ := newTestDevice(t, 32)
	s := mustNew(t, dev, Config{QueueDepth: 4})
	blocks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]byte, len(blocks)*nvm.BlockSize)
	start := time.Now()
	results, err := s.ReadBlocks(blocks, dst, Demand, 0)
	wall := float64(time.Since(start)) / float64(time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.WaitUS < 0 {
			t.Fatalf("read %d: negative WaitUS %g", i, r.WaitUS)
		}
	}
	if n := dev.Stats().ReadLatency.Count; n != 0 {
		t.Fatalf("the device drew %d modelled latencies for scheduled reads, want 0", n)
	}
	st := s.Stats()
	if st.Service.Count > 0 && st.Service.Mean*float64(st.Service.Count) > wall {
		t.Fatalf("device calls' service sums to %.1f us inside a %.1f us call: not wall time", st.Service.Mean*float64(st.Service.Count), wall)
	}
	if st.QueueWait.Count != int64(len(blocks)) {
		t.Fatalf("QueueWait count = %d, want %d", st.QueueWait.Count, len(blocks))
	}
	if st.Service.Count != st.Batches {
		t.Fatalf("Service count = %d, batches = %d", st.Service.Count, st.Batches)
	}
	if st.Service.Count != 2 {
		t.Fatalf("8 blocks at depth 4: %d service samples, want one per device call (2)", st.Service.Count)
	}
}

// TestCloseDrainsAndRejects: Close completes every accepted read, including
// those still waiting for a slot, then rejects new submissions; it is
// idempotent.
func TestCloseDrainsAndRejects(t *testing.T) {
	dev, _ := newTestDevice(t, 16)
	cfg, log := holdFirstRead(Config{QueueDepth: 1})
	s, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for b := 0; b < 8; b++ {
		readAsync(t, &wg, s, Demand, b)
	}
	<-log.reached
	waitFor(t, "seven reads waiting", func() bool { return s.Stats().QueuedNow == 7 })
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, "scheduler closed", func() bool {
		_, err := s.ReadBlocks(nil, nil, Demand, 0)
		return errors.Is(err, ErrClosed)
	})
	close(log.release)
	wg.Wait() // readAsync fails the test on any error: every accepted read completed
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, nvm.BlockSize)
	if _, err := s.ReadBlock(1, buf, Demand, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close read: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidation rejects nonsensical configurations.
func TestConfigValidation(t *testing.T) {
	dev, _ := newTestDevice(t, 8)
	for _, cfg := range []Config{
		{QueueDepth: -1},
		{QueueDepth: MaxTargetQueueDepth + 1},
	} {
		if _, err := New(dev, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil device accepted")
	}
	s := mustNew(t, dev, Config{})
	if got := s.Config().QueueDepth; got != DefaultQueueDepth {
		t.Fatalf("default queue depth %d", got)
	}
	buf := make([]byte, nvm.BlockSize)
	if _, err := s.ReadBlock(0, buf, Priority(99), 0); err == nil {
		t.Fatal("invalid priority accepted")
	}
	if _, err := s.ReadBlock(0, buf[:10], Demand, 0); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// TestConcurrentStress exercises the scheduler under -race: mixed
// priorities, overlapping blocks, more callers than slots, concurrent Stats.
func TestConcurrentStress(t *testing.T) {
	dev, _ := newTestDevice(t, 32)
	s := mustNew(t, dev, Config{QueueDepth: 4})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, nvm.BlockSize)
			for i := 0; i < 200; i++ {
				b := rng.Intn(32)
				pri := Demand
				if rng.Intn(4) == 0 {
					pri = Prefetch
				}
				if _, err := s.ReadBlock(b, buf, pri, 0); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, blockPattern(b)) {
					t.Errorf("block %d: wrong bytes", b)
					return
				}
			}
		}(int64(w))
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s.Stats()
			}
		}
	}()
	wg.Wait()
	close(stop)
	st := s.Stats()
	if st.DemandReads+st.PrefetchReads != 16*200 {
		t.Fatalf("submitted %d+%d, want %d", st.DemandReads, st.PrefetchReads, 16*200)
	}
	if st.DeviceReads+st.Coalesced != 16*200 {
		t.Fatalf("device %d + coalesced %d != %d", st.DeviceReads, st.Coalesced, 16*200)
	}
	if st.InFlight != 0 || st.QueuedNow != 0 || st.MaxInFlight > 4 {
		t.Fatalf("after the storm: %+v, want nothing held or queued and at most 4 slots ever held", st)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
