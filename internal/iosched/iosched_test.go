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

// newTestDevice builds a device over a counting store whose blocks hold a
// distinct pattern per block index.
func newTestDevice(t *testing.T, numBlocks int) (*nvm.Device, *countingStore) {
	t.Helper()
	cs := &countingStore{MemStore: nvm.NewMemStore(numBlocks)}
	for b := 0; b < numBlocks; b++ {
		if err := cs.MemStore.WriteBlock(b, blockPattern(b)); err != nil {
			t.Fatal(err)
		}
	}
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
// every caller receives byte-identical data. The dispatch gate holds the
// leader's batch at the device so the other K-1 readers deterministically
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
	// The leader's batch is assembled and (as far as the scheduler is
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
// while the shared op is still queued (inside the accumulation window) are
// not marked Late, and still share one device read.
func TestQueuedCoalescing(t *testing.T) {
	const storm = 8
	dev, cs := newTestDevice(t, 64)
	// Target depth far above what one block can supply, with a long window:
	// the lone queued op waits, the storm coalesces onto it, one read.
	s := mustNew(t, dev, Config{QueueDepth: 64, Window: 300 * time.Millisecond})

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
	wg.Wait()
	if got := cs.blocksRead.Load(); got != 1 {
		t.Fatalf("%d device reads, want 1", got)
	}
	if lateCount.Load() != 0 {
		t.Fatalf("%d readers marked Late; window coalescing should attach before issue", lateCount.Load())
	}
}

// TestDemandDispatchedBeforePrefetch pins the priority invariant: when
// demand and prefetch reads are queued together, every demand read is
// dispatched in an earlier-or-equal batch than every prefetch read.
func TestDemandDispatchedBeforePrefetch(t *testing.T) {
	dev, _ := newTestDevice(t, 64)

	var mu sync.Mutex
	var dispatched [][]int
	gateReached := make(chan struct{})
	release := make(chan struct{})
	first := true
	cfg := Config{QueueDepth: 2}.WithGate(func(blocks []int) {
		mu.Lock()
		hold := first
		first = false
		dispatched = append(dispatched, append([]int(nil), blocks...))
		mu.Unlock()
		if hold {
			close(gateReached)
			<-release
		}
	})
	s := mustNew(t, dev, cfg)

	var wg sync.WaitGroup
	readAsync := func(block int, pri Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, nvm.BlockSize)
			if _, err := s.ReadBlock(block, buf, pri, 0); err != nil {
				t.Error(err)
			}
		}()
	}

	readAsync(0, Demand) // occupies the dispatcher at the gate
	<-gateReached
	// Enqueue prefetch traffic first, then demand: dispatch order must
	// still put the demand blocks first.
	for _, b := range []int{10, 11, 12, 13} {
		readAsync(b, Prefetch)
	}
	for _, b := range []int{20, 21} {
		readAsync(b, Demand)
	}
	waitFor(t, "six reads queued", func() bool { return s.Stats().QueuedNow == 6 })
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	batchOf := map[int]int{}
	for i, batch := range dispatched {
		for _, b := range batch {
			batchOf[b] = i
		}
	}
	for _, demand := range []int{20, 21} {
		for _, prefetch := range []int{10, 11, 12, 13} {
			if batchOf[demand] > batchOf[prefetch] {
				t.Fatalf("demand block %d dispatched in batch %d after prefetch block %d (batch %d); order: %v",
					demand, batchOf[demand], prefetch, batchOf[prefetch], dispatched)
			}
		}
	}
}

// TestPrefetchStarvationBounded: a background read passed over by many
// consecutive demand-full dispatches must still complete within the aging
// bound — update()'s read-modify-write awaits one of these while holding
// updateMu, so "deferred" has to mean bounded.
func TestPrefetchStarvationBounded(t *testing.T) {
	dev, _ := newTestDevice(t, 64)
	var mu sync.Mutex
	var dispatched [][]int
	gateReached := make(chan struct{})
	release := make(chan struct{})
	first := true
	cfg := Config{QueueDepth: 1}.WithGate(func(blocks []int) {
		mu.Lock()
		hold := first
		first = false
		dispatched = append(dispatched, append([]int(nil), blocks...))
		mu.Unlock()
		if hold {
			close(gateReached)
			<-release
		}
	})
	s := mustNew(t, dev, cfg)

	var wg sync.WaitGroup
	readAsync := func(block int, pri Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, nvm.BlockSize)
			if _, err := s.ReadBlock(block, buf, pri, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	readAsync(0, Demand) // parks the dispatcher at the gate
	<-gateReached
	readAsync(50, Prefetch) // the background read under test
	waitFor(t, "prefetch queued", func() bool { return s.Stats().PrefetchReads == 1 })
	// A wall of demand reads that, without aging, would all dispatch first.
	for b := 1; b <= 3*prefetchStarvationSkips; b++ {
		readAsync(b, Demand)
	}
	waitFor(t, "wall queued", func() bool { return s.Stats().QueuedNow == 3*prefetchStarvationSkips+1 })
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, batch := range dispatched {
		if batch[0] == 50 {
			pos = i
			break
		}
	}
	if pos == -1 {
		t.Fatalf("prefetch read never dispatched: %v", dispatched)
	}
	if pos > prefetchStarvationSkips+2 {
		t.Fatalf("prefetch read starved for %d dispatches (bound %d): %v", pos, prefetchStarvationSkips, dispatched)
	}
}

// TestCoalescePromotesPriority: a demand read coalescing onto a queued
// prefetch read promotes the shared op into the demand queue.
func TestCoalescePromotesPriority(t *testing.T) {
	dev, _ := newTestDevice(t, 64)
	var mu sync.Mutex
	var dispatched [][]int
	gateReached := make(chan struct{})
	release := make(chan struct{})
	first := true
	cfg := Config{QueueDepth: 1}.WithGate(func(blocks []int) {
		mu.Lock()
		hold := first
		first = false
		dispatched = append(dispatched, append([]int(nil), blocks...))
		mu.Unlock()
		if hold {
			close(gateReached)
			<-release
		}
	})
	s := mustNew(t, dev, cfg)

	var wg sync.WaitGroup
	readAsync := func(block int, pri Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, nvm.BlockSize)
			if _, err := s.ReadBlock(block, buf, pri, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	readAsync(0, Demand)
	<-gateReached
	readAsync(30, Prefetch) // queued at prefetch priority
	waitFor(t, "prefetch read queued", func() bool { return s.Stats().PrefetchReads == 1 && s.Stats().QueuedNow == 1 })
	readAsync(31, Prefetch) // competing prefetch read, queued after 30
	readAsync(30, Demand)   // coalesces onto 30 and must promote it
	waitFor(t, "coalesce", func() bool { return s.Stats().Coalesced == 1 })
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	// With QueueDepth 1 each batch is one block: 30 must come before 31.
	pos := map[int]int{}
	for i, batch := range dispatched {
		pos[batch[0]] = i
	}
	if pos[30] > pos[31] {
		t.Fatalf("promoted block 30 dispatched after prefetch block 31: %v", dispatched)
	}
}

// TestAccumulationBatchesConcurrentReads: distinct-block reads arriving
// within the window are dispatched as one device batch at the target depth.
func TestAccumulationBatchesConcurrentReads(t *testing.T) {
	dev, cs := newTestDevice(t, 64)
	s := mustNew(t, dev, Config{QueueDepth: 4, Window: 300 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			buf := make([]byte, nvm.BlockSize)
			if _, err := s.ReadBlock(b, buf, Demand, 0); err != nil {
				t.Error(err)
			} else if !bytes.Equal(buf, blockPattern(b)) {
				t.Errorf("block %d: wrong bytes", b)
			}
		}(i)
	}
	wg.Wait()
	if got := cs.readCalls.Load(); got != 1 {
		t.Fatalf("4 concurrent reads used %d device dispatches, want 1 batch", got)
	}
	st := s.Stats()
	if st.Batches != 1 || st.MaxBatchSize != 4 || st.AvgBatchSize != 4 {
		t.Fatalf("stats %+v, want one batch of 4", st)
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

// TestErrorIsolation: one bad block in a batch must fail only its own read;
// reads batched with it still succeed with correct data.
func TestErrorIsolation(t *testing.T) {
	dev, _ := newTestDevice(t, 8)
	s := mustNew(t, dev, Config{QueueDepth: 4, Window: 300 * time.Millisecond})
	type result struct {
		block int
		buf   []byte
		err   error
	}
	results := make(chan result, 4)
	for _, b := range []int{1, 2, 999, 3} { // 999 is out of range
		go func(b int) {
			buf := make([]byte, nvm.BlockSize)
			_, err := s.ReadBlock(b, buf, Demand, 0)
			results <- result{b, buf, err}
		}(b)
	}
	for i := 0; i < 4; i++ {
		r := <-results
		if r.block == 999 {
			if r.err == nil {
				t.Fatal("out-of-range read succeeded")
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("block %d poisoned by batched bad read: %v", r.block, r.err)
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
// every completed read reports a non-negative WaitUS and a positive
// LatencyUS, and the scheduler's stats expose matching QueueWait/Service
// histograms whose counts reconcile with the dispatch counters.
func TestWaitServiceDecomposition(t *testing.T) {
	dev, _ := newTestDevice(t, 32)
	s := mustNew(t, dev, Config{QueueDepth: 4})
	blocks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]byte, len(blocks)*nvm.BlockSize)
	results, err := s.ReadBlocks(blocks, dst, Demand, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.WaitUS < 0 {
			t.Fatalf("read %d: negative WaitUS %g", i, r.WaitUS)
		}
		if r.LatencyUS <= 0 {
			t.Fatalf("read %d: service latency %g, want > 0", i, r.LatencyUS)
		}
	}
	st := s.Stats()
	if st.QueueWait.Count != int64(len(blocks)) {
		t.Fatalf("QueueWait count = %d, want %d", st.QueueWait.Count, len(blocks))
	}
	if st.Service.Count != st.Batches {
		t.Fatalf("Service count = %d, batches = %d", st.Service.Count, st.Batches)
	}
	if st.Service.Mean <= 0 {
		t.Fatalf("Service mean = %g, want > 0", st.Service.Mean)
	}
}

// TestCloseDrainsAndRejects: Close completes queued reads, then rejects new
// submissions; it is idempotent.
func TestCloseDrainsAndRejects(t *testing.T) {
	dev, _ := newTestDevice(t, 16)
	s, err := New(dev, Config{QueueDepth: 4, Window: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			buf := make([]byte, nvm.BlockSize)
			_, err := s.ReadBlock(b, buf, Demand, 0)
			errs <- err
		}(i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	// Reads racing Close either completed or were rejected with ErrClosed —
	// never anything else, and never a hang (wg.Wait above).
	for err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
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
		{Window: -time.Second},
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
// priorities, overlapping blocks, concurrent Stats.
func TestConcurrentStress(t *testing.T) {
	dev, _ := newTestDevice(t, 32)
	s := mustNew(t, dev, Config{QueueDepth: 8, Window: time.Millisecond})
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
