package iosched

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"bandana/internal/nvm"
)

// batchLog is what holdFirstBatch's gate records.
type batchLog struct {
	mu      sync.Mutex
	batches [][]int
	reached chan struct{}
	release chan struct{}
}

// holdFirstBatch returns cfg with a gate that records every batch and parks
// the first one — and with it the token — until release is closed.
func holdFirstBatch(cfg Config) (Config, *batchLog) {
	l := &batchLog{reached: make(chan struct{}), release: make(chan struct{})}
	return cfg.WithGate(func(blocks []int) {
		l.mu.Lock()
		first := len(l.batches) == 0
		l.batches = append(l.batches, append([]int(nil), blocks...))
		l.mu.Unlock()
		if first {
			close(l.reached)
			<-l.release
		}
	}), l
}

func (l *batchLog) dispatched() [][]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]int(nil), l.batches...)
}

func checkBlocks(t *testing.T, blocks []int, dst []byte) {
	t.Helper()
	for i, b := range blocks {
		if !bytes.Equal(dst[i*nvm.BlockSize:(i+1)*nvm.BlockSize], blockPattern(b)) {
			t.Errorf("block %d: wrong bytes", b)
		}
	}
}

// TestNoDispatcherGoroutine: New starts nothing and Close has nothing to
// join — reads are issued by the goroutines that submit them, and an idle
// Close returns with the token free.
func TestNoDispatcherGoroutine(t *testing.T) {
	dev, _ := newTestDevice(t, 16)
	before := runtime.NumGoroutine()
	s, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("New started %d goroutine(s)", n-before)
	}
	buf := make([]byte, nvm.BlockSize)
	if _, err := s.ReadBlock(3, buf, Demand, 0); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a read left %d goroutine(s) behind", n-before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !s.token.TryLock() {
		t.Fatal("Close on an idle scheduler returned with the token held")
	}
	s.token.Unlock()
	if st := s.Stats(); st.TokenWait.Count != 1 || st.QueuedNow != 0 {
		t.Fatalf("stats %+v, want one token acquisition and an empty queue", st)
	}
}

// TestOneCallIsReadInPlace: a call's consecutive blocks are read straight
// into its buffer, one device call per batch, and the call allocates its
// result and op slices and nothing per block — no channel, no shared buffer.
func TestOneCallIsReadInPlace(t *testing.T) {
	dev, cs := newTestDevice(t, 64)
	s := mustNew(t, dev, Config{QueueDepth: 8})
	blocks := []int{3, 17, 4, 28, 9, 40, 41, 2, 60, 11, 12, 13}
	dst := make([]byte, len(blocks)*nvm.BlockSize)
	if _, err := s.ReadBlocks(blocks, dst, Demand, 0); err != nil {
		t.Fatal(err)
	}
	checkBlocks(t, blocks, dst)
	if st := s.Stats(); st.Batches != 2 || st.BouncedBatches != 0 || cs.readCalls.Load() != 2 {
		t.Fatalf("12 blocks at depth 8: %d batches, %d bounced, %d device calls; want 2, 0, 2",
			st.Batches, st.BouncedBatches, cs.readCalls.Load())
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := s.ReadBlocks(blocks[:n], dst, Demand, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, all := allocs(1), allocs(len(blocks)); one != all || all > 2 {
		t.Fatalf("%.0f allocations for 1 block, %.0f for %d: want the same, at most 2", one, all, len(blocks))
	}
}

// TestMixedBatchLandsInBothCallers: a device batch carrying two callers'
// blocks has no single destination; it is bounced, and each caller still
// gets exactly its own blocks.
func TestMixedBatchLandsInBothCallers(t *testing.T) {
	dev, cs := newTestDevice(t, 64)
	cfg, log := holdFirstBatch(Config{QueueDepth: 8})
	s := mustNew(t, dev, cfg)

	var wg sync.WaitGroup
	read := func(blocks ...int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, len(blocks)*nvm.BlockSize)
			if _, err := s.ReadBlocks(blocks, dst, Demand, 0); err != nil {
				t.Error(err)
			}
			checkBlocks(t, blocks, dst)
		}()
	}
	read(0) // parks the token at the gate
	<-log.reached
	read(10, 11, 12)
	read(20, 21, 22)
	waitFor(t, "both callers queued", func() bool { return s.Stats().QueuedNow == 6 })
	close(log.release)
	wg.Wait()

	got := log.dispatched()
	if len(got) != 2 || len(got[1]) != 6 {
		t.Fatalf("dispatched %v, want the six queued blocks in one batch", got)
	}
	if st := s.Stats(); st.BouncedBatches != 1 || cs.readCalls.Load() != 2 {
		t.Fatalf("%d bounced batches over %d device calls, want 1 over 2", st.BouncedBatches, cs.readCalls.Load())
	}
}

// TestPrefetchHolderServesDemandFirst: the token makes whoever holds it the
// dispatcher for everyone. A background caller holding it dispatches the
// demand reads queued behind its first batch before its own remaining
// reads, and those within the aging bound.
func TestPrefetchHolderServesDemandFirst(t *testing.T) {
	dev, _ := newTestDevice(t, 64)
	cfg, log := holdFirstBatch(Config{QueueDepth: 1})
	s := mustNew(t, dev, cfg)

	var wg sync.WaitGroup
	read := func(pri Priority, blocks ...int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, len(blocks)*nvm.BlockSize)
			if _, err := s.ReadBlocks(blocks, dst, pri, 0); err != nil {
				t.Error(err)
			}
			checkBlocks(t, blocks, dst)
		}()
	}
	read(Prefetch, 50, 51, 52) // holds the token at the gate with 51 and 52 queued
	<-log.reached
	const wall = 3 * prefetchStarvationSkips
	for b := 1; b <= wall; b++ {
		read(Demand, b)
	}
	waitFor(t, "wall queued", func() bool { return s.Stats().QueuedNow == wall+2 })
	close(log.release)
	wg.Wait()

	pos := map[int]int{}
	for i, batch := range log.dispatched() {
		pos[batch[0]] = i
	}
	// Demand goes first, so 51 is passed over exactly the aging bound's worth
	// of batches — 50's, then demand — and 52, heading the queue from the
	// batch that carries 51, the same again.
	if want := prefetchStarvationSkips; pos[51] != want || pos[52] != 2*want {
		t.Fatalf("background reads dispatched at %d and %d, want %d and %d: %v",
			pos[51], pos[52], want, 2*want, log.dispatched())
	}
}

// TestLateFollowerGetsOwnersTag: a read that attaches to a block its owner
// is already issuing is Late and carries the owner's tag, while the same
// call's other block is its own read under its own tag — a call can follow
// and lead at once.
func TestLateFollowerGetsOwnersTag(t *testing.T) {
	dev, cs := newTestDevice(t, 64)
	cfg, log := holdFirstBatch(Config{QueueDepth: 8})
	s := mustNew(t, dev, cfg)

	done := make(chan error, 1)
	go func() {
		dst := make([]byte, 2*nvm.BlockSize)
		_, err := s.ReadBlocks([]int{3, 4}, dst, Demand, 42)
		done <- err
	}()
	<-log.reached
	blocks := []int{4, 5}
	dst := make([]byte, 2*nvm.BlockSize)
	var res []ReadResult
	var err error
	go func() {
		res, err = s.ReadBlocks(blocks, dst, Demand, 99)
		done <- nil
	}()
	waitFor(t, "follower attached", func() bool { return s.Stats().CoalescedLate == 1 })
	close(log.release)
	for i := 0; i < 2; i++ {
		if e := <-done; e != nil {
			t.Fatal(e)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	checkBlocks(t, blocks, dst)
	if r := res[0]; !r.Coalesced || !r.Late || r.LeaderTag != 42 {
		t.Fatalf("follower of an issued read: %+v, want coalesced, late, leader tag 42", r)
	}
	if r := res[1]; r.Coalesced || r.Late || r.LeaderTag != 99 {
		t.Fatalf("own read: %+v, want uncoalesced under tag 99", r)
	}
	if got := cs.blocksRead.Load(); got != 3 {
		t.Fatalf("%d blocks read from the device, want 3", got)
	}
}

// TestCloseRacesTokenWaiters: Close queues for the token like any submitter.
// With reads waiting for the token ahead of it and behind it, every read
// completes or is refused with ErrClosed, and nothing hangs.
func TestCloseRacesTokenWaiters(t *testing.T) {
	dev, _ := newTestDevice(t, 64)
	cfg, log := holdFirstBatch(Config{QueueDepth: 2})
	s, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var completed, refused sync.Map
	read := func(b int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocks := []int{b, b + 1}
			dst := make([]byte, len(blocks)*nvm.BlockSize)
			switch _, err := s.ReadBlocks(blocks, dst, Demand, 0); {
			case err == nil:
				checkBlocks(t, blocks, dst)
				completed.Store(b, true)
			case errors.Is(err, ErrClosed):
				refused.Store(b, true)
			default:
				t.Error(err)
			}
		}()
	}
	read(0)
	<-log.reached
	for b := 2; b < 18; b += 2 {
		read(b)
	}
	waitFor(t, "token waiters queued", func() bool { return s.Stats().QueuedNow == 16 })
	closed := make(chan error, 2)
	go func() { closed <- s.Close() }()
	waitFor(t, "scheduler closed", func() bool {
		_, err := s.ReadBlocks(nil, nil, Demand, 0)
		return errors.Is(err, ErrClosed)
	})
	for b := 20; b < 28; b += 2 {
		read(b) // arrives after Close: refused, never queued
	}
	go func() { closed <- s.Close() }()
	close(log.release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 18; b += 2 {
		if _, ok := completed.Load(b); !ok {
			t.Errorf("read of block %d, accepted before Close, did not complete", b)
		}
	}
	for b := 20; b < 28; b += 2 {
		if _, ok := refused.Load(b); !ok {
			t.Errorf("read of block %d, submitted after Close, was not refused", b)
		}
	}
	if st := s.Stats(); st.QueuedNow != 0 || st.Rejected < 8 {
		t.Fatalf("after Close: %+v, want nothing queued and the late reads rejected", st)
	}
}
