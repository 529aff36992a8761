package iosched

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"bandana/internal/nvm"
)

// readLog is what holdFirstRead's gate records.
type readLog struct {
	mu      sync.Mutex
	calls   [][]int
	reached chan struct{}
	release chan struct{}
}

// holdFirstRead returns cfg with a gate that records the blocks of every
// device call and parks the first one — and with it its caller's slot —
// until release is closed.
func holdFirstRead(cfg Config) (Config, *readLog) {
	l := &readLog{reached: make(chan struct{}), release: make(chan struct{})}
	return cfg.WithGate(func(blocks []int) {
		l.mu.Lock()
		first := len(l.calls) == 0
		l.calls = append(l.calls, append([]int(nil), blocks...))
		l.mu.Unlock()
		if first {
			close(l.reached)
			<-l.release
		}
	}), l
}

func (l *readLog) dispatched() [][]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]int(nil), l.calls...)
}

// positions maps the first block of each device call to the call's index in
// issue order; with QueueDepth 1 that is the order slots were granted in.
func (l *readLog) positions() map[int]int {
	pos := map[int]int{}
	for i, blocks := range l.dispatched() {
		pos[blocks[0]] = i
	}
	return pos
}

func checkBlocks(t *testing.T, blocks []int, dst []byte) {
	t.Helper()
	for i, b := range blocks {
		if !bytes.Equal(dst[i*nvm.BlockSize:(i+1)*nvm.BlockSize], blockPattern(b)) {
			t.Errorf("block %d: wrong bytes", b)
		}
	}
}

// readAsync reads blocks at pri on a goroutine wg tracks and checks the bytes.
func readAsync(t *testing.T, wg *sync.WaitGroup, s *Scheduler, pri Priority, blocks ...int) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]byte, len(blocks)*nvm.BlockSize)
		if _, err := s.ReadBlocks(blocks, dst, pri, 0); err != nil {
			t.Error(err)
			return
		}
		checkBlocks(t, blocks, dst)
	}()
}

// meetStore is a countingStore whose batched reads each wait, up to a
// deadline, until n of them are inside the store at once: a read issued
// only after another finished never gets them there.
type meetStore struct {
	*countingStore
	n      int
	mu     sync.Mutex
	inside int
	met    chan struct{}
}

func (m *meetStore) ReadBlocks(idxs []int, dst []byte) error {
	m.mu.Lock()
	m.inside++
	select {
	case <-m.met:
	default:
		if m.inside == m.n {
			close(m.met)
		}
	}
	m.mu.Unlock()
	select {
	case <-m.met:
	case <-time.After(2 * time.Second):
	}
	err := m.countingStore.ReadBlocks(idxs, dst)
	m.mu.Lock()
	m.inside--
	m.mu.Unlock()
	return err
}

// newMeetDevice is newTestDevice over a meetStore that waits for n reads.
func newMeetDevice(t *testing.T, numBlocks, n int) (*nvm.Device, *meetStore) {
	t.Helper()
	ms := &meetStore{countingStore: newCountingStore(t, numBlocks), n: n, met: make(chan struct{})}
	dev := nvm.NewDevice(nvm.DeviceConfig{NumBlocks: numBlocks, Store: ms, Seed: 1})
	t.Cleanup(func() { dev.Close() })
	return dev, ms
}

// TestMissesOverlapAcrossCallers: two callers missing disjoint blocks each
// issue their own device read, and both are inside the store at once — the
// device sees both runs' depth together. A scheduler that lets one issuer
// at a time reach the device never gets them there.
func TestMissesOverlapAcrossCallers(t *testing.T) {
	dev, ms := newMeetDevice(t, 64, 2)
	s := mustNew(t, dev, Config{})
	var wg sync.WaitGroup
	readAsync(t, &wg, s, Demand, 0, 1, 2, 3)
	readAsync(t, &wg, s, Demand, 10, 11, 12, 13)
	wg.Wait()
	select {
	case <-ms.met:
	default:
		t.Fatal("the two callers' device reads were never in flight at once")
	}
	st := s.Stats()
	if st.MaxInFlight != 2 || st.InFlight != 0 || st.Batches != 2 || ms.readCalls.Load() != 2 {
		t.Fatalf("stats %+v over %d device calls, want 2 slots held at once, one call each", st, ms.readCalls.Load())
	}
	if got := dev.Stats().MaxQueueDepth; got != 8 {
		t.Fatalf("device queue depth peaked at %d, want both runs' 4 + 4", got)
	}
}

// TestSlotsGrantDemandFirst pins the grant order with the only slot held: a
// demand read that follows one block of a waiting two-block prefetch call
// promotes the whole call to the head of the demand queue, waiting demand
// calls go before a waiting prefetch call, and that prefetch call goes once
// it has been passed over prefetchStarvationSkips times.
func TestSlotsGrantDemandFirst(t *testing.T) {
	dev, _ := newTestDevice(t, 64)
	cfg, log := holdFirstRead(Config{QueueDepth: 1})
	s := mustNew(t, dev, cfg)

	var wg sync.WaitGroup
	readAsync(t, &wg, s, Demand, 0) // holds the slot at the gate
	<-log.reached
	readAsync(t, &wg, s, Prefetch, 50)
	waitFor(t, "prefetch 50 waiting", func() bool { return s.Stats().QueuedNow == 1 })
	readAsync(t, &wg, s, Prefetch, 51, 52)
	waitFor(t, "prefetch 51, 52 waiting", func() bool { return s.Stats().QueuedNow == 3 })
	readAsync(t, &wg, s, Demand, 51) // follows 51 and promotes its call
	waitFor(t, "demand follower attached", func() bool { return s.Stats().Coalesced == 1 })
	const wall = 2 * prefetchStarvationSkips
	for b := 1; b <= wall; b++ {
		readAsync(t, &wg, s, Demand, b)
	}
	waitFor(t, "demand wall waiting", func() bool { return s.Stats().QueuedNow == wall+3 })
	close(log.release)
	wg.Wait()

	pos := log.positions()
	// The promoted call reads 51 and 52 (one block per device call at depth
	// 1) on the first grant, which passes over 50 once; seven of the wall
	// pass over it the other seven; then 50 goes, then the rest of the wall.
	if pos[51] != 1 || pos[52] != 2 || pos[50] != prefetchStarvationSkips+2 {
		t.Fatalf("promoted call read at %d and %d, prefetch 50 at %d, want 1, 2 and %d: %v",
			pos[51], pos[52], pos[50], prefetchStarvationSkips+2, log.dispatched())
	}
	before := 0
	for b := 1; b <= wall; b++ {
		if pos[b] < pos[50] {
			before++
		}
	}
	if before != prefetchStarvationSkips-1 {
		t.Fatalf("%d demand reads granted before the aged prefetch read, want %d: %v",
			before, prefetchStarvationSkips-1, log.dispatched())
	}
}

// TestNoDispatcherGoroutine: New starts nothing and Close has nothing to
// join — reads are issued by the goroutines that submit them, and an idle
// Close returns with every slot free.
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
	if st := s.Stats(); st.InFlight != 0 || st.MaxInFlight != 1 || st.QueueWait.Count != 1 || st.QueuedNow != 0 {
		t.Fatalf("stats %+v, want one slot taken once and nothing held or queued", st)
	}
}

// TestOneCallIsReadInPlace: a call's consecutive blocks are read straight
// into its buffer, one device call per run of up to QueueDepth blocks, and
// the call allocates its result and op slices and nothing per block — no
// channel, no shared buffer.
func TestOneCallIsReadInPlace(t *testing.T) {
	dev, cs := newTestDevice(t, 64)
	s := mustNew(t, dev, Config{QueueDepth: 8})
	blocks := []int{3, 17, 4, 28, 9, 40, 41, 2, 60, 11, 12, 13}
	dst := make([]byte, len(blocks)*nvm.BlockSize)
	if _, err := s.ReadBlocks(blocks, dst, Demand, 0); err != nil {
		t.Fatal(err)
	}
	checkBlocks(t, blocks, dst)
	if st := s.Stats(); st.Batches != 2 || cs.readCalls.Load() != 2 {
		t.Fatalf("12 blocks at depth 8: %d batches, %d device calls; want 2, 2", st.Batches, cs.readCalls.Load())
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

// TestMixedBatchLandsInBothCallers: two callers with free slots read their
// blocks in place — each in its own device call, into its own buffer — and
// neither waits for a third caller's read still in flight.
func TestMixedBatchLandsInBothCallers(t *testing.T) {
	dev, cs := newTestDevice(t, 64)
	cfg, log := holdFirstRead(Config{QueueDepth: 8})
	s := mustNew(t, dev, cfg)

	var held, both sync.WaitGroup
	readAsync(t, &held, s, Demand, 0) // parks one slot at the gate
	<-log.reached
	readAsync(t, &both, s, Demand, 10, 11, 12)
	readAsync(t, &both, s, Demand, 20, 21, 22)
	both.Wait()
	close(log.release)
	held.Wait()

	got := log.dispatched()
	if len(got) != 3 || len(got[1]) != 3 || len(got[2]) != 3 || got[1][0]/10 == got[2][0]/10 {
		t.Fatalf("dispatched %v, want each caller's three blocks in a device call of its own", got)
	}
	if n := cs.readCalls.Load(); n != 3 {
		t.Fatalf("%d device calls, want 3", n)
	}
}

// TestPrefetchHolderServesDemandFirst: a background call keeps its slot for
// all of its runs, then hands it to the demand calls that queued meanwhile,
// in arrival order, before the background call that queued before them.
func TestPrefetchHolderServesDemandFirst(t *testing.T) {
	dev, _ := newTestDevice(t, 64)
	cfg, log := holdFirstRead(Config{QueueDepth: 1})
	s := mustNew(t, dev, cfg)

	var wg sync.WaitGroup
	readAsync(t, &wg, s, Prefetch, 50, 51, 52) // three one-block runs; the first parks
	<-log.reached
	readAsync(t, &wg, s, Prefetch, 60)
	waitFor(t, "prefetch 60 waiting", func() bool { return s.Stats().QueuedNow == 1 })
	readAsync(t, &wg, s, Demand, 1)
	waitFor(t, "demand 1 waiting", func() bool { return s.Stats().QueuedNow == 2 })
	readAsync(t, &wg, s, Demand, 2)
	waitFor(t, "demand 2 waiting", func() bool { return s.Stats().QueuedNow == 3 })
	close(log.release)
	wg.Wait()

	var order []int
	for _, blocks := range log.dispatched() {
		order = append(order, blocks...)
	}
	if want := []int{50, 51, 52, 1, 2, 60}; !slices.Equal(order, want) {
		t.Fatalf("issue order %v, want %v", order, want)
	}
}

// TestLateFollowerGetsOwnersTag: a read that attaches to a block its owner
// is already issuing is Late and carries the owner's tag, while the same
// call's other block is its own read under its own tag — a call can follow
// and lead at once.
func TestLateFollowerGetsOwnersTag(t *testing.T) {
	dev, cs := newTestDevice(t, 64)
	cfg, log := holdFirstRead(Config{QueueDepth: 8})
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

// TestCloseRacesTokenWaiters: Close while calls wait for the only slot.
// Every call accepted before Close is granted a slot and completes, every
// call after it is refused with ErrClosed, and Close returns only once no
// slot is held and nothing waits.
func TestCloseRacesTokenWaiters(t *testing.T) {
	dev, _ := newTestDevice(t, 64)
	cfg, log := holdFirstRead(Config{QueueDepth: 1})
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
	waitFor(t, "slot waiters queued", func() bool { return s.Stats().QueuedNow == 16 })
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
	select {
	case <-closed:
		t.Fatal("Close returned while a slot was held")
	case <-time.After(20 * time.Millisecond):
	}
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
	if st := s.Stats(); st.QueuedNow != 0 || st.InFlight != 0 || st.Rejected < 8 {
		t.Fatalf("after Close: %+v, want nothing queued or held and the late reads rejected", st)
	}
}
