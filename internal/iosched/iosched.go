// Package iosched is the unified asynchronous block I/O scheduler that sits
// between the serving engine (internal/core) and the NVM device
// (internal/nvm).
//
// The paper's central hardware observation is that block NVM only delivers
// its bandwidth at high device queue depth: a read issued alone costs ~10 us
// and ~0.6 GB/s, while eight overlapping reads cost ~33 us each but deliver
// 2.3 GB/s (Figure 2). A serving system that issues one synchronous read per
// cache miss therefore leaves most of the device on the table. This package
// closes that gap with three mechanisms:
//
//   - Coalescing (singleflight): concurrent requests for the same block —
//     e.g. a miss storm on one hot vector — share a single device read whose
//     result is fanned out to every waiter.
//   - Batching: independent reads accumulate in a per-device submission
//     queue and are dispatched together as one nvm ReadBlocks batch sized
//     toward a configurable target queue depth, with a bounded accumulation
//     window so an isolated read at low load is never parked waiting for
//     company that is not coming.
//   - Priority classes: demand reads (foreground lookups) are always
//     scheduled before prefetch/background reads, so background maintenance
//     traffic can never starve the serving path.
//
// Submitters block until their read completes (submit-and-wait), so lock
// protocols built around the reader — in particular core's rewrite exclusion,
// where in-flight miss reads drain under a per-table RWMutex before a bulk
// copy-into-place — keep working unchanged: a goroutine waiting on the
// scheduler still holds whatever locks it held when it submitted.
package iosched

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/metrics"
	"bandana/internal/nvm"
)

// Priority classifies a read for scheduling. Lower values are more urgent.
type Priority int

const (
	// Demand is a foreground read a caller is actively waiting on (cache
	// miss on the serving path). Demand reads are always dispatched before
	// prefetch reads.
	Demand Priority = iota
	// Prefetch is a background read (readahead, maintenance
	// read-modify-write): it fills whatever batch capacity demand traffic
	// leaves free and can be delayed while demand reads keep arriving.
	Prefetch

	numPriorities
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case Demand:
		return "demand"
	case Prefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// DefaultQueueDepth is the target dispatch batch size when Config leaves
// QueueDepth zero — the depth at which the paper's device saturates.
const DefaultQueueDepth = 8

// MaxTargetQueueDepth bounds configurable target queue depths; beyond the
// device's saturation point deeper queues only add latency, so a huge value
// is a configuration mistake, not a tuning choice.
const MaxTargetQueueDepth = 256

// ErrClosed is returned by reads submitted after Close.
var ErrClosed = errors.New("iosched: scheduler closed")

// Config configures a Scheduler.
type Config struct {
	// QueueDepth is the target dispatch batch size: the scheduler
	// accumulates up to this many independent reads and issues them as one
	// device batch. 0 uses DefaultQueueDepth.
	QueueDepth int
	// Window bounds how long a queued read may wait for its batch to fill
	// toward QueueDepth. 0 disables waiting: every dispatch takes whatever
	// is queued at that moment, so an isolated read at low load pays no
	// added latency and batches form only from genuinely concurrent
	// traffic. A non-zero window trades bounded added latency for fuller
	// batches (useful under sustained load and in benchmarks).
	Window time.Duration
	// gate, when non-nil, is called by the dispatcher after assembling each
	// batch and before issuing it to the device — a test hook that makes
	// concurrency tests deterministic. Set via WithGate (export_test.go).
	gate func(batchBlocks []int)
}

func (c *Config) normalize() error {
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.QueueDepth < 1 || c.QueueDepth > MaxTargetQueueDepth {
		return fmt.Errorf("iosched: queue depth %d out of range [1,%d]", c.QueueDepth, MaxTargetQueueDepth)
	}
	if c.Window < 0 {
		return fmt.Errorf("iosched: negative accumulation window %s", c.Window)
	}
	return nil
}

// op is one submitted block read. The leader (the op that owns the device
// read) and any coalesced waiters all block on done; the dispatcher fills
// dst (the leader's buffer) and, when waiters attached, buf, sets lat/err
// and closes done.
type op struct {
	block int
	pri   Priority
	// tag is the leader's opaque version tag (see ReadBlock); coalesced
	// waiters receive it as ReadResult.LeaderTag.
	tag uint64
	// dst is the leader's destination buffer, written by the dispatcher
	// before done closes (the leader is blocked on done, so this is safe
	// and saves a copy on the common uncoalesced path).
	dst []byte

	done chan struct{}
	// buf is the pooled shared result buffer for coalesced waiters. It is
	// allocated (under Scheduler.mu) by the first waiter to attach and
	// stays nil on the common uncoalesced path.
	buf *[]byte
	lat float64
	err error

	// issued flips (under Scheduler.mu) when the dispatcher takes the op
	// into a batch; waiters attaching after that point are marked Late.
	issued bool
	// skips counts dispatches that passed this op over while it headed its
	// queue (anti-starvation accounting for the background class).
	skips int
	// refs counts goroutines that will read buf (leader + waiters); the
	// last one to finish returns buf to the pool. Incremented under
	// Scheduler.mu before done closes, decremented after.
	refs atomic.Int32

	enqueued time.Time
	// waitUS is the time this op spent queued before the dispatcher took it
	// into a batch (set by issue, before done closes).
	waitUS float64
}

// ReadResult describes how one submitted read was served.
type ReadResult struct {
	// LatencyUS is the simulated device latency of the batch that carried
	// this read (the completion time of its slowest member) — the device
	// service component of the read's total latency.
	LatencyUS float64
	// WaitUS is the wall-clock time the read that touched the device spent
	// in the submission queue before dispatch (the queue-wait component).
	// For a coalesced read this is the leader's queue wait.
	WaitUS float64
	// Coalesced reports that this read shared another op's device read
	// instead of causing one itself.
	Coalesced bool
	// Late reports that the read attached to a device read that had already
	// been issued when it arrived: the returned bytes may predate writes
	// that completed at any point before the attach. Callers with
	// freshness requirements re-read when Late is set and LeaderTag no
	// longer matches their current version (see ReadBlock).
	Late bool
	// LeaderTag is the tag the read that actually touched the device was
	// submitted with (the caller's own tag when Coalesced is false). A
	// caller that tags reads with a monotonic version counter can verify a
	// Late result exactly: if LeaderTag still equals the current version,
	// no write landed between the leader's version load and now, so the
	// bytes are fresh; if it differs, the bytes may be stale and must be
	// re-read.
	LeaderTag uint64
}

// Scheduler is a per-device asynchronous block-read scheduler. All methods
// are safe for concurrent use.
type Scheduler struct {
	device *nvm.Device
	cfg    Config

	mu      sync.Mutex
	queues  [numPriorities][]*op
	pending map[int]*op // block -> coalescable op (queued or in flight)
	closed  bool

	wake chan struct{} // nudges the dispatcher; buffered, submitters never block
	stop chan struct{} // closed by Close once, after marking closed
	done chan struct{} // closed when the dispatcher exits

	// Counters (atomics: hot-path increments take no lock).
	submitted     [numPriorities]atomic.Int64
	deviceReads   atomic.Int64
	batches       atomic.Int64
	maxBatch      atomic.Int64
	coalesced     atomic.Int64
	coalescedLate atomic.Int64
	rejected      atomic.Int64
	simBusyUS     atomic.Uint64 // float64 bits

	// queueWait tracks wall-clock submission-to-dispatch time per read;
	// service tracks simulated device time per dispatched batch. Together
	// they decompose the old single LatencyUS into where a miss actually
	// spent its time: waiting for a batch slot vs on the device.
	queueWait *metrics.Histogram
	service   *metrics.Histogram
}

// Stats is a snapshot of scheduler counters.
type Stats struct {
	// TargetQueueDepth and AccumulationWindowUS echo the effective
	// configuration; always emitted, because window 0 is a meaningful
	// setting an operator must be able to read back.
	TargetQueueDepth     int     `json:"targetQueueDepth"`
	AccumulationWindowUS float64 `json:"accumulationWindowUS"`
	// DemandReads / PrefetchReads count submitted reads per class
	// (including coalesced ones).
	DemandReads   int64 `json:"demandReads"`
	PrefetchReads int64 `json:"prefetchReads"`
	// DeviceReads counts reads that reached the device (batch members).
	DeviceReads int64 `json:"deviceReads"`
	// Batches counts device dispatches; AvgBatchSize = DeviceReads/Batches.
	Batches      int64   `json:"batches"`
	AvgBatchSize float64 `json:"avgBatchSize"`
	MaxBatchSize int64   `json:"maxBatchSize"`
	// Coalesced counts reads served by another read's device I/O;
	// CoalescedLate is the subset that attached after the device read was
	// already issued.
	Coalesced     int64 `json:"coalesced"`
	CoalescedLate int64 `json:"coalescedLate"`
	// Rejected counts reads refused because the scheduler was closed.
	Rejected int64 `json:"rejected"`
	// QueuedNow is the instantaneous submission-queue length.
	QueuedNow int `json:"queuedNow"`
	// SimBusyUS is the accumulated simulated device busy time across all
	// dispatched batches — the denominator of simulated-time throughput.
	SimBusyUS float64 `json:"simBusyUS"`
	// QueueWait summarizes wall-clock submission-to-dispatch time per read
	// (microseconds); Service summarizes simulated device time per
	// dispatched batch (its count is Batches, not DeviceReads). QueueWait +
	// Service decompose the total miss-path I/O latency.
	QueueWait metrics.Snapshot `json:"queueWaitUS"`
	Service   metrics.Snapshot `json:"serviceUS"`
}

// New creates a scheduler over device and starts its dispatcher. Close must
// be called to release it.
func New(device *nvm.Device, cfg Config) (*Scheduler, error) {
	if device == nil {
		return nil, errors.New("iosched: nil device")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		device:    device,
		cfg:       cfg,
		pending:   make(map[int]*op),
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		queueWait: metrics.NewLatencyHistogram(),
		service:   metrics.NewLatencyHistogram(),
	}
	go s.dispatch()
	return s, nil
}

// Config returns the scheduler's effective (normalized) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// ReadBlock submits one block read at the given priority and waits for it.
// The block's bytes are copied into dst (at least nvm.BlockSize long). tag
// is an opaque caller version (e.g. a table epoch loaded before the call):
// it travels with the read that touches the device and is handed back to
// every coalesced waiter as ReadResult.LeaderTag, which is what lets
// callers detect a stale Late-coalesced result exactly.
func (s *Scheduler) ReadBlock(block int, dst []byte, pri Priority, tag uint64) (ReadResult, error) {
	if len(dst) < nvm.BlockSize {
		return ReadResult{}, fmt.Errorf("iosched: destination buffer too small: %d", len(dst))
	}
	o, res, err := s.submit(block, dst, pri, tag)
	if err != nil {
		return res, err
	}
	<-o.done
	res.LatencyUS = o.lat
	res.WaitUS = o.waitUS
	err = o.err
	if err == nil && res.Coalesced {
		// The dispatcher wrote the leader's dst directly; waiters copy out
		// of the shared buffer their attach allocated.
		copy(dst[:nvm.BlockSize], *o.buf)
	}
	s.release(o)
	return res, err
}

// ReadBlocks submits len(blocks) reads at the given priority and waits for
// all of them; block blocks[i] lands in dst[i*BlockSize:]. It returns
// per-read results (aligned with blocks) and the first error, if any. The
// reads are independent scheduler ops: they may be dispatched in one device
// batch, split across several, or coalesce with other callers' reads. tag
// has ReadBlock's semantics.
func (s *Scheduler) ReadBlocks(blocks []int, dst []byte, pri Priority, tag uint64) ([]ReadResult, error) {
	if len(dst) < len(blocks)*nvm.BlockSize {
		return nil, fmt.Errorf("iosched: destination buffer too small for %d blocks: %d", len(blocks), len(dst))
	}
	results := make([]ReadResult, len(blocks))
	ops := make([]*op, len(blocks))
	var firstErr error
	for i, b := range blocks {
		o, res, err := s.submit(b, dst[i*nvm.BlockSize:(i+1)*nvm.BlockSize], pri, tag)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ops[i] = o
		results[i] = res
	}
	for i, o := range ops {
		if o == nil {
			continue
		}
		<-o.done
		results[i].LatencyUS = o.lat
		results[i].WaitUS = o.waitUS
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
		} else if results[i].Coalesced {
			copy(dst[i*nvm.BlockSize:(i+1)*nvm.BlockSize], *o.buf)
		}
		s.release(o)
	}
	return results, firstErr
}

// submit enqueues (or coalesces) one read. On success the caller must wait
// on the returned op's done channel and then call release.
func (s *Scheduler) submit(block int, dst []byte, pri Priority, tag uint64) (*op, ReadResult, error) {
	if pri < 0 || pri >= numPriorities {
		return nil, ReadResult{}, fmt.Errorf("iosched: invalid priority %d", int(pri))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, ReadResult{}, ErrClosed
	}
	s.submitted[pri].Add(1)
	if existing, ok := s.pending[block]; ok {
		existing.refs.Add(1)
		late := existing.issued
		if existing.buf == nil {
			// First waiter: materialize the shared result buffer the
			// dispatcher will fill alongside the leader's dst. Allocating
			// it here (under mu, while the op is still in the pending
			// map) guarantees the dispatcher sees it before fan-out.
			existing.buf = nvm.GetBlockBuf()
		}
		// A demand read coalescing onto a queued prefetch read must not
		// inherit its low urgency: promote the shared op.
		if !existing.issued && pri < existing.pri {
			s.promoteLocked(existing, pri)
		}
		leaderTag := existing.tag
		s.mu.Unlock()
		s.coalesced.Add(1)
		if late {
			s.coalescedLate.Add(1)
		}
		// Surface the coalesced read in the device's stats section next
		// to the batch counters it complements.
		s.device.NoteCoalescedRead()
		return existing, ReadResult{Coalesced: true, Late: late, LeaderTag: leaderTag}, nil
	}
	o := &op{block: block, pri: pri, tag: tag, dst: dst, done: make(chan struct{}), enqueued: time.Now()}
	o.refs.Store(1)
	s.pending[block] = o
	s.queues[pri] = append(s.queues[pri], o)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return o, ReadResult{LeaderTag: tag}, nil
}

// promoteLocked moves a queued op to a more urgent priority class. Callers
// hold s.mu.
func (s *Scheduler) promoteLocked(o *op, pri Priority) {
	q := s.queues[o.pri]
	for i, queued := range q {
		if queued == o {
			s.queues[o.pri] = append(q[:i], q[i+1:]...)
			break
		}
	}
	o.pri = pri
	s.queues[pri] = append(s.queues[pri], o)
}

// release drops one reference to the op's shared result buffer, returning
// it to the block-buffer pool when this was the last reader.
func (s *Scheduler) release(o *op) {
	if o.refs.Add(-1) == 0 && o.buf != nil {
		nvm.PutBlockBuf(o.buf)
	}
}

// queuedLocked returns the total queued op count. Callers hold s.mu.
func (s *Scheduler) queuedLocked() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// prefetchStarvationSkips bounds how many consecutive dispatches may pass
// over a queued background read before it is granted a batch slot ahead of
// demand traffic. Demand still dominates every batch; the bound exists
// because background reads can be awaited under locks (UpdateVector's
// read-modify-write holds updateMu, which snapshot export also needs), so
// "deferred while demand keeps arriving" must mean bounded, not forever.
const prefetchStarvationSkips = 8

// takeBatchLocked removes up to target ops from the queues, demand first,
// and marks them issued. A background op that has been passed over by
// prefetchStarvationSkips dispatches takes the first slot. Callers hold
// s.mu.
func (s *Scheduler) takeBatchLocked(target int) []*op {
	batch := make([]*op, 0, target)
	if q := s.queues[Prefetch]; len(q) > 0 && q[0].skips >= prefetchStarvationSkips {
		o := q[0]
		s.queues[Prefetch] = q[1:]
		o.issued = true
		batch = append(batch, o)
	}
	for pri := range s.queues {
		q := s.queues[pri]
		for len(q) > 0 && len(batch) < target {
			o := q[0]
			q = q[1:]
			o.issued = true
			batch = append(batch, o)
		}
		s.queues[pri] = q
		if len(batch) == target {
			break
		}
	}
	// The head blocks its whole FIFO queue, so aging it is enough.
	if q := s.queues[Prefetch]; len(q) > 0 {
		q[0].skips++
	}
	return batch
}

// dispatch is the scheduler's single background goroutine: it assembles
// batches from the submission queues and issues them to the device.
func (s *Scheduler) dispatch() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for s.queuedLocked() == 0 {
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			select {
			case <-s.wake:
			case <-s.stop:
				// Re-check the queue: ops submitted just before Close
				// flipped closed still drain below.
			}
			s.mu.Lock()
		}

		// Accumulate toward the target queue depth, but never hold the
		// oldest read past the configured window: the window bounds added
		// latency, it does not guarantee full batches.
		if w := s.cfg.Window; w > 0 && !s.closed {
			oldest := s.oldestEnqueueLocked()
			for s.queuedLocked() < s.cfg.QueueDepth && !s.closed {
				wait := w - time.Since(oldest)
				if wait <= 0 {
					break
				}
				s.mu.Unlock()
				timer := time.NewTimer(wait)
				select {
				case <-s.wake:
					timer.Stop()
				case <-timer.C:
				case <-s.stop:
					timer.Stop()
				}
				s.mu.Lock()
			}
		}

		batch := s.takeBatchLocked(s.cfg.QueueDepth)
		s.mu.Unlock()
		if len(batch) > 0 {
			s.issue(batch)
		}
	}
}

// oldestEnqueueLocked returns the earliest enqueue time across the queues.
// Callers hold s.mu and guarantee at least one queued op.
func (s *Scheduler) oldestEnqueueLocked() time.Time {
	var oldest time.Time
	for _, q := range s.queues {
		if len(q) > 0 && (oldest.IsZero() || q[0].enqueued.Before(oldest)) {
			oldest = q[0].enqueued
		}
	}
	return oldest
}

// issue sends one assembled batch to the device and fans results out to the
// ops' waiters.
func (s *Scheduler) issue(batch []*op) {
	if s.cfg.gate != nil {
		blocks := make([]int, len(batch))
		for i, o := range batch {
			blocks[i] = o.block
		}
		s.cfg.gate(blocks)
	}

	idxs := make([]int, len(batch))
	now := time.Now()
	for i, o := range batch {
		idxs[i] = o.block
		// Queue wait ends here: the op is leaving the queue for the device.
		o.waitUS = float64(now.Sub(o.enqueued)) / float64(time.Microsecond)
		s.queueWait.Observe(o.waitUS)
	}
	bufp := nvm.GetBatchBuf(len(batch))
	// One batch in flight at a time: submissions arriving while this read
	// runs queue up and form the next batch, so the synchronous device
	// call is the cheapest correct dispatch.
	lat, err := s.device.ReadBlocks(idxs, *bufp)

	// Freeze the waiter set before fanning results out: once the ops leave
	// the pending map no new waiter can attach, so every shared buffer a
	// waiter allocated is visible (it was created under the same mutex) and
	// gets filled below before done closes.
	s.mu.Lock()
	for _, o := range batch {
		if s.pending[o.block] == o {
			delete(s.pending, o.block)
		}
	}
	s.mu.Unlock()

	switch {
	case err != nil && len(batch) > 1:
		// One bad block (out of range, backend I/O error) must not poison
		// the innocent reads batched with it: retry each block alone so
		// the error lands only on the op that caused it.
		s.retrySingly(batch, *bufp)
	case err != nil:
		batch[0].err = err
	default:
		for i, o := range batch {
			o.lat = lat
			src := (*bufp)[i*nvm.BlockSize : (i+1)*nvm.BlockSize]
			// The leader's buffer is written directly (it is blocked on
			// done, so this is race-free and the common uncoalesced miss
			// pays a single copy); the shared buffer exists only when a
			// waiter attached.
			copy(o.dst[:nvm.BlockSize], src)
			if o.buf != nil {
				copy(*o.buf, src)
			}
		}
		s.accountBatch(len(batch), lat)
	}
	nvm.PutBatchBuf(bufp)
	for _, o := range batch {
		close(o.done)
	}
}

// retrySingly re-reads every op of a failed batch individually, attributing
// errors per block. The ops are already out of the pending map.
func (s *Scheduler) retrySingly(batch []*op, scratch []byte) {
	for _, o := range batch {
		lat, err := s.device.ReadBlock(o.block, scratch[:nvm.BlockSize])
		o.lat, o.err = lat, err
		if err == nil {
			copy(o.dst[:nvm.BlockSize], scratch[:nvm.BlockSize])
			if o.buf != nil {
				copy(*o.buf, scratch[:nvm.BlockSize])
			}
			s.accountBatch(1, lat)
		}
	}
}

// accountBatch records one device dispatch of n reads with the given
// simulated completion latency.
func (s *Scheduler) accountBatch(n int, latUS float64) {
	s.deviceReads.Add(int64(n))
	s.batches.Add(1)
	for {
		cur := s.maxBatch.Load()
		if int64(n) <= cur || s.maxBatch.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	for {
		cur := s.simBusyUS.Load()
		next := math.Float64bits(math.Float64frombits(cur) + latUS)
		if s.simBusyUS.CompareAndSwap(cur, next) {
			break
		}
	}
	s.service.Observe(latUS)
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	queued := s.queuedLocked()
	s.mu.Unlock()
	st := Stats{
		TargetQueueDepth:     s.cfg.QueueDepth,
		AccumulationWindowUS: float64(s.cfg.Window) / float64(time.Microsecond),
		DemandReads:          s.submitted[Demand].Load(),
		PrefetchReads:        s.submitted[Prefetch].Load(),
		DeviceReads:          s.deviceReads.Load(),
		Batches:              s.batches.Load(),
		MaxBatchSize:         s.maxBatch.Load(),
		Coalesced:            s.coalesced.Load(),
		CoalescedLate:        s.coalescedLate.Load(),
		Rejected:             s.rejected.Load(),
		QueuedNow:            queued,
		SimBusyUS:            math.Float64frombits(s.simBusyUS.Load()),
		QueueWait:            s.queueWait.Snapshot(),
		Service:              s.service.Snapshot(),
	}
	if st.Batches > 0 {
		st.AvgBatchSize = float64(st.DeviceReads) / float64(st.Batches)
	}
	return st
}

// Close stops accepting new reads, lets every already-queued read complete
// and stops the dispatcher. Reads submitted after Close fail with ErrClosed.
// Close is idempotent and safe to call concurrently.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	<-s.done
	return nil
}
