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
// There is no dispatcher goroutine. A submitter queues its reads and takes
// the issue token; the submitter holding the token dispatches — batches from
// everything queued, demand first — until its own reads have been taken, by
// it or by an earlier holder. The others wait for the token or, having
// coalesced, for their read. An uncontended miss never leaves its goroutine,
// and a waiting one still holds the locks it submitted under, which core's
// rewrite exclusion (in-flight miss reads drain under a per-table RWMutex
// before a bulk copy-into-place) relies on.
//
// A batch is what the device model is told overlaps. The file backend serves
// it as sequential preads, so the service latency reported here is the
// model's, not the wall clock's.
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
	// gate, when non-nil, is called by the token holder after assembling each
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

// op is one block read of a ReadBlocks call; a call's ops are one slice. An
// op that finds no read of its block pending leads: it is queued, and the
// token holder reads its block into dst. The others follow the pending op
// (shared) and wait on its done channel.
type op struct {
	block int
	pri   Priority
	// tag is the leader's opaque version tag (see ReadBlocks); followers
	// receive it as ReadResult.LeaderTag.
	tag uint64
	// dst is the caller's buffer from this block's position to its end: the
	// first BlockSize bytes are this op's, the tail lets inPlace see that a
	// batch of one call's consecutive blocks is one run of memory.
	dst    []byte
	shared *op // the op this one follows; nil for a leader

	// done and buf exist once a follower has attached (the first makes them,
	// under Scheduler.mu, while the op is in the pending map, so the issuer
	// sees them): done closes when the read has completed, buf is the pooled
	// copy of the block the followers read. refs counts the followers; the
	// last to finish returns buf to the pool.
	done chan struct{}
	buf  *[]byte
	refs atomic.Int32

	lat float64
	err error

	// issued flips (under Scheduler.mu) when a token holder takes the op into
	// a batch; followers attaching after that point are marked Late.
	issued bool
	// skips counts dispatches that passed this op over while it headed its
	// queue (anti-starvation accounting for the background class).
	skips int

	enqueued time.Time
	waitUS   float64 // enqueue to batch, set by issue
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
	// longer matches their current version (see ReadBlocks).
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

	// token is the right to issue: one device batch is in flight at a time,
	// and reads arriving meanwhile queue up to form the next. Lock order:
	// token, then mu. batch and idxs are the holder's scratch.
	token sync.Mutex
	batch []*op
	idxs  []int
	// filled nudges a holder waiting the accumulation window out: the queue
	// has reached the target depth, or the scheduler has closed.
	filled chan struct{}

	// Counters (atomics: hot-path increments take no lock).
	submitted      [numPriorities]atomic.Int64
	deviceReads    atomic.Int64
	batches        atomic.Int64
	bouncedBatches atomic.Int64
	maxBatch       atomic.Int64
	coalesced      atomic.Int64
	coalescedLate  atomic.Int64
	rejected       atomic.Int64
	simBusyUS      atomic.Uint64 // float64 bits

	// queueWait tracks wall-clock submission-to-dispatch time per read, of
	// which tokenWait (per call) is the wait to become the dispatcher;
	// service tracks simulated device time per dispatched batch. Together
	// they say where a miss's I/O time went: a batch slot vs the device.
	queueWait *metrics.Histogram
	tokenWait *metrics.Histogram
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
	// BouncedBatches counts dispatches that mixed callers and so went through
	// a pooled buffer instead of being read in place.
	BouncedBatches int64 `json:"bouncedBatches"`
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
	// Service decompose the total miss-path I/O latency. TokenWait is the
	// part of QueueWait spent waiting for the issue token, one sample per
	// call with a read of its own to dispatch.
	QueueWait metrics.Snapshot `json:"queueWaitUS"`
	TokenWait metrics.Snapshot `json:"tokenWaitUS"`
	Service   metrics.Snapshot `json:"serviceUS"`
}

// New creates a scheduler over device. It starts no goroutine: reads are
// issued by the goroutines that submit them. Close drains it.
func New(device *nvm.Device, cfg Config) (*Scheduler, error) {
	if device == nil {
		return nil, errors.New("iosched: nil device")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Scheduler{
		device:    device,
		cfg:       cfg,
		pending:   make(map[int]*op),
		batch:     make([]*op, 0, cfg.QueueDepth),
		idxs:      make([]int, cfg.QueueDepth),
		filled:    make(chan struct{}, 1),
		queueWait: metrics.NewLatencyHistogram(),
		tokenWait: metrics.NewLatencyHistogram(),
		service:   metrics.NewLatencyHistogram(),
	}, nil
}

// Config returns the scheduler's effective (normalized) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// ReadBlock is ReadBlocks of one block.
func (s *Scheduler) ReadBlock(block int, dst []byte, pri Priority, tag uint64) (ReadResult, error) {
	results, err := s.ReadBlocks([]int{block}, dst, pri, tag)
	if results == nil {
		return ReadResult{}, err
	}
	return results[0], err
}

// ReadBlocks submits len(blocks) reads at the given priority and returns when
// all have completed; block blocks[i] lands in dst[i*BlockSize:]. It returns
// per-read results (aligned with blocks) and the first error, if any. The
// reads are independent scheduler ops: they may be dispatched in one device
// batch, split across several, or coalesce with other callers' reads. tag is
// an opaque caller version (e.g. a table epoch loaded before the call): it
// travels with the reads that touch the device and comes back to every read
// coalesced onto them as ReadResult.LeaderTag, which is what lets callers
// detect a stale Late-coalesced result exactly.
func (s *Scheduler) ReadBlocks(blocks []int, dst []byte, pri Priority, tag uint64) ([]ReadResult, error) {
	if len(dst) < len(blocks)*nvm.BlockSize {
		return nil, fmt.Errorf("iosched: destination buffer too small for %d blocks: %d", len(blocks), len(dst))
	}
	if pri < 0 || pri >= numPriorities {
		return nil, fmt.Errorf("iosched: invalid priority %d", int(pri))
	}
	results := make([]ReadResult, len(blocks))
	ops := make([]op, len(blocks))
	enqueued := time.Now()

	// The whole call is queued (or coalesced) under one lock.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(int64(len(blocks)))
		return nil, ErrClosed
	}
	s.submitted[pri].Add(int64(len(blocks)))
	leaders := 0
	for i, b := range blocks {
		o := &ops[i]
		if lead, ok := s.pending[b]; ok {
			o.shared = lead
			results[i] = s.followLocked(lead, pri)
			continue
		}
		o.block, o.pri, o.tag, o.enqueued = b, pri, tag, enqueued
		o.dst = dst[i*nvm.BlockSize:]
		s.pending[b] = o
		s.queues[pri] = append(s.queues[pri], o)
		results[i].LeaderTag = tag
		leaders++
	}
	full := s.cfg.Window > 0 && s.queuedLocked() >= s.cfg.QueueDepth
	s.mu.Unlock()
	if full {
		s.nudge()
	}

	if leaders > 0 {
		// Dispatch until every read of this call has been taken into a batch.
		// A batch completes before its issuer gives the token up, so a read
		// an earlier holder took is complete by the time the token is ours.
		s.token.Lock()
		s.tokenWait.Observe(float64(time.Since(enqueued)) / float64(time.Microsecond))
		queued := ops
		s.dispatchUntil(func() bool {
			for len(queued) > 0 && (queued[0].shared != nil || queued[0].issued) {
				queued = queued[1:]
			}
			return len(queued) == 0
		})
		s.token.Unlock()
	}

	var firstErr error
	for i := range results {
		lead := &ops[i]
		if lead.shared != nil {
			lead = lead.shared
			<-lead.done
			if lead.err == nil {
				copy(dst[i*nvm.BlockSize:(i+1)*nvm.BlockSize], *lead.buf)
			}
			if lead.refs.Add(-1) == 0 {
				nvm.PutBlockBuf(lead.buf)
			}
		}
		results[i].LatencyUS, results[i].WaitUS = lead.lat, lead.waitUS
		if lead.err != nil && firstErr == nil {
			firstErr = lead.err
		}
	}
	return results, firstErr
}

// followLocked attaches one read to the pending read of its block. Callers
// hold s.mu.
func (s *Scheduler) followLocked(lead *op, pri Priority) ReadResult {
	lead.refs.Add(1)
	if lead.done == nil {
		lead.done = make(chan struct{})
		lead.buf = nvm.GetBlockBuf()
	}
	// A demand read coalescing onto a queued prefetch read must not inherit
	// its low urgency: promote the shared op.
	if !lead.issued && pri < lead.pri {
		s.promoteLocked(lead, pri)
	}
	s.coalesced.Add(1)
	if lead.issued {
		s.coalescedLate.Add(1)
	}
	// Surface the coalesced read in the device's stats section next to the
	// batch counters it complements.
	s.device.NoteCoalescedRead()
	return ReadResult{Coalesced: true, Late: lead.issued, LeaderTag: lead.tag}
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

// queuedLocked returns the total queued op count. Callers hold s.mu.
func (s *Scheduler) queuedLocked() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// nudge wakes a token holder waiting the accumulation window out.
func (s *Scheduler) nudge() {
	select {
	case s.filled <- struct{}{}:
	default:
	}
}

// prefetchStarvationSkips bounds how many consecutive dispatches may pass
// over a queued background read before it is granted a batch slot ahead of
// demand traffic. Demand still dominates every batch; the bound exists
// because background reads can be awaited under locks (UpdateVector's
// read-modify-write holds updateMu, which snapshot export also needs), so
// "deferred while demand keeps arriving" must mean bounded, not forever.
const prefetchStarvationSkips = 8

// takeBatchLocked moves up to the target depth of ops from the queues into
// the holder's scratch batch, demand first, and marks them issued. A
// background op that has been passed over by prefetchStarvationSkips
// dispatches takes the first slot. Callers hold the token and s.mu.
func (s *Scheduler) takeBatchLocked() []*op {
	batch := s.batch[:0]
	take := func(pri Priority, n int) {
		q := s.queues[pri]
		for _, o := range q[:n] {
			o.issued = true
		}
		batch = append(batch, q[:n]...)
		// Close the gap: the queue keeps its array, so queueing never allocates.
		rest := copy(q, q[n:])
		clear(q[rest:])
		s.queues[pri] = q[:rest]
	}
	if q := s.queues[Prefetch]; len(q) > 0 && q[0].skips >= prefetchStarvationSkips {
		take(Prefetch, 1)
	}
	for pri := range s.queues {
		take(Priority(pri), min(len(s.queues[pri]), s.cfg.QueueDepth-len(batch)))
	}
	// The head blocks its whole FIFO queue, so aging it is enough.
	if q := s.queues[Prefetch]; len(q) > 0 {
		q[0].skips++
	}
	return batch
}

// dispatchUntil is the issue loop: assemble a batch from the submission
// queues, read it, fan it out, until done — evaluated under s.mu, and false
// only while something is queued — says stop. The caller holds the token.
func (s *Scheduler) dispatchUntil(done func() bool) {
	for {
		s.mu.Lock()
		if done() {
			s.mu.Unlock()
			return
		}
		// Accumulate toward the target queue depth, but never hold the
		// oldest read past the configured window: the window bounds added
		// latency, it does not guarantee full batches.
		if w := s.cfg.Window; w > 0 {
			oldest := time.Now()
			for _, q := range s.queues {
				if len(q) > 0 && q[0].enqueued.Before(oldest) {
					oldest = q[0].enqueued
				}
			}
			for s.queuedLocked() < s.cfg.QueueDepth && !s.closed {
				wait := w - time.Since(oldest)
				if wait <= 0 {
					break
				}
				s.mu.Unlock()
				timer := time.NewTimer(wait)
				select {
				case <-s.filled:
					timer.Stop()
				case <-timer.C:
				}
				s.mu.Lock()
			}
		}
		batch := s.takeBatchLocked()
		s.mu.Unlock()
		s.issue(batch)
	}
}

// inPlace returns the memory a batch can be read straight into: its ops'
// destinations, when they are one run in batch order — which a batch of one
// call's consecutive blocks is — and nil when they are not.
func inPlace(batch []*op) []byte {
	run := batch[0].dst
	if len(run) < len(batch)*nvm.BlockSize {
		return nil
	}
	for i, o := range batch[1:] {
		if &o.dst[0] != &run[(i+1)*nvm.BlockSize] {
			return nil
		}
	}
	return run[:len(batch)*nvm.BlockSize]
}

// issue sends one assembled, non-empty batch to the device as one ReadBlocks
// call and fans the results out. The caller holds the token.
func (s *Scheduler) issue(batch []*op) {
	idxs := s.idxs[:len(batch)]
	now := time.Now()
	for i, o := range batch {
		idxs[i] = o.block
		// Queue wait ends here: the op is leaving the queue for the device.
		o.waitUS = float64(now.Sub(o.enqueued)) / float64(time.Microsecond)
		s.queueWait.Observe(o.waitUS)
	}
	if s.cfg.gate != nil {
		s.cfg.gate(idxs)
	}

	// A batch mixing callers has no one destination: it is read into a
	// pooled buffer and copied out.
	dst := inPlace(batch)
	var bounce *[]byte
	if dst == nil {
		bounce = nvm.GetBatchBuf(len(batch))
		defer nvm.PutBatchBuf(bounce)
		dst = *bounce
		s.bouncedBatches.Add(1)
	}
	lat, err := s.device.ReadBlocks(idxs, dst)

	// Freeze the follower set before fanning results out: once the ops leave
	// the pending map no follower can attach, so every done channel and
	// shared buffer a follower made is visible (it was made under the same
	// mutex) and is served below.
	s.mu.Lock()
	for _, o := range batch {
		delete(s.pending, o.block)
	}
	s.mu.Unlock()

	switch {
	case err != nil && len(batch) > 1:
		// One bad block (out of range, backend I/O error) must not poison
		// the innocent reads batched with it: retry each block alone so
		// the error lands only on the op that caused it.
		s.retrySingly(batch)
	case err != nil:
		batch[0].err = err
	default:
		for i, o := range batch {
			o.lat = lat
			src := dst[i*nvm.BlockSize : (i+1)*nvm.BlockSize]
			if bounce != nil {
				copy(o.dst, src)
			}
			if o.buf != nil {
				copy(*o.buf, src)
			}
		}
		s.accountBatch(len(batch), lat)
	}
	for _, o := range batch {
		if o.done != nil {
			close(o.done)
		}
	}
	clear(batch) // the scratch outlives the call; the ops should not
}

// retrySingly re-reads every op of a failed batch individually, attributing
// errors per block. The ops are already out of the pending map.
func (s *Scheduler) retrySingly(batch []*op) {
	for _, o := range batch {
		own := o.dst[:nvm.BlockSize]
		o.lat, o.err = s.device.ReadBlock(o.block, own)
		if o.err == nil {
			if o.buf != nil {
				copy(*o.buf, own)
			}
			s.accountBatch(1, o.lat)
		}
	}
}

// accountBatch records one device dispatch of n reads with the given
// simulated completion latency. The caller holds the token, so the counters
// have one writer; they are atomics for Stats.
func (s *Scheduler) accountBatch(n int, latUS float64) {
	s.deviceReads.Add(int64(n))
	s.batches.Add(1)
	if int64(n) > s.maxBatch.Load() {
		s.maxBatch.Store(int64(n))
	}
	s.simBusyUS.Store(math.Float64bits(math.Float64frombits(s.simBusyUS.Load()) + latUS))
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
		BouncedBatches:       s.bouncedBatches.Load(),
		Coalesced:            s.coalesced.Load(),
		CoalescedLate:        s.coalescedLate.Load(),
		Rejected:             s.rejected.Load(),
		QueuedNow:            queued,
		SimBusyUS:            math.Float64frombits(s.simBusyUS.Load()),
		QueueWait:            s.queueWait.Snapshot(),
		TokenWait:            s.tokenWait.Snapshot(),
		Service:              s.service.Snapshot(),
	}
	if st.Batches > 0 {
		st.AvgBatchSize = float64(st.DeviceReads) / float64(st.Batches)
	}
	return st
}

// Close stops accepting reads (they fail with ErrClosed) and drains what is
// queued: it takes the token and dispatches until the queues are empty, so
// every accepted read has completed when it returns. It is idempotent and
// safe to call concurrently.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.nudge()
	s.token.Lock()
	s.dispatchUntil(func() bool { return s.queuedLocked() == 0 })
	s.token.Unlock()
	return nil
}
