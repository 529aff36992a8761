// Package iosched is the block I/O scheduler that sits between the serving
// engine (internal/core) and the NVM device (internal/nvm).
//
// The paper's central hardware observation is that block NVM only delivers
// its bandwidth at high device queue depth: a read issued alone costs ~10 us
// and ~0.6 GB/s, while eight overlapping reads cost ~33 us each but deliver
// 2.3 GB/s (Figure 2). A serving system whose misses wait for one another
// therefore leaves most of the device on the table. This package lets them
// overlap, and keeps them from doing redundant or unfair work:
//
//   - Issue slots: up to QueueDepth calls have device reads in flight at
//     once. Every submitter reads its own misses straight into its own
//     buffer, as runs of at most QueueDepth consecutive blocks, so two
//     requests' misses reach the device together instead of one after the
//     other.
//   - Coalescing (singleflight): concurrent requests for the same block —
//     e.g. a miss storm on one hot vector — share a single device read whose
//     result is fanned out to every waiter.
//   - FIFO grants: when every slot is held, waiting calls are granted slots
//     in arrival order.
//
// There is no dispatcher goroutine and no batching across callers. A call
// registers its reads under one lock — each block either leads (no read of it
// is pending) or follows the pending read — takes a slot or queues for one,
// reads its leaders, wakes their followers, gives the slot up, and only then
// waits for the reads it follows. A slot is never held while waiting on
// another call, so no wait cycle can form. A waiting caller still holds the
// locks it submitted under, which core's rewrite exclusion (in-flight miss
// reads drain under a per-table RWMutex before a bulk copy-into-place)
// relies on.
//
// An O_DIRECT file store serves one device call block by block with
// sequential preads, so the realised queue depth is the number of concurrent
// issuers — Stats.InFlight, bounded by QueueDepth. The service time reported
// here is each device call's wall time. A store whose blocks are memory (the
// mem backend, a buffered file store's mapping) has its misses read in place
// (nvm.Device.VisitBlocks), and the compactor reads the device directly, so
// in the store only O_DIRECT demand misses come here.
package iosched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/metrics"
	"bandana/internal/nvm"
)

// Priority labels a read for accounting only: Stats counts submitted reads
// per label, and every call is granted its slot in arrival order whatever
// its label. The labels survive because bench/ (which this repo's PRs may
// not edit outside a benchmark PR) compiles against Demand and reads both
// per-label counters.
type Priority int

const (
	// Demand labels a read a caller is waiting on (a cache miss on the
	// serving path).
	Demand Priority = iota
	// Prefetch labels a background read.
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

// DefaultQueueDepth is the number of issue slots when Config leaves
// QueueDepth zero — the depth at which the paper's device saturates.
const DefaultQueueDepth = 8

// MaxTargetQueueDepth bounds configurable queue depths; beyond the device's
// saturation point deeper queues only add latency, so a huge value is a
// configuration mistake, not a tuning choice.
const MaxTargetQueueDepth = 256

// ErrClosed is returned by reads submitted after Close.
var ErrClosed = errors.New("iosched: scheduler closed")

// Config configures a Scheduler.
type Config struct {
	// QueueDepth is the number of issue slots — how many calls may have
	// device reads in flight at once — and the most blocks one device call
	// carries. 0 uses DefaultQueueDepth.
	QueueDepth int
	// gate, when non-nil, is called by the issuer before each device call
	// with the call's blocks — a test hook that makes concurrency tests
	// deterministic. Set via WithGate (export_test.go).
	gate func(blocks []int)
}

func (c *Config) normalize() error {
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.QueueDepth < 1 || c.QueueDepth > MaxTargetQueueDepth {
		return fmt.Errorf("iosched: queue depth %d out of range [1,%d]", c.QueueDepth, MaxTargetQueueDepth)
	}
	return nil
}

// op is one block read of a ReadBlocks call; a call's ops are one slice. An
// op that finds no read of its block pending leads: its call reads the block
// into the caller's buffer. The others follow the pending op (shared) and
// wait on its done channel.
type op struct {
	// tag is the leader's opaque version tag (see ReadBlocks); followers
	// receive it as ReadResult.LeaderTag.
	tag    uint64
	shared *op // the op this one follows; nil for a leader

	// done and buf exist once a follower has attached (the first makes them,
	// under Scheduler.mu, while the op is in the pending map, so the issuer
	// sees them): done closes when the read has completed, buf is the pooled
	// copy of the block the followers read. refs counts the followers; the
	// last to finish returns buf to the pool.
	done chan struct{}
	buf  *[]byte
	refs atomic.Int32

	err    error
	waitUS float64 // submission to slot, set by the issuer

	// issued flips (under Scheduler.mu) when the op's call holds a slot;
	// followers attaching after that point are marked Late.
	issued bool
}

// call is a ReadBlocks call waiting for an issue slot.
type call struct {
	ops     []op // the call's ops; its leaders are issued when it is granted
	leaders int
	ready   chan struct{} // closed when the call is granted a slot
}

// ReadResult describes how one submitted read was served.
type ReadResult struct {
	// WaitUS is the wall-clock time the call that read the block spent
	// between submission and holding an issue slot (the queue-wait
	// component). For a coalesced read this is the leader's wait.
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

// Scheduler is a per-device block-read scheduler. All methods are safe for
// concurrent use.
type Scheduler struct {
	device *nvm.Device
	cfg    Config

	mu      sync.Mutex
	pending map[int]*op // block -> coalescable op (waiting or in flight)
	waiting []*call     // calls waiting for a slot, in arrival order
	queued  int         // leaders of waiting calls
	free    int         // slots nobody holds; > 0 only while no call waits
	maxHeld int
	closed  bool
	idle    sync.Cond // signalled when a closed scheduler's last slot frees

	// Counters (atomics: hot-path increments take no lock).
	submitted     [numPriorities]atomic.Int64
	deviceReads   atomic.Int64
	batches       atomic.Int64
	maxBatch      atomic.Int64
	coalesced     atomic.Int64
	coalescedLate atomic.Int64
	rejected      atomic.Int64

	// queueWait tracks submission-to-slot time per read; service tracks the
	// wall time of each device call. Together they say where a miss's I/O
	// time went: a slot vs the device.
	queueWait *metrics.Histogram
	service   *metrics.Histogram
}

// Stats is a snapshot of scheduler counters.
type Stats struct {
	// TargetQueueDepth echoes the effective number of issue slots.
	TargetQueueDepth int `json:"targetQueueDepth"`
	// DemandReads / PrefetchReads count submitted reads per Priority label
	// (including coalesced ones).
	DemandReads   int64 `json:"demandReads"`
	PrefetchReads int64 `json:"prefetchReads"`
	// DeviceReads counts reads that reached the device.
	DeviceReads int64 `json:"deviceReads"`
	// Batches counts device calls; AvgBatchSize = DeviceReads/Batches. A
	// device call is one run of a single caller's leaders (at most
	// QueueDepth blocks), never reads of several callers merged, so
	// AvgBatchSize is blocks per per-call run.
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
	// QueuedNow is the number of reads waiting for an issue slot.
	QueuedNow int `json:"queuedNow"`
	// InFlight is the number of issue slots held now — the realised queue
	// depth in calls — and MaxInFlight its high-water mark.
	InFlight    int `json:"inFlight"`
	MaxInFlight int `json:"maxInFlight"`
	// QueueWait summarizes submission-to-slot time per read and Service the
	// wall time of each device call (its count is Batches, not DeviceReads),
	// both in microseconds. QueueWait + Service decompose the total
	// miss-path I/O latency.
	QueueWait metrics.Snapshot `json:"queueWaitUS"`
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
	s := &Scheduler{
		device:    device,
		cfg:       cfg,
		pending:   make(map[int]*op),
		free:      cfg.QueueDepth,
		queueWait: metrics.NewLatencyHistogram(),
		service:   metrics.NewLatencyHistogram(),
	}
	s.idle.L = &s.mu
	return s, nil
}

// MetricsBytes is the heap of the scheduler's queue-wait and service
// histograms.
func (s *Scheduler) MetricsBytes() int64 { return s.queueWait.SizeBytes() + s.service.SizeBytes() }

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

// ReadBlocks submits len(blocks) reads labelled pri and returns when
// all have completed; block blocks[i] lands in dst[i*BlockSize:]. It returns
// per-read results (aligned with blocks) and the first error, if any. The
// reads the call leads are issued by the calling goroutine, in device calls
// of up to QueueDepth consecutive blocks; the others coalesce with other
// callers' reads of the same blocks. tag is an opaque caller version (e.g. a
// table epoch loaded before the call): it travels with the reads that touch
// the device and comes back to every read coalesced onto them as
// ReadResult.LeaderTag, which is what lets callers detect a stale
// Late-coalesced result exactly.
func (s *Scheduler) ReadBlocks(blocks []int, dst []byte, pri Priority, tag uint64) ([]ReadResult, error) {
	if len(dst) < len(blocks)*nvm.BlockSize {
		return nil, fmt.Errorf("iosched: destination buffer too small for %d blocks: %d", len(blocks), len(dst))
	}
	if pri < 0 || pri >= numPriorities {
		return nil, fmt.Errorf("iosched: invalid priority %d", int(pri))
	}
	results := make([]ReadResult, len(blocks))
	ops := make([]op, len(blocks))
	submitted := time.Now()

	// The whole call is registered, and takes its slot or queues for one,
	// under one lock.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(int64(len(blocks)))
		return nil, ErrClosed
	}
	s.submitted[pri].Add(int64(len(blocks)))
	slot := s.free > 0
	var c *call
	if !slot {
		c = &call{ops: ops}
	}
	leaders := 0
	for i, b := range blocks {
		o := &ops[i]
		if lead, ok := s.pending[b]; ok {
			o.shared = lead
			results[i] = s.followLocked(lead)
			continue
		}
		o.tag, o.issued = tag, slot
		s.pending[b] = o
		results[i].LeaderTag = tag
		leaders++
	}
	switch {
	case leaders == 0:
	case slot:
		s.free--
		s.maxHeld = max(s.maxHeld, s.cfg.QueueDepth-s.free)
	default:
		c.leaders, c.ready = leaders, make(chan struct{})
		s.waiting = append(s.waiting, c)
		s.queued += leaders
	}
	s.mu.Unlock()

	if leaders > 0 {
		if !slot {
			<-c.ready
		}
		wait := usSince(submitted)
		for i := range ops {
			if ops[i].shared == nil {
				ops[i].waitUS = wait
				s.queueWait.Observe(wait)
			}
		}
		s.issue(blocks, dst, ops)
		s.release()
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
		results[i].WaitUS = lead.waitUS
		if lead.err != nil && firstErr == nil {
			firstErr = lead.err
		}
	}
	return results, firstErr
}

// followLocked attaches one read to the pending read of its block. Callers
// hold s.mu.
func (s *Scheduler) followLocked(lead *op) ReadResult {
	lead.refs.Add(1)
	if lead.done == nil {
		lead.done = make(chan struct{})
		lead.buf = nvm.GetBlockBuf()
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

// release gives up the caller's slot: straight to the call that has waited
// longest, or back to the free pool.
func (s *Scheduler) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiting) == 0 {
		s.free++
		if s.closed && s.free == s.cfg.QueueDepth {
			s.idle.Broadcast()
		}
		return
	}
	c := s.waiting[0]
	// Delete, not reslice: a grantee left in the array would pin the
	// caller's buffer and ops.
	s.waiting = slices.Delete(s.waiting, 0, 1)
	for i := range c.ops {
		if c.ops[i].shared == nil {
			c.ops[i].issued = true
		}
	}
	s.queued -= c.leaders
	close(c.ready)
}

// issue reads a call's leaders into dst, one device call per run of at most
// QueueDepth consecutive leaders. The caller holds a slot.
func (s *Scheduler) issue(blocks []int, dst []byte, ops []op) {
	for i := 0; i < len(ops); {
		if ops[i].shared != nil {
			i++
			continue
		}
		j := i + 1
		for j < len(ops) && j-i < s.cfg.QueueDepth && ops[j].shared == nil {
			j++
		}
		s.readRun(blocks[i:j], dst[i*nvm.BlockSize:j*nvm.BlockSize], ops[i:j])
		i = j
	}
}

// readRun reads one run of leaders with one device call and wakes their
// followers.
func (s *Scheduler) readRun(blocks []int, dst []byte, run []op) {
	if s.cfg.gate != nil {
		s.cfg.gate(blocks)
	}
	start := time.Now()
	err := s.device.ReadBlocks(blocks, dst)
	us := usSince(start)

	// Freeze the follower set before fanning results out: once the ops leave
	// the pending map no follower can attach, so every done channel and
	// shared buffer a follower made is visible (it was made under the same
	// mutex) and is served below.
	s.mu.Lock()
	for _, b := range blocks {
		delete(s.pending, b)
	}
	s.mu.Unlock()

	switch {
	case err != nil && len(run) > 1:
		// One bad block (out of range, backend I/O error) must not poison
		// the innocent reads of its run, nor their followers: retry each
		// block alone so the error lands only on the op that caused it.
		s.retrySingly(blocks, dst, run)
	case err != nil:
		run[0].err = err
	default:
		for i := range run {
			if run[i].buf != nil {
				copy(*run[i].buf, dst[i*nvm.BlockSize:(i+1)*nvm.BlockSize])
			}
		}
		s.accountBatch(len(run), us)
	}
	for i := range run {
		if run[i].done != nil {
			close(run[i].done)
		}
	}
}

// retrySingly re-reads every op of a failed run individually, attributing
// errors per block. The ops are already out of the pending map.
func (s *Scheduler) retrySingly(blocks []int, dst []byte, run []op) {
	for i := range run {
		o, own := &run[i], dst[i*nvm.BlockSize:(i+1)*nvm.BlockSize]
		start := time.Now()
		if o.err = s.device.ReadBlocks(blocks[i:i+1], own); o.err == nil {
			if o.buf != nil {
				copy(*o.buf, own)
			}
			s.accountBatch(1, usSince(start))
		}
	}
}

// accountBatch records one successful device call of n reads that took us
// microseconds. Several issuers record at once, hence the CAS loop.
func (s *Scheduler) accountBatch(n int, us float64) {
	s.deviceReads.Add(int64(n))
	s.batches.Add(1)
	for cur := s.maxBatch.Load(); int64(n) > cur; cur = s.maxBatch.Load() {
		if s.maxBatch.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	s.service.Observe(us)
}

// usSince is the time since start in microseconds.
func usSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Microsecond)
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	queued, held, maxHeld := s.queued, s.cfg.QueueDepth-s.free, s.maxHeld
	s.mu.Unlock()
	st := Stats{
		TargetQueueDepth: s.cfg.QueueDepth,
		DemandReads:      s.submitted[Demand].Load(),
		PrefetchReads:    s.submitted[Prefetch].Load(),
		DeviceReads:      s.deviceReads.Load(),
		Batches:          s.batches.Load(),
		MaxBatchSize:     s.maxBatch.Load(),
		Coalesced:        s.coalesced.Load(),
		CoalescedLate:    s.coalescedLate.Load(),
		Rejected:         s.rejected.Load(),
		QueuedNow:        queued,
		InFlight:         held,
		MaxInFlight:      maxHeld,
		QueueWait:        s.queueWait.Snapshot(),
		Service:          s.service.Snapshot(),
	}
	if st.Batches > 0 {
		st.AvgBatchSize = float64(st.DeviceReads) / float64(st.Batches)
	}
	return st
}

// Close stops accepting reads (they fail with ErrClosed) and waits until no
// slot is held and no call waits for one, so every accepted read has been
// issued and completed when it returns. It is idempotent and safe to call
// concurrently.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for s.free < s.cfg.QueueDepth {
		s.idle.Wait()
	}
	return nil
}
