package nvm

import (
	"fmt"
	"math"
	"sync/atomic"

	"bandana/internal/metrics"
)

// DeviceConfig configures a simulated NVM device.
type DeviceConfig struct {
	// NumBlocks is the device capacity in 4 KB blocks.
	NumBlocks int
	// Store optionally supplies the backing storage; a MemStore of NumBlocks
	// is created when nil.
	Store BlockStore
	// Model optionally supplies the performance model; the default
	// calibration is used when nil.
	Model *PerformanceModel
	// Seed seeds the latency sampler: a device reproduces its latency
	// sequence for a seed when one goroutine reads.
	Seed int64
	// EnduranceDWPD is the number of full drive writes per day the device
	// tolerates (the paper quotes ~30). Used only for reporting.
	EnduranceDWPD float64
}

// Device is a simulated block NVM device: a block store plus a performance
// model plus accounting. Only ReadBlock and ReadBlockQD draw from the model
// (the fio experiments and direct device drives); the serving path's reads
// draw nothing. All methods are safe for concurrent use.
type Device struct {
	store BlockStore
	model *PerformanceModel
	noise normalSource

	inflight    atomic.Int64
	maxInflight atomic.Int64

	blocksRead     metrics.Counter
	blocksWritten  metrics.Counter
	readBatches    metrics.Counter
	coalescedReads metrics.Counter
	readLatency    *metrics.Histogram

	enduranceDWPD float64
}

// NewDevice creates a simulated device.
func NewDevice(cfg DeviceConfig) *Device {
	store := cfg.Store
	if store == nil {
		store = NewMemStore(cfg.NumBlocks)
	}
	model := cfg.Model
	if model == nil {
		model = NewPerformanceModel(nil)
	}
	dwpd := cfg.EnduranceDWPD
	if dwpd <= 0 {
		dwpd = 30
	}
	return &Device{
		store:         store,
		model:         model,
		noise:         normalSource{seed: uint64(cfg.Seed)},
		readLatency:   metrics.NewLatencyHistogram(),
		enduranceDWPD: dwpd,
	}
}

// MetricsBytes is the heap of the device's read-latency histogram.
func (d *Device) MetricsBytes() int64 { return d.readLatency.SizeBytes() }

// HeapBlockBytes is the heap the device's blocks take: all of them when its
// store is a MemStore (or embeds one), 0 for a file store, whose blocks are
// on disk or in the page cache.
func (d *Device) HeapBlockBytes() int64 {
	if m, ok := d.store.(interface{ heapBytes() int64 }); ok {
		return m.heapBytes()
	}
	return 0
}

// NumBlocks returns the device capacity in blocks.
func (d *Device) NumBlocks() int { return d.store.NumBlocks() }

// CapacityBytes returns the device capacity in bytes.
func (d *Device) CapacityBytes() int64 { return int64(d.store.NumBlocks()) * BlockSize }

// Model returns the device's performance model.
func (d *Device) Model() *PerformanceModel { return d.model }

// ReadBlock reads block idx into dst (>= BlockSize bytes) and returns the
// simulated latency in microseconds. The latency depends on how many reads
// are concurrently outstanding, mirroring the queue-depth behaviour of the
// real device.
func (d *Device) ReadBlock(idx int, dst []byte) (latencyUS float64, err error) {
	return d.ReadBlockQD(idx, dst, 1)
}

// ReadBlockQD is like ReadBlock but lets the caller declare the queue depth
// it is driving the device at (e.g. a Fio-style benchmark with a configured
// iodepth). The effective queue depth used for latency sampling is the
// larger of the declared depth and the number of reads actually in flight.
func (d *Device) ReadBlockQD(idx int, dst []byte, queueDepth int) (latencyUS float64, err error) {
	inflight := int(d.inflight.Add(1))
	defer d.inflight.Add(-1)
	if queueDepth > inflight {
		inflight = queueDepth
	}
	d.noteQueueDepth(int64(inflight))

	if err := d.store.ReadBlock(idx, dst); err != nil {
		return 0, err
	}
	latencyUS = d.model.latencyAtUS(d.noise.at(d.noise.take(1)), inflight)

	d.blocksRead.Inc()
	d.readBatches.Inc()
	d.readLatency.Observe(latencyUS)
	return latencyUS, nil
}

// normalSource is the latency model's noise: standard normal draws that
// take no lock. Draw k is a pure function of the seed and k — Box–Muller
// over outputs 2k and 2k+1 of the SplitMix64 stream the seed starts — and
// readers reserve draws with one atomic add, so a device read by one
// goroutine repeats its latency sequence for a seed.
type normalSource struct {
	seed  uint64
	draws atomic.Uint64
}

// take reserves n consecutive draws and returns the index of the first.
func (s *normalSource) take(n int) uint64 { return s.draws.Add(uint64(n)) - uint64(n) }

// at returns draw k.
func (s *normalSource) at(k uint64) float64 {
	// Two uniforms in (0, 1]: the top 53 bits of each output, plus one.
	u1 := float64(splitmix64(s.seed, 2*k)>>11+1) / (1 << 53)
	u2 := float64(splitmix64(s.seed, 2*k+1)>>11+1) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// splitmix64 returns output i of the SplitMix64 stream seeded with seed.
func splitmix64(seed, i uint64) uint64 {
	x := seed + (i+1)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// noteQueueDepth tracks the high-water read queue depth for Stats.
func (d *Device) noteQueueDepth(depth int64) {
	for {
		cur := d.maxInflight.Load()
		if depth <= cur || d.maxInflight.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// NoteCoalescedRead records a read that was served from another read's
// device I/O without reaching the device (reported by the I/O scheduler, so
// the device stats section shows coalescing next to the batch counters).
func (d *Device) NoteCoalescedRead() { d.coalescedReads.Inc() }

// ReadBlocks reads len(idxs) blocks into dst (>= len(idxs)*BlockSize bytes)
// as one batch of depth len(idxs). It draws no modelled latency: a caller
// that wants the batch's cost times it by the wall clock.
func (d *Device) ReadBlocks(idxs []int, dst []byte) error {
	if len(idxs) == 0 {
		return nil
	}
	d.noteQueueDepth(d.inflight.Add(int64(len(idxs))))
	defer d.inflight.Add(int64(-len(idxs)))

	if err := d.store.ReadBlocks(idxs, dst); err != nil {
		return err
	}
	d.blocksRead.Add(int64(len(idxs)))
	d.readBatches.Inc()
	return nil
}

// ReadsInPlace reports whether VisitBlocks serves this device: its store is a
// *MemStore, or a *FileStore that mapped its data region at open. It does not
// change while the store is open. The test is on the concrete type, not on
// the method: a store that embeds a MemStore to wrap its reads would inherit
// VisitBlocks and bypass the wrapper.
func (d *Device) ReadsInPlace() bool {
	switch s := d.store.(type) {
	case *MemStore:
		return true
	case *FileStore:
		return s.readPath == "mmap"
	}
	return false
}

// VisitBlocks is ReadBlocks with no copy, for a device whose blocks are
// memory (ReadsInPlace): visit sees each block idxs[i] in place, in order,
// under the terms of MemStore.VisitBlocks or FileStore.VisitBlocks. The
// blocks count in BlocksRead and the call as one of ReadBatches; the caller's
// wall clock is the read's cost. Any other store fails with ErrNotMapped.
func (d *Device) VisitBlocks(idxs []int, visit func(i int, block []byte)) error {
	var err error
	switch s := d.store.(type) {
	case *MemStore:
		err = s.VisitBlocks(idxs, visit)
	case *FileStore:
		err = s.VisitBlocks(idxs, visit)
	default:
		err = ErrNotMapped
	}
	if err != nil {
		return err
	}
	d.blocksRead.Add(int64(len(idxs)))
	d.readBatches.Inc()
	return nil
}

// WriteBlock writes src as block idx.
func (d *Device) WriteBlock(idx int, src []byte) error {
	if err := d.store.WriteBlock(idx, src); err != nil {
		return err
	}
	d.blocksWritten.Inc()
	return nil
}

// WriteBlocks installs len(src)/BlockSize consecutive blocks starting at
// base in one store call (see BlockStore.WriteBlocks): the path of bulk loads
// and layout installs, whose caller owns the commit point.
func (d *Device) WriteBlocks(base int, src []byte) error {
	if err := d.store.WriteBlocks(base, src); err != nil {
		return err
	}
	d.blocksWritten.Add(int64(len(src) / BlockSize))
	return nil
}

// Flush forces buffered writes of the backing store to stable storage; it is
// a no-op for stores (like MemStore) that do not buffer.
func (d *Device) Flush() error {
	if fl, ok := d.store.(Flusher); ok {
		return fl.Flush()
	}
	return nil
}

// Close releases the backing store.
func (d *Device) Close() error { return d.store.Close() }

// Stats is a snapshot of device counters.
type Stats struct {
	BlocksRead    int64
	BlocksWritten int64
	BytesRead     int64
	BytesWritten  int64
	// ReadLatency summarises the modelled latencies ReadBlock and
	// ReadBlockQD drew; batched and in-place reads add none.
	ReadLatency metrics.Snapshot
	// ReadsSubmitted is the total read intents served: blocks actually
	// read from the device plus reads coalesced onto another read's I/O.
	ReadsSubmitted int64
	// ReadBatches counts read dispatches (a single ReadBlock is a batch of
	// one); AvgReadBatch = BlocksRead / ReadBatches — the realized device
	// queue depth of the read path.
	ReadBatches  int64
	AvgReadBatch float64
	// MaxQueueDepth is the high-water number of concurrently outstanding
	// reads (including declared benchmark depths) since the last reset.
	MaxQueueDepth int64
	// CoalescedReads counts reads served without device I/O by the I/O
	// scheduler's same-block coalescing (see NoteCoalescedRead).
	CoalescedReads int64
	// DriveWrites is the number of full-device overwrites performed so far.
	DriveWrites float64
	// EnduranceDWPD is the configured endurance budget (writes/day).
	EnduranceDWPD float64
	// Store describes the backing block store (backend name, write and
	// flush counters for the file backend).
	Store BackendStats
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	br := d.blocksRead.Value()
	bw := d.blocksWritten.Value()
	coalesced := d.coalescedReads.Value()
	s := Stats{
		BlocksRead:     br,
		BlocksWritten:  bw,
		BytesRead:      br * BlockSize,
		BytesWritten:   bw * BlockSize,
		ReadLatency:    d.readLatency.Snapshot(),
		ReadsSubmitted: br + coalesced,
		ReadBatches:    d.readBatches.Value(),
		MaxQueueDepth:  d.maxInflight.Load(),
		CoalescedReads: coalesced,
		EnduranceDWPD:  d.enduranceDWPD,
	}
	if s.ReadBatches > 0 {
		s.AvgReadBatch = float64(s.BlocksRead) / float64(s.ReadBatches)
	}
	if bs, ok := d.store.(BackendStatser); ok {
		s.Store = bs.BackendStats()
	}
	if cap := d.CapacityBytes(); cap > 0 {
		s.DriveWrites = float64(s.BytesWritten) / float64(cap)
	}
	return s
}

// ResetStats clears the device counters (capacity and contents are kept).
func (d *Device) ResetStats() {
	d.blocksRead.Reset()
	d.blocksWritten.Reset()
	d.readBatches.Reset()
	d.coalescedReads.Reset()
	d.maxInflight.Store(0)
	d.readLatency.Reset()
}

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("nvm device: %d blocks (%.1f GB), %s",
		d.NumBlocks(), float64(d.CapacityBytes())/1e9, d.model)
}
