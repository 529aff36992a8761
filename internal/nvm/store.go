package nvm

import (
	"fmt"
	"sync"
)

// BlockStore is the backing storage of a simulated NVM device: a flat array
// of fixed-size blocks. Implementations must be safe for concurrent use.
type BlockStore interface {
	// NumBlocks returns the number of addressable blocks.
	NumBlocks() int
	// ReadBlock copies block idx into dst (which must be BlockSize bytes).
	ReadBlock(idx int, dst []byte) error
	// ReadBlocks copies block idxs[i] into dst[i*BlockSize:(i+1)*BlockSize]
	// for every i — the batched read path used by LookupBatch misses.
	ReadBlocks(idxs []int, dst []byte) error
	// WriteBlock stores src (at most BlockSize bytes) as block idx.
	WriteBlock(idx int, src []byte) error
	// Close releases resources.
	Close() error
}

// Flusher is implemented by block stores that buffer writes (FileStore);
// Flush forces them to stable storage.
type Flusher interface {
	Flush() error
}

// BulkWriter is implemented by block stores that offer an unjournaled
// bulk-load write path (FileStore). Use it only when crash-atomicity is
// provided at a higher level — a torn unjournaled write leaves a mixed
// block, so the caller must be able to detect the interruption and redo the
// whole load (see core's manifest / migration-record commit points).
type BulkWriter interface {
	WriteBlockUnjournaled(idx int, src []byte) error
}

// RangeBulkWriter is implemented by block stores that can install a
// contiguous run of blocks in one operation (a single pwrite on the file
// backend). It is the copy-in path of background layout migration: the
// staged image of a whole table lands in its block range at device
// bandwidth instead of block by block. Same crash-safety contract as
// BulkWriter — the caller owns the commit point and must redo the whole
// range if interrupted.
type RangeBulkWriter interface {
	// WriteBlocksUnjournaled writes len(src)/BlockSize consecutive blocks
	// starting at block base. len(src) must be a multiple of BlockSize.
	WriteBlocksUnjournaled(base int, src []byte) error
}

// BackendStats describes a block store backend for reporting.
type BackendStats struct {
	// Backend names the backing medium ("mem" or "file").
	Backend string
	// DirectIO reports whether the file backend is running O_DIRECT
	// (page-cache-bypassing) I/O after auto-negotiation.
	DirectIO bool
	// ReadPath is how the file backend reads a block (file only): "mmap",
	// in place or as a copy out of its read-only mapping of the data region
	// (buffered I/O), or "pread" (direct I/O, or a platform that cannot map
	// the file).
	ReadPath string
	// JournalWrites counts write-ahead journal records appended (file only;
	// one per WriteBlock).
	JournalWrites int64
	// JournalBytesAppended counts bytes appended to the ring journal,
	// including record headers, alignment padding and wrap pads (file only).
	JournalBytesAppended int64
	// JournalGCRuns counts watermark advances that retired journal records
	// (file only).
	JournalGCRuns int64
	// RingUtilization is the live fraction of the ring journal region at
	// snapshot time — sustained values near 1.0 mean writers outrun
	// retirement (file only).
	RingUtilization float64
	// DataWrites counts journaled in-place data-region writes (file only;
	// one per successful WriteBlock — with JournalWrites
	// this pins the 2-pwrites-per-write steady state).
	DataWrites int64
	// FailedWriteRecords counts journal records pinned by a failed in-place
	// write; they replay at the next open (file only).
	FailedWriteRecords int64
	// Flushes counts explicit or periodic fsyncs (file only).
	Flushes int64
	// RecoveredRecords counts journal records replayed at open (file only).
	RecoveredRecords int64
	// BouncedReads counts direct-mode preads whose destination was not
	// aligned and so went through an aligned pool buffer and a copy (file
	// only). The serving path's buffers are aligned: it stays 0 there.
	BouncedReads int64
}

// BackendStatser is implemented by block stores that report backend
// statistics through Device.Stats.
type BackendStatser interface {
	BackendStats() BackendStats
}

// MemStore is a RAM-backed block store. It is the default backing for the
// simulated device: the latency/bandwidth behaviour comes from the
// PerformanceModel, not from the backing medium.
type MemStore struct {
	mu   sync.RWMutex
	data []byte
	n    int
}

// NewMemStore creates a RAM-backed store with numBlocks blocks.
func NewMemStore(numBlocks int) *MemStore {
	if numBlocks <= 0 {
		panic(fmt.Sprintf("nvm: invalid block count %d", numBlocks))
	}
	return &MemStore{data: make([]byte, numBlocks*BlockSize), n: numBlocks}
}

// NumBlocks implements BlockStore.
func (s *MemStore) NumBlocks() int { return s.n }

// ReadBlock implements BlockStore.
func (s *MemStore) ReadBlock(idx int, dst []byte) error {
	if idx < 0 || idx >= s.n {
		return fmt.Errorf("nvm: block %d out of range [0,%d)", idx, s.n)
	}
	if len(dst) < BlockSize {
		return fmt.Errorf("nvm: destination buffer too small: %d", len(dst))
	}
	s.mu.RLock()
	copy(dst[:BlockSize], s.data[idx*BlockSize:])
	s.mu.RUnlock()
	return nil
}

// ReadBlocks implements BlockStore, copying the whole batch under one shared
// lock acquisition.
func (s *MemStore) ReadBlocks(idxs []int, dst []byte) error {
	if len(dst) < len(idxs)*BlockSize {
		return fmt.Errorf("nvm: destination buffer too small for %d blocks: %d", len(idxs), len(dst))
	}
	for _, idx := range idxs {
		if idx < 0 || idx >= s.n {
			return fmt.Errorf("nvm: block %d out of range [0,%d)", idx, s.n)
		}
	}
	s.mu.RLock()
	for i, idx := range idxs {
		copy(dst[i*BlockSize:(i+1)*BlockSize], s.data[idx*BlockSize:])
	}
	s.mu.RUnlock()
	return nil
}

// WriteBlock implements BlockStore.
func (s *MemStore) WriteBlock(idx int, src []byte) error {
	if idx < 0 || idx >= s.n {
		return fmt.Errorf("nvm: block %d out of range [0,%d)", idx, s.n)
	}
	if len(src) > BlockSize {
		return fmt.Errorf("nvm: block write of %d bytes exceeds block size", len(src))
	}
	s.mu.Lock()
	off := idx * BlockSize
	copy(s.data[off:off+BlockSize], src)
	// Zero the remainder so partial writes behave like full-block writes.
	for i := off + len(src); i < off+BlockSize; i++ {
		s.data[i] = 0
	}
	s.mu.Unlock()
	return nil
}

// WriteBlocksUnjournaled implements RangeBulkWriter: one copy under one
// lock acquisition.
func (s *MemStore) WriteBlocksUnjournaled(base int, src []byte) error {
	if len(src)%BlockSize != 0 {
		return fmt.Errorf("nvm: bulk write of %d bytes is not block-aligned", len(src))
	}
	n := len(src) / BlockSize
	if base < 0 || base+n > s.n {
		return fmt.Errorf("nvm: bulk write [%d,%d) out of range [0,%d)", base, base+n, s.n)
	}
	s.mu.Lock()
	copy(s.data[base*BlockSize:], src)
	s.mu.Unlock()
	return nil
}

// BackendStats implements BackendStatser.
func (s *MemStore) BackendStats() BackendStats { return BackendStats{Backend: "mem"} }

// Close implements BlockStore.
func (s *MemStore) Close() error { return nil }
