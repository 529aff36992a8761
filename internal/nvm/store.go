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
	// WriteBlock stores src (at most BlockSize bytes, zero padded) as block
	// idx, in place. A durable store may tear it: a crash mid-write can leave
	// a mixed block, part new bytes and part old, and the store keeps no
	// journal to undo or redo it. The caller repairs it — core replays the
	// update log's records over the block, bulk installs redo their range
	// from their commit point.
	WriteBlock(idx int, src []byte) error
	// WriteBlocks stores len(src)/BlockSize consecutive blocks starting at
	// block base (len(src) must be a multiple of BlockSize) in one operation:
	// a single pwrite on the file backend. It is the path of bulk loads and
	// layout installs, whose commit point makes the whole range redoable;
	// it tears like WriteBlock.
	WriteBlocks(base int, src []byte) error
	// Close releases resources.
	Close() error
}

// Flusher is implemented by block stores that buffer writes (FileStore);
// Flush forces them to stable storage.
type Flusher interface {
	Flush() error
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
	// JournalWrites, JournalBytesAppended and RingUtilization are always 0:
	// they described the block store's ring journal, which format v3
	// removed. They remain only because the benchmark harness reads them.
	JournalWrites        int64
	JournalBytesAppended int64
	RingUtilization      float64
	// DataWrites counts single-block in-place writes (file only; one per
	// successful WriteBlock — core's compaction and replay read-modify-writes;
	// WriteBlocks installs are not counted).
	DataWrites int64
	// Flushes counts explicit or periodic fsyncs (file only).
	Flushes int64
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

// MemStore is a RAM-backed block store, the default backing for the
// simulated device. Its blocks are memory, so the serving path reads them in
// place (VisitBlocks) and what a read costs is the wall clock's; the
// PerformanceModel prices only Device.ReadBlock and ReadBlockQD (the
// Figure-2 fio runs and direct device drives).
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

// heapBytes is the heap the blocks take (Device.HeapBlockBytes).
func (s *MemStore) heapBytes() int64 { return int64(len(s.data)) }

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

// VisitBlocks calls visit(i, block) for each idxs[i], in order, with a
// read-only view of the block in the store's memory: no copy. Each visit runs
// under the store's read lock, taken for that block alone, so a writer waits
// for at most one block's work. The view is valid only until visit returns;
// visit must not write it or keep it, and must not read or write this store's
// blocks.
func (s *MemStore) VisitBlocks(idxs []int, visit func(i int, block []byte)) error {
	for i, idx := range idxs {
		if idx < 0 || idx >= s.n {
			return fmt.Errorf("nvm: block %d out of range [0,%d)", idx, s.n)
		}
		off := idx * BlockSize
		s.mu.RLock()
		visit(i, s.data[off:off+BlockSize:off+BlockSize])
		s.mu.RUnlock()
	}
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

// WriteBlocks implements BlockStore: one copy under one lock acquisition.
func (s *MemStore) WriteBlocks(base int, src []byte) error {
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
