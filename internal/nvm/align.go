package nvm

import (
	"sync"
	"unsafe"
)

// Direct I/O requires every buffer address, file offset and transfer length
// to be aligned to the device's logical block size. We align everything to
// BlockSize (4 KB), which satisfies any Linux block device, and hand the same
// aligned memory to every caller — the block write path, the zero-copy
// read views, and the miss path's batch buffers — so direct mode adds no bounce
// copies on the hot path.

// alignedBytes returns a length-n slice whose backing array starts on a
// BlockSize boundary. It over-allocates by one block and slices at the first
// aligned offset; Go's garbage collector does not move heap objects, so the
// alignment is stable for the buffer's lifetime.
func alignedBytes(n int) []byte {
	raw := make([]byte, n+BlockSize)
	off := int(uintptr(unsafe.Pointer(&raw[0])) & (BlockSize - 1))
	if off != 0 {
		off = BlockSize - off
	}
	return raw[off : off+n : off+n]
}

// isAligned reports whether the slice's backing address is BlockSize-aligned.
// A nil/empty slice is trivially aligned (no transfer will use it).
func isAligned(p []byte) bool {
	if len(p) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&p[0]))&(BlockSize-1) == 0
}

// blockBufPool recycles BlockSize-aligned scratch buffers for this package
// and its callers (see GetBlockBuf).
var blockBufPool = sync.Pool{
	New: func() any {
		b := alignedBytes(BlockSize)
		return &b
	},
}

// GetBlockBuf returns a pooled BlockSize scratch buffer whose backing memory
// is BlockSize-aligned (safe to hand to a direct-I/O pread/pwrite); release
// it with PutBlockBuf. Contents are undefined.
func GetBlockBuf() *[]byte { return blockBufPool.Get().(*[]byte) }

// PutBlockBuf returns a buffer obtained from GetBlockBuf to the pool.
func PutBlockBuf(b *[]byte) { blockBufPool.Put(b) }

// batchBufClasses are the pooled batch buffer capacities in blocks: a
// scheduler batch at the default queue depth, a typical cold miss batch
// (≈ 17 distinct blocks) and a worst-case one.
var batchBufClasses = [...]int{8, 32, 128}

// batchBufPools recycles aligned multi-block buffers, one pool per class.
var batchBufPools [len(batchBufClasses)]sync.Pool

func init() {
	for i, blocks := range batchBufClasses {
		batchBufPools[i].New = func() any {
			b := alignedBytes(blocks * BlockSize)
			return &b
		}
	}
}

// GetBatchBuf returns an aligned buffer of n blocks; release it with
// PutBatchBuf. Contents are undefined. Buffers for more blocks than the
// largest class are allocated (aligned) rather than pooled.
func GetBatchBuf(n int) *[]byte {
	for i, blocks := range batchBufClasses {
		if n <= blocks {
			bp := batchBufPools[i].Get().(*[]byte)
			*bp = (*bp)[:n*BlockSize]
			return bp
		}
	}
	b := alignedBytes(n * BlockSize)
	return &b
}

// PutBatchBuf returns a buffer obtained from GetBatchBuf to its pool.
func PutBatchBuf(b *[]byte) {
	for i, blocks := range batchBufClasses {
		if cap(*b) == blocks*BlockSize {
			batchBufPools[i].Put(b)
			return
		}
	}
}
