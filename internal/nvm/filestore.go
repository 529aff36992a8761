package nvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FileStore is a durable file-backed block store. Unlike MemStore it survives
// process restarts and is not bounded by RAM, which makes the simulated NVM
// device behave like the real thing: embedding tables are written once and
// reopened across runs. With Direct enabled the file is opened O_DIRECT, so
// reads and writes hit the device instead of the kernel page cache — the
// measured I/O is honest, and the kernel stops spending DRAM double-caching
// a block file whose caching this system manages itself.
//
// On-disk layout (format v2; all regions are BlockSize-aligned):
//
//	block 0            superblock: magic, format version, geometry, CRC
//	blocks 1..2        journal head watermark, two alternating slots
//	blocks 3..3+R-1    ring journal region (R = RingBlocks)
//	blocks 3+R..       data blocks 0 .. NumBlocks-1
//
// Every WriteBlock appends one checksummed record to the ring journal (a
// single sequential pwrite), then writes the block in place — 2 pwrites per
// block on the steady state. Records are retired lazily, in bulk, by
// advancing the persisted head watermark once their in-place writes are
// durable (see ringJournal). Open replays the valid record chain from the
// watermark in sequence order, which repairs any torn in-place write; a torn
// append fails its CRC (or breaks the sequence chain) and rolls back to the
// previous block contents. With SyncAlways the file is opened O_SYNC so the
// journal-before-data ordering also holds across power loss; the other modes
// guarantee consistency across process crashes only.
//
// Writes use offset I/O (pwrite). A buffered store maps its data region
// read-only and MAP_SHARED at open: the page cache is the one copy of the
// file, so the mapping sees every pwrite once it returns. Its blocks are then
// memory, read two ways: ReadBlock(s) copies a block out of the mapping (a
// memmove instead of a syscall), and VisitBlocks hands the caller a view of
// it with no copy at all — the serving path's miss reader. A direct store
// must bypass the page cache and so reads with pread, as does a platform
// that cannot map the file (BackendStats.ReadPath says which); it cannot be
// visited. Every path takes per-block-stripe RW locks — a read or a visit
// shares its block's stripe, a write holds it — so a read never sees a
// half-written block, independent blocks are accessed with no shared lock at
// all, and concurrent reads of the same block never block each other.
//
// Lock order: a visit runs its callback under the block's stripe RLock, and
// the serving path's callback takes a delta-overlay read lock and a cache
// shard mutex inside it. So no path may take a stripe lock while holding
// either of those, and no path holds two stripe locks except in ascending
// stripe order with no other lock taken in between (WriteBlocksUnjournaled,
// unmap).
type FileStore struct {
	f          *os.File
	n          int
	ringBlocks int
	dataOff    int64
	sync       SyncMode
	direct     bool

	// mapping is the read-only mapping of the data region (nil: reads use
	// pread) and data its NumBlocks*BlockSize bytes. Close drops both under
	// every stripe lock; readers look at them under their block's stripe.
	// readPath ("mmap" or "pread") is fixed at open.
	mapping  []byte
	data     []byte
	readPath string

	ring  *ringJournal
	locks [blockStripes]sync.RWMutex

	dataWrites   atomic.Int64
	flushes      atomic.Int64
	bouncedReads atomic.Int64
	recovered    int64

	stopFlush chan struct{}
	flushDone chan struct{}
	closeOnce sync.Once
	closeErr  error

	// Fault injection for crash tests: when armed, the countdown is
	// decremented on every pwrite; the pwrite that reaches zero is cut short
	// (a torn write) and it and every later pwrite fail.
	faultArmed     atomic.Bool
	faultCountdown atomic.Int64

	// ioCheck, when set (tests only), observes every pread/pwrite with the
	// buffer and offset actually handed to the kernel — the hook behind the
	// alignment-invariant property tests and the pwrite-count pinning test.
	ioCheck func(op string, off int64, p []byte)
}

const (
	superMagic = "BNDNVM01"

	// FormatVersion is the on-disk format version written to the superblock.
	// v2 replaced the fixed J-slot journal with the appending ring journal
	// (and added the watermark blocks); v1 files are not readable.
	FormatVersion = 2

	// DefaultRingBlocks sizes the ring journal region (create only). 256
	// blocks = 1 MiB ≈ 128 in-flight block records between retirements.
	DefaultRingBlocks = 256

	// minRingBlocks keeps the ring large enough for a handful of in-flight
	// records plus a wrap pad.
	minRingBlocks = 8

	// DefaultFlushInterval is the SyncPeriodic background flush cadence.
	DefaultFlushInterval = time.Second

	blockStripes = 128

	superblockBytes = 32 // magic(8) version(4) blockSize(4) numBlocks(8) ringBlocks(4) crc(4)

	metaBlocks = 3 // superblock + two watermark slots
)

// ErrBadSuperblock is returned by OpenFileStore when the superblock is
// missing, corrupt, or describes a different geometry than the file holds.
var ErrBadSuperblock = errors.New("nvm: invalid or corrupt superblock")

// ErrVersionMismatch is returned by OpenFileStore when the superblock carries
// an unsupported format version.
var ErrVersionMismatch = errors.New("nvm: unsupported file store format version")

// ErrStoreLocked is returned when another process (or another handle in this
// one) holds the store file open; concurrent openers would interleave
// journal appends and corrupt state, so the second opener fails fast.
var ErrStoreLocked = errors.New("nvm: store file is locked by another process")

var errInjectedFault = errors.New("nvm: injected write fault")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects the durability of a FileStore.
type SyncMode int

const (
	// SyncNone leaves flushing to the OS page cache; Flush forces one.
	SyncNone SyncMode = iota
	// SyncPeriodic flushes in the background every FlushInterval.
	SyncPeriodic
	// SyncAlways opens the file O_SYNC: every journal and data write is
	// durable (and ordered) before the call returns.
	SyncAlways
)

// String returns the flag spelling of the mode.
func (m SyncMode) String() string {
	switch m {
	case SyncNone:
		return "none"
	case SyncPeriodic:
		return "periodic"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode parses the flag spelling of a SyncMode ("none", "periodic",
// "always").
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "none", "":
		return SyncNone, nil
	case "periodic":
		return SyncPeriodic, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("nvm: unknown sync mode %q (want none, periodic or always)", s)
}

// FileStoreOptions configures CreateFileStore / OpenFileStore.
type FileStoreOptions struct {
	// RingBlocks is the size of the ring journal region in blocks (create
	// only; an existing file keeps the count in its superblock). Defaults
	// to DefaultRingBlocks.
	RingBlocks int
	// Sync selects the durability mode. Defaults to SyncNone.
	Sync SyncMode
	// FlushInterval is the SyncPeriodic flush cadence. Defaults to
	// DefaultFlushInterval.
	FlushInterval time.Duration
	// Direct requests O_DIRECT (page-cache-bypassing) I/O. It is
	// auto-negotiated: filesystems that reject O_DIRECT (tmpfs, some
	// overlayfs) silently fall back to buffered I/O — check
	// BackendStats().DirectIO for the outcome.
	Direct bool
}

func (o *FileStoreOptions) defaults() {
	if o.RingBlocks <= 0 {
		o.RingBlocks = DefaultRingBlocks
	}
	if o.RingBlocks < minRingBlocks {
		o.RingBlocks = minRingBlocks
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultFlushInterval
	}
}

func openFlags(mode SyncMode) int {
	flags := os.O_RDWR
	if mode == SyncAlways {
		flags |= os.O_SYNC
	}
	return flags
}

// openStoreFile opens (or creates) the store file, negotiating O_DIRECT and
// taking the exclusive flock. directOn reports whether direct I/O is
// actually in effect after negotiation.
func openStoreFile(path string, opts FileStoreOptions, create bool) (f *os.File, directOn bool, err error) {
	flags := openFlags(opts.Sync)
	if create {
		flags |= os.O_CREATE
	}
	if opts.Direct && directIOAvailable {
		f, err = os.OpenFile(path, flags|directOpenFlag, 0o644)
		if err == nil {
			directOn = true
		} else if !isDirectUnsupported(err) {
			return nil, false, err
		}
	}
	if f == nil {
		f, err = os.OpenFile(path, flags, 0o644)
		if err != nil {
			return nil, false, err
		}
	}
	if err := lockFileExclusive(f); err != nil {
		f.Close()
		if errors.Is(err, ErrStoreLocked) {
			return nil, false, fmt.Errorf("%w: %s", ErrStoreLocked, path)
		}
		return nil, false, fmt.Errorf("nvm: lock store file: %w", err)
	}
	return f, directOn, nil
}

// DirectIOSupported probes whether files in dir can be opened and written
// with O_DIRECT (tmpfs, for one, rejects it). Used by tests and CI to
// skip-with-notice rather than silently fall back.
func DirectIOSupported(dir string) bool {
	if !directIOAvailable {
		return false
	}
	path := filepath.Join(dir, ".bnd-direct-probe")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|directOpenFlag, 0o644)
	if err != nil {
		return false
	}
	defer os.Remove(path)
	defer f.Close()
	bp := GetBlockBuf()
	defer PutBlockBuf(bp)
	buf := *bp
	for i := range buf {
		buf[i] = 0
	}
	_, werr := f.WriteAt(buf, 0)
	return werr == nil
}

// CreateFileStore creates (or overwrites) a journaled file store of numBlocks
// data blocks at path.
func CreateFileStore(path string, numBlocks int, opts FileStoreOptions) (*FileStore, error) {
	if numBlocks <= 0 {
		return nil, fmt.Errorf("nvm: invalid block count %d", numBlocks)
	}
	opts.defaults()
	f, direct, err := openStoreFile(path, opts, true)
	if err != nil {
		return nil, fmt.Errorf("nvm: create file store: %w", err)
	}
	// Truncate to zero first so a recreate over an old store cannot leave
	// stale ring records that a fresh watermark would mistake for its own
	// chain; the regrow punches holes, which read back as zeros.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("nvm: truncate file store: %w", err)
	}
	totalBlocks := metaBlocks + opts.RingBlocks + numBlocks
	if err := f.Truncate(int64(totalBlocks) * BlockSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("nvm: size file store: %w", err)
	}
	s := newFileStore(f, numBlocks, opts, direct)
	if err := s.writeSuperblock(); err != nil {
		f.Close()
		return nil, err
	}
	// Initial watermark: generation 1, empty ring at offset 0, first seq 1.
	s.ring.gen = 0
	s.ring.nextSeq = 1
	if err := s.ring.retireAll(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("nvm: sync superblock: %w", err)
	}
	s.mapData()
	s.ring.start()
	return s, nil
}

func (s *FileStore) writeSuperblock() error {
	bp := GetBlockBuf()
	defer PutBlockBuf(bp)
	buf := *bp
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, superMagic)
	binary.LittleEndian.PutUint32(buf[8:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[12:], BlockSize)
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.n))
	binary.LittleEndian.PutUint32(buf[24:], uint32(s.ringBlocks))
	binary.LittleEndian.PutUint32(buf[28:], crc32.Checksum(buf[:28], castagnoli))
	if err := s.writeAt(buf, 0); err != nil {
		return fmt.Errorf("nvm: write superblock: %w", err)
	}
	return nil
}

// OpenFileStore opens an existing journaled file store, validating its
// superblock and replaying any committed-but-not-in-place journal records
// before returning.
func OpenFileStore(path string, opts FileStoreOptions) (*FileStore, error) {
	opts.defaults()
	f, direct, err := openStoreFile(path, opts, false)
	if err != nil {
		if errors.Is(err, ErrStoreLocked) {
			return nil, err
		}
		return nil, fmt.Errorf("nvm: open file store: %w", err)
	}
	// The superblock read must already obey direct-I/O alignment, so read a
	// whole aligned block.
	bp := GetBlockBuf()
	sbuf := *bp
	if _, err := f.ReadAt(sbuf, 0); err != nil {
		PutBlockBuf(bp)
		f.Close()
		return nil, fmt.Errorf("%w: short superblock read: %v", ErrBadSuperblock, err)
	}
	sb := sbuf[:superblockBytes]
	if string(sb[:8]) != superMagic {
		PutBlockBuf(bp)
		f.Close()
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSuperblock, sb[:8])
	}
	if got := crc32.Checksum(sb[:28], castagnoli); got != binary.LittleEndian.Uint32(sb[28:]) {
		PutBlockBuf(bp)
		f.Close()
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSuperblock)
	}
	if v := binary.LittleEndian.Uint32(sb[8:]); v != FormatVersion {
		PutBlockBuf(bp)
		f.Close()
		return nil, fmt.Errorf("%w: file has version %d, this build supports %d",
			ErrVersionMismatch, v, FormatVersion)
	}
	if bs := binary.LittleEndian.Uint32(sb[12:]); bs != BlockSize {
		PutBlockBuf(bp)
		f.Close()
		return nil, fmt.Errorf("%w: file has block size %d, want %d", ErrBadSuperblock, bs, BlockSize)
	}
	numBlocks := int(binary.LittleEndian.Uint64(sb[16:]))
	ringBlocks := int(binary.LittleEndian.Uint32(sb[24:]))
	PutBlockBuf(bp)
	if numBlocks <= 0 || ringBlocks < minRingBlocks {
		f.Close()
		return nil, fmt.Errorf("%w: implausible geometry (%d blocks, %d ring blocks)",
			ErrBadSuperblock, numBlocks, ringBlocks)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := int64(metaBlocks+ringBlocks+numBlocks) * BlockSize; fi.Size() < want {
		f.Close()
		return nil, fmt.Errorf("%w: file is %d bytes, geometry needs %d", ErrBadSuperblock, fi.Size(), want)
	}
	opts.RingBlocks = ringBlocks
	s := newFileStore(f, numBlocks, opts, direct)
	if err := s.replayJournal(); err != nil {
		f.Close()
		return nil, err
	}
	s.mapData()
	s.ring.start()
	return s, nil
}

// OpenOrCreateFileStore opens path if it holds a valid store and creates it
// otherwise; created reports which happened. An existing store must have
// exactly numBlocks data blocks.
func OpenOrCreateFileStore(path string, numBlocks int, opts FileStoreOptions) (s *FileStore, created bool, err error) {
	if _, statErr := os.Stat(path); statErr == nil {
		s, err = OpenFileStore(path, opts)
		if err != nil {
			return nil, false, err
		}
		if s.NumBlocks() != numBlocks {
			s.Close()
			return nil, false, fmt.Errorf("nvm: existing store has %d blocks, want %d", s.NumBlocks(), numBlocks)
		}
		return s, false, nil
	}
	s, err = CreateFileStore(path, numBlocks, opts)
	return s, true, err
}

// NewFileStore creates (or overwrites) a file-backed store at path with the
// default options. It is shorthand for CreateFileStore.
func NewFileStore(path string, numBlocks int) (*FileStore, error) {
	return CreateFileStore(path, numBlocks, FileStoreOptions{})
}

// ioCheckHook, when non-nil at store construction (tests only), becomes the
// new store's ioCheck observer — the way to watch the I/O of the create and
// open/replay paths, which run before the caller holds the store.
var ioCheckHook func(op string, off int64, p []byte)

func newFileStore(f *os.File, numBlocks int, opts FileStoreOptions, direct bool) *FileStore {
	s := &FileStore{
		ioCheck:    ioCheckHook,
		f:          f,
		n:          numBlocks,
		ringBlocks: opts.RingBlocks,
		dataOff:    int64(metaBlocks+opts.RingBlocks) * BlockSize,
		sync:       opts.Sync,
		direct:     direct,
	}
	s.ring = newRingJournal(s, opts.RingBlocks, int64(metaBlocks)*BlockSize)
	if opts.Sync == SyncPeriodic {
		s.stopFlush = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop(opts.FlushInterval)
	}
	return s
}

// mapData sets up the read path once the store is open: a buffered store
// maps its data region, a direct one (whose reads must bypass the page
// cache) or one the platform cannot map reads with pread.
func (s *FileStore) mapData() {
	s.readPath = "pread"
	if s.direct {
		return
	}
	s.mapping, s.data = mapRegion(s.f, s.dataOff, int64(s.n)*BlockSize)
	if s.mapping != nil {
		s.readPath = "mmap"
	}
}

// unmap drops the data mapping. It takes every stripe lock first, so a read
// or visit in flight finishes with the pages before they go; a read after it
// finds no mapping and takes the pread path, and a visit fails, instead of
// faulting.
func (s *FileStore) unmap() error {
	for i := range s.locks {
		s.locks[i].Lock()
	}
	defer func() {
		for i := range s.locks {
			s.locks[i].Unlock()
		}
	}()
	if s.mapping == nil {
		return nil
	}
	err := unmapRegion(s.mapping)
	s.mapping, s.data = nil, nil
	return err
}

// readAt is the single pread choke point. In direct mode an unaligned
// destination is bounced through an aligned pool buffer; the hot read paths
// (core's block and batch buffers, which the scheduler reads into) are
// already aligned, so the bounce is for stray callers only —
// BackendStats.BouncedReads counts them.
func (s *FileStore) readAt(p []byte, off int64) error {
	if s.direct && !isAligned(p) {
		s.bouncedReads.Add(1)
		nb := (len(p) + BlockSize - 1) / BlockSize
		bp := GetBatchBuf(nb)
		defer PutBatchBuf(bp)
		buf := (*bp)[:len(p)]
		if ic := s.ioCheck; ic != nil {
			ic("pread", off, buf)
		}
		if _, err := s.f.ReadAt(buf, off); err != nil {
			return err
		}
		copy(p, buf)
		return nil
	}
	if ic := s.ioCheck; ic != nil {
		ic("pread", off, p)
	}
	_, err := s.f.ReadAt(p, off)
	return err
}

// writeAt is the single pwrite choke point; crash tests inject torn writes
// here. In direct mode an unaligned source is bounced through aligned pool
// buffers in ring-sized chunks (only the bulk-load paths can hit this; the
// journaled write path always writes aligned pool memory).
func (s *FileStore) writeAt(p []byte, off int64) error {
	if s.direct && !isAligned(p) {
		const chunk = 256 * BlockSize
		bp := GetBatchBuf(256)
		defer PutBatchBuf(bp)
		for len(p) > 0 {
			n := len(p)
			if n > chunk {
				n = chunk
			}
			buf := (*bp)[:n]
			copy(buf, p[:n])
			if err := s.writeAtAligned(buf, off); err != nil {
				return err
			}
			p = p[n:]
			off += int64(n)
		}
		return nil
	}
	return s.writeAtAligned(p, off)
}

func (s *FileStore) writeAtAligned(p []byte, off int64) error {
	if ic := s.ioCheck; ic != nil {
		ic("pwrite", off, p)
	}
	if s.faultArmed.Load() {
		left := s.faultCountdown.Add(-1)
		if left < 0 {
			return errInjectedFault
		}
		if left == 0 {
			// Tear the write: persist only a prefix, then fail. Under
			// O_DIRECT the prefix is trimmed to a block boundary (an
			// unaligned tear would be rejected by the kernel, not torn).
			tear := len(p) / 2
			if s.direct {
				tear &^= BlockSize - 1
			}
			if tear > 0 {
				_, _ = s.f.WriteAt(p[:tear], off)
			}
			return errInjectedFault
		}
	}
	_, err := s.f.WriteAt(p, off)
	return err
}

// failAfterWrites arms fault injection (tests only): the n-th pwrite from now
// (1-based) is torn short and fails, as does every write after it.
func (s *FileStore) failAfterWrites(n int) {
	s.faultCountdown.Store(int64(n))
	s.faultArmed.Store(true)
}

// NumBlocks implements BlockStore.
func (s *FileStore) NumBlocks() int { return s.n }

// RingBlocks returns the size of the ring journal region in blocks.
func (s *FileStore) RingBlocks() int { return s.ringBlocks }

// DirectIO reports whether the store is running on O_DIRECT I/O (false when
// the Direct option was refused by the filesystem and the store fell back
// to buffered I/O).
func (s *FileStore) DirectIO() bool { return s.direct }

// ReadBlock implements BlockStore.
func (s *FileStore) ReadBlock(idx int, dst []byte) error {
	if idx < 0 || idx >= s.n {
		return fmt.Errorf("nvm: block %d out of range [0,%d)", idx, s.n)
	}
	if len(dst) < BlockSize {
		return fmt.Errorf("nvm: destination buffer too small: %d", len(dst))
	}
	lock := &s.locks[idx%blockStripes]
	lock.RLock()
	defer lock.RUnlock()
	if s.data != nil {
		copy(dst[:BlockSize], s.data[idx*BlockSize:])
		return nil
	}
	return s.readAt(dst[:BlockSize], s.dataOff+int64(idx)*BlockSize)
}

// ReadBlocks implements BlockStore: it reads block idxs[i] into
// dst[i*BlockSize:(i+1)*BlockSize] one block after the other, each under its
// own stripe RLock and no shared lock across blocks. A buffered store copies
// each block out of its mapping; a direct store issues one pread per block,
// so one call reaches the file at queue depth 1, and the file sees depth
// from concurrent callers — the I/O scheduler lets up to its QueueDepth of
// them issue at once.
func (s *FileStore) ReadBlocks(idxs []int, dst []byte) error {
	if len(dst) < len(idxs)*BlockSize {
		return fmt.Errorf("nvm: destination buffer too small for %d blocks: %d", len(idxs), len(dst))
	}
	for i, idx := range idxs {
		if err := s.ReadBlock(idx, dst[i*BlockSize:(i+1)*BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// ErrNotMapped is returned by VisitBlocks on a store with no mapping of its
// data region: a direct one, one the platform could not map, or a closed one.
var ErrNotMapped = errors.New("nvm: block store has no mapped data region")

// VisitBlocks calls visit(i, block) for each idxs[i], in order, with a
// read-only view of the block inside the mapping of the data region: no copy
// and no syscall. The view is valid only until visit returns, which it does
// under the block's stripe RLock — a write of that block, and Close, wait for
// it. visit must not write the view or keep it, and must not take a stripe
// lock of this store (no read or write of its blocks) nor anything a holder
// of a stripe lock may wait for (see the lock order on FileStore). A store
// with no mapping fails with ErrNotMapped at the first block it cannot view.
func (s *FileStore) VisitBlocks(idxs []int, visit func(i int, block []byte)) error {
	for i, idx := range idxs {
		if idx < 0 || idx >= s.n {
			return fmt.Errorf("nvm: block %d out of range [0,%d)", idx, s.n)
		}
		lock := &s.locks[idx%blockStripes]
		lock.RLock()
		if s.data == nil {
			lock.RUnlock()
			return ErrNotMapped
		}
		off := idx * BlockSize
		visit(i, s.data[off:off+BlockSize:off+BlockSize])
		lock.RUnlock()
	}
	return nil
}

// WriteBlock implements BlockStore: one sequential ring-journal append, then
// one in-place write. A crash at any point either rolls the write back (a
// torn append fails its CRC or breaks the sequence chain) or replays it (a
// valid record REDOes in sequence order) at the next open — the data region
// never keeps a torn block image. Records are retired lazily by the ring
// GC; replaying an already-in-place record rewrites identical bytes, and a
// record made stale by a newer write of the same block is replayed before
// that newer record, so sequence order keeps recovery exact.
func (s *FileStore) WriteBlock(idx int, src []byte) error {
	if idx < 0 || idx >= s.n {
		return fmt.Errorf("nvm: block %d out of range [0,%d)", idx, s.n)
	}
	if len(src) > BlockSize {
		return fmt.Errorf("nvm: block write of %d bytes exceeds block size", len(src))
	}
	bufp := GetBlockBuf()
	defer PutBlockBuf(bufp)
	buf := *bufp
	copy(buf, src)
	for i := len(src); i < BlockSize; i++ {
		buf[i] = 0
	}

	seq, err := s.ring.append(uint64(idx), buf)
	if err != nil {
		return err
	}

	lock := &s.locks[idx%blockStripes]
	lock.Lock()
	err = s.writeAt(buf, s.dataOff+int64(idx)*BlockSize)
	lock.Unlock()
	if err != nil {
		// The failed pwrite may have torn the block, and the journal record
		// is now the only good copy: mark it failed so it pins the GC head
		// and survives until the next open repairs the block or a later
		// successful write of it supersedes the record. The cost is
		// redo-log semantics — a write whose error the caller observed can
		// still surface after recovery.
		s.ring.fail(seq)
		return fmt.Errorf("nvm: block write: %w", err)
	}
	s.dataWrites.Add(1)
	s.ring.complete(seq)

	// The new image supersedes any failed (pinned) record for this block;
	// tombstoning it unpins the ring GC. Sequence-ordered replay keeps
	// recovery correct either way.
	if err := s.ring.supersedeFailed(uint64(idx), seq); err != nil {
		return err
	}
	return nil
}

// WriteBlockUnjournaled implements BulkWriter: it writes a block in place
// with no write-ahead journal record, which makes bulk loads (initial table
// ingest, whole-table layout rewrites) one pwrite per block instead of two.
// Crash-safety contract: a torn write can surface a mixed block, so callers
// must wrap the load in their own commit point and redo it entirely if
// interrupted. Single-block updates should use WriteBlock.
func (s *FileStore) WriteBlockUnjournaled(idx int, src []byte) error {
	if idx < 0 || idx >= s.n {
		return fmt.Errorf("nvm: block %d out of range [0,%d)", idx, s.n)
	}
	if len(src) > BlockSize {
		return fmt.Errorf("nvm: block write of %d bytes exceeds block size", len(src))
	}
	bufp := GetBlockBuf()
	defer PutBlockBuf(bufp)
	buf := *bufp
	copy(buf, src)
	for i := len(src); i < BlockSize; i++ {
		buf[i] = 0
	}
	// Any live journal record for this block is stale the moment the bulk
	// bytes land; tombstone first so a crash cannot replay it over them.
	if err := s.ring.supersedeRange(idx, 1); err != nil {
		return err
	}
	lock := &s.locks[idx%blockStripes]
	lock.Lock()
	err := s.writeAt(buf, s.dataOff+int64(idx)*BlockSize)
	lock.Unlock()
	if err != nil {
		return fmt.Errorf("nvm: block write: %w", err)
	}
	return nil
}

// WriteBlocksUnjournaled implements RangeBulkWriter: a contiguous run of
// blocks lands in a single pwrite. To exclude concurrent single-block
// writers it takes every stripe lock the range touches, always in ascending
// stripe order (single-block writers take exactly one stripe lock, so lock
// ordering cannot deadlock). Crash-safety contract matches
// WriteBlockUnjournaled: the caller owns the commit point.
func (s *FileStore) WriteBlocksUnjournaled(base int, src []byte) error {
	if len(src)%BlockSize != 0 {
		return fmt.Errorf("nvm: bulk write of %d bytes is not block-aligned", len(src))
	}
	n := len(src) / BlockSize
	if n == 0 {
		return nil
	}
	if base < 0 || base+n > s.n {
		return fmt.Errorf("nvm: bulk write [%d,%d) out of range [0,%d)", base, base+n, s.n)
	}
	// As in WriteBlockUnjournaled: stale journal records must die before
	// the bulk bytes land. In the common bulk-load case no record targets
	// the range and this issues no I/O.
	if err := s.ring.supersedeRange(base, n); err != nil {
		return err
	}
	stripes := n
	if stripes > blockStripes {
		stripes = blockStripes
	}
	held := make([]int, 0, stripes)
	for i := 0; i < stripes; i++ {
		held = append(held, (base+i)%blockStripes)
	}
	sort.Ints(held)
	for _, st := range held {
		s.locks[st].Lock()
	}
	err := s.writeAt(src, s.dataOff+int64(base)*BlockSize)
	for _, st := range held {
		s.locks[st].Unlock()
	}
	if err != nil {
		return fmt.Errorf("nvm: bulk write: %w", err)
	}
	return nil
}

// replayJournal scans the ring record chain from the persisted watermark and
// REDOes valid block records over the data region in sequence order.
// Applying a record whose in-place write had already completed rewrites
// identical bytes, so replay is idempotent. The ring is read once, here: the
// applies are views into recover's copy of it, and returning drops that copy,
// so the ring region costs heap only while the store opens.
func (s *FileStore) replayJournal() error {
	applies, err := s.ring.recover(s.n)
	if err != nil {
		return err
	}
	if len(applies) > 0 {
		// Record payloads sit at +36 bytes inside the aligned ring copy,
		// so bounce each through an aligned block buffer for the REDO.
		bp := GetBlockBuf()
		buf := *bp
		for _, a := range applies {
			copy(buf, a.data)
			if err := s.writeAt(buf, s.dataOff+int64(a.target)*BlockSize); err != nil {
				PutBlockBuf(bp)
				return fmt.Errorf("nvm: replay block %d: %w", a.target, err)
			}
		}
		PutBlockBuf(bp)
		// Make the replayed blocks durable before retiring their records,
		// so the next open reports only genuinely recovered writes.
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("nvm: sync after replay: %w", err)
		}
	}
	if err := s.ring.retireAll(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("nvm: sync journal watermark: %w", err)
	}
	s.recovered = int64(len(applies))
	return nil
}

// Flush forces buffered writes to stable storage.
func (s *FileStore) Flush() error {
	s.flushes.Add(1)
	return s.f.Sync()
}

func (s *FileStore) flushLoop(interval time.Duration) {
	defer close(s.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.Flush()
		case <-s.stopFlush:
			return
		}
	}
}

// BackendStats implements BackendStatser.
func (s *FileStore) BackendStats() BackendStats {
	return BackendStats{
		Backend:              "file",
		DirectIO:             s.direct,
		ReadPath:             s.readPath,
		JournalWrites:        s.ring.appends.Load(),
		JournalBytesAppended: s.ring.bytesAppended.Load(),
		JournalGCRuns:        s.ring.gcRuns.Load(),
		RingUtilization:      s.ring.utilization(),
		DataWrites:           s.dataWrites.Load(),
		FailedWriteRecords:   s.ring.failedRecs.Load(),
		Flushes:              s.flushes.Load(),
		RecoveredRecords:     s.recovered,
		BouncedReads:         s.bouncedReads.Load(),
	}
}

// Close flushes, retires completed journal records (a clean shutdown leaves
// nothing to recover), drops the data mapping once the reads in flight have
// finished and closes the backing file; a read after Close fails. It is
// idempotent.
func (s *FileStore) Close() error {
	s.closeOnce.Do(func() {
		if s.stopFlush != nil {
			close(s.stopFlush)
			<-s.flushDone
		}
		s.ring.stop()
		// Retire whatever is durable; failed records deliberately survive
		// for the next open's repair, and a GC error here only means extra
		// (idempotent) replay work then.
		flushErr := s.ring.gc()
		if err := s.f.Sync(); flushErr == nil {
			flushErr = err
		}
		if err := s.unmap(); flushErr == nil {
			flushErr = err
		}
		s.closeErr = s.f.Close()
		if s.closeErr == nil && flushErr != nil {
			s.closeErr = flushErr
		}
	})
	return s.closeErr
}

// ensure FileStore satisfies the optional capability interfaces.
var (
	_ BlockStore     = (*FileStore)(nil)
	_ Flusher        = (*FileStore)(nil)
	_ BulkWriter     = (*FileStore)(nil)
	_ BackendStatser = (*FileStore)(nil)
	_ io.Closer      = (*FileStore)(nil)
)
