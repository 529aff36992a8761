package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestAlignedBufPoolAlignment(t *testing.T) {
	for i := 0; i < 32; i++ {
		bp := GetBlockBuf()
		if !isAligned(*bp) || len(*bp) != BlockSize {
			t.Fatalf("GetBlockBuf: addr %p len %d not a BlockSize-aligned block", *bp, len(*bp))
		}
		PutBlockBuf(bp)
	}
	for _, blocks := range []int{1, 3, 8, 17, 64} {
		bp := GetBatchBuf(blocks)
		if !isAligned(*bp) || len(*bp) != blocks*BlockSize {
			t.Fatalf("GetBatchBuf(%d): addr %p len %d misaligned", blocks, *bp, len(*bp))
		}
		PutBatchBuf(bp)
	}
	// The allocator must produce aligned slices for any size.
	for _, n := range []int{1, BlockSize - 1, BlockSize, BlockSize + 1, 10 * BlockSize} {
		b := alignedBytes(n)
		if len(b) != n || uintptr(unsafe.Pointer(&b[0]))&(BlockSize-1) != 0 {
			t.Fatalf("alignedBytes(%d): len %d addr %p", n, len(b), b)
		}
	}
}

// requireDirect skips the test (with a notice) when the filesystem under dir
// rejects O_DIRECT — e.g. tmpfs runners.
func requireDirect(t *testing.T, dir string) {
	t.Helper()
	if !DirectIOSupported(dir) {
		t.Skipf("skipping: filesystem at %s rejects O_DIRECT", dir)
	}
}

// Property test for the tentpole's alignment invariant: in direct mode every
// pread/pwrite the store hands to the kernel must have a BlockSize-aligned
// offset, length and buffer address — across writes, reads (aligned and
// unaligned callers), bulk loads, journal GC, create, and open/replay.
func TestFileStoreDirectAlignmentInvariants(t *testing.T) {
	dir := t.TempDir()
	requireDirect(t, dir)
	path := filepath.Join(dir, "nvm.bnd")

	var mu sync.Mutex
	var violations []string
	check := func(op string, off int64, p []byte) {
		ok := off%BlockSize == 0 && len(p)%BlockSize == 0 && isAligned(p)
		if !ok {
			mu.Lock()
			violations = append(violations, fmt.Sprintf("%s off=%d len=%d aligned=%v", op, off, len(p), isAligned(p)))
			mu.Unlock()
		}
	}
	ioCheckHook = check
	defer func() { ioCheckHook = nil }()

	const numBlocks = 32
	s, err := CreateFileStore(path, numBlocks, FileStoreOptions{Direct: true, RingBlocks: minRingBlocks})
	if err != nil {
		t.Fatal(err)
	}
	if !s.DirectIO() {
		t.Fatal("direct mode not negotiated on a supporting filesystem")
	}

	rng := rand.New(rand.NewSource(7))
	shadow := make(map[int][]byte)
	unalignedDst := make([]byte, BlockSize+1)[1:] // deliberately misaligned caller buffer
	var unalignedReads int64
	for op := 0; op < 300; op++ {
		idx := rng.Intn(numBlocks)
		switch rng.Intn(5) {
		case 0, 1:
			src := make([]byte, BlockSize)
			rng.Read(src)
			if err := s.WriteBlock(idx, src); err != nil {
				t.Fatal(err)
			}
			shadow[idx] = src
		case 2:
			src := make([]byte, BlockSize)
			rng.Read(src)
			if err := s.WriteBlockUnjournaled(idx, src); err != nil {
				t.Fatal(err)
			}
			shadow[idx] = src
		case 3: // contiguous bulk write from an unaligned caller buffer
			n := 1 + rng.Intn(4)
			if idx+n > numBlocks {
				n = numBlocks - idx
			}
			src := make([]byte, n*BlockSize+1)[1:]
			rng.Read(src)
			if err := s.WriteBlocksUnjournaled(idx, src); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				shadow[idx+i] = append([]byte(nil), src[i*BlockSize:(i+1)*BlockSize]...)
			}
		case 4:
			want, ok := shadow[idx]
			if !ok {
				continue
			}
			dst := unalignedDst
			if rng.Intn(2) == 0 {
				bp := GetBlockBuf()
				defer PutBlockBuf(bp)
				dst = *bp
			} else {
				unalignedReads++
			}
			if err := s.ReadBlock(idx, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst[:BlockSize], want) {
				t.Fatalf("op %d: block %d content mismatch", op, idx)
			}
		}
	}
	if got := s.BackendStats().BouncedReads; got != unalignedReads || got == 0 {
		t.Fatalf("BouncedReads = %d after %d reads into a misaligned buffer", got, unalignedReads)
	}
	// Crash (no clean close) and reopen in direct mode: the replay path must
	// obey the invariant too.
	crash(s)
	r, err := OpenFileStore(path, FileStoreOptions{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	for idx, want := range shadow {
		if err := r.ReadBlock(idx, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %d lost across direct-mode crash/reopen", idx)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("%d unaligned I/Os in direct mode, e.g. %s", len(violations), violations[0])
	}
}

// The tentpole's write-path pin: a steady-state journaled WriteBlock is
// exactly 2 pwrites — 1 sequential ring-journal append + 1 in-place write —
// observed at the syscall choke point and cross-checked against the
// device-stats counters.
func TestFileStoreWriteBlockExactlyTwoPwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 64, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var pwrites atomic.Int64
	s.ioCheck = func(op string, off int64, p []byte) {
		if op == "pwrite" {
			pwrites.Add(1)
		}
	}
	const n = 20 // small enough that no GC watermark write or wrap pad fires
	for i := 0; i < n; i++ {
		if err := s.WriteBlock(i%s.NumBlocks(), fillBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.ioCheck = nil
	if got := pwrites.Load(); got != 2*n {
		t.Fatalf("%d journaled writes issued %d pwrites, want exactly %d (1 append + 1 in-place each)", n, got, 2*n)
	}
	st := s.BackendStats()
	if st.JournalWrites != n || st.DataWrites != n {
		t.Fatalf("stats JournalWrites=%d DataWrites=%d, want %d each", st.JournalWrites, st.DataWrites, n)
	}
	if st.JournalBytesAppended < int64(n)*BlockSize {
		t.Fatalf("JournalBytesAppended=%d implausibly small", st.JournalBytesAppended)
	}
}

// A ring that still holds a sub-block patch record — a kind older versions
// journaled single-vector updates with — is refused at open with an error
// that says so: the record may be the only copy of an acknowledged update, so
// the scan neither skips it nor takes it for the tail.
func TestRingJournalRejectsPatchRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(3, fillBlock(0xAA)); err != nil {
		t.Fatal(err)
	}
	// The old encoding: patchFlag | block<<12 | byte offset, payload = the
	// patched bytes.
	if _, err := s.ring.append(patchFlag|3<<12|1000, bytes.Repeat([]byte{0x5A}, 200)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(4, fillBlock(0xBB)); err != nil { // the chain goes on past it
		t.Fatal(err)
	}
	crash(s) // the record is still live in the ring

	_, err = OpenFileStore(path, FileStoreOptions{})
	if err == nil || !strings.Contains(err.Error(), "written by an older version") {
		t.Fatalf("open = %v, want a refusal naming the older version's patch record", err)
	}
}

// Exclusive open: a second opener (same or another process — flock is per
// open file description) must fail fast with ErrStoreLocked, not interleave
// journal writes.
func TestFileStoreExclusiveLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, FileStoreOptions{}); !errors.Is(err, ErrStoreLocked) {
		t.Fatalf("second open: err = %v, want ErrStoreLocked", err)
	}
	if _, err := CreateFileStore(path, 4, FileStoreOptions{}); !errors.Is(err, ErrStoreLocked) {
		t.Fatalf("create over locked store: err = %v, want ErrStoreLocked", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	r.Close()
}

// Direct-mode auto-negotiation: on a filesystem that rejects O_DIRECT
// (tmpfs) the store must fall back to buffered I/O and still work, with
// BackendStats reporting DirectIO=false.
func TestFileStoreDirectFallback(t *testing.T) {
	const shm = "/dev/shm"
	if fi, err := os.Stat(shm); err != nil || !fi.IsDir() {
		t.Skip("no /dev/shm tmpfs available")
	}
	if DirectIOSupported(shm) {
		t.Skipf("%s unexpectedly supports O_DIRECT; cannot exercise fallback", shm)
	}
	dir, err := os.MkdirTemp(shm, "bnd-fallback-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	path := filepath.Join(dir, "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{Direct: true})
	if err != nil {
		t.Fatalf("create with Direct on tmpfs must fall back, got %v", err)
	}
	if s.DirectIO() || s.BackendStats().DirectIO {
		t.Fatal("fallback store still claims direct I/O")
	}
	if err := s.WriteBlock(1, fillBlock(0x42)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := s.ReadBlock(1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, fillBlock(0x42)) {
		t.Fatal("fallback store round trip failed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Direct mode must survive a crash/reopen cycle with the same guarantees as
// buffered mode (the kill -9 suite runs at the core layer; this is the nvm
// unit version).
func TestFileStoreDirectCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	requireDirect(t, dir)
	path := filepath.Join(dir, "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(3, fillBlock(0xAA)); err != nil {
		t.Fatal(err)
	}
	// Tear the in-place write: the journal record must repair it at reopen.
	s.failAfterWrites(2)
	if err := s.WriteBlock(3, fillBlock(0x55)); err == nil {
		t.Fatal("expected injected write fault")
	}
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.DirectIO() {
		t.Fatal("reopen lost direct mode")
	}
	if got := r.BackendStats().RecoveredRecords; got < 1 {
		t.Fatalf("recovered %d records, want >= 1", got)
	}
	dst := make([]byte, BlockSize)
	if err := r.ReadBlock(3, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, fillBlock(0x55)) {
		t.Fatal("torn in-place write not repaired in direct mode")
	}
}
