package nvm

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// bufferedReadPath is the read path a buffered file store takes here.
func bufferedReadPath() string {
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd":
		return "mmap"
	}
	return "pread"
}

// TestMappedReadsSeeEveryWritePath: a buffered store reads through its
// mapping, and a block read after each write path — journaled, unjournaled,
// a bulk range, and a journal replay at reopen — returns the new bytes,
// including for pages the mapping had already faulted in.
func TestMappedReadsSeeEveryWritePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.BackendStats().ReadPath, bufferedReadPath(); got != want {
		t.Fatalf("buffered store reads by %q, want %q", got, want)
	}
	dst := make([]byte, 4*BlockSize)
	expect := func(how string, idxs []int, tags ...byte) {
		t.Helper()
		if err := s.ReadBlocks(idxs, dst); err != nil {
			t.Fatal(err)
		}
		for i, tag := range tags {
			if !bytes.Equal(dst[i*BlockSize:(i+1)*BlockSize], fillBlock(tag)) {
				t.Fatalf("after %s: block %d does not read back the new bytes", how, idxs[i])
			}
		}
	}
	// Fault every page in first: zeros.
	for idx := 0; idx < 8; idx++ {
		if err := s.ReadBlock(idx, dst); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.WriteBlock(1, fillBlock(0x11)); err != nil {
		t.Fatal(err)
	}
	expect("WriteBlock", []int{1}, 0x11)
	if err := s.WriteBlockUnjournaled(1, fillBlock(0x22)); err != nil {
		t.Fatal(err)
	}
	expect("WriteBlockUnjournaled", []int{1}, 0x22)
	bulk := append(append(fillBlock(0x33), fillBlock(0x44)...), fillBlock(0x55)...)
	if err := s.WriteBlocksUnjournaled(4, bulk); err != nil {
		t.Fatal(err)
	}
	expect("WriteBlocksUnjournaled", []int{4, 5, 6}, 0x33, 0x44, 0x55)

	// Tear the in-place half of a journaled write and crash: the reopen's
	// replay must land in what the new mapping reads.
	s.failAfterWrites(2)
	if err := s.WriteBlock(5, fillBlock(0x66)); err == nil {
		t.Fatal("expected injected write fault")
	}
	crash(s)
	if s, err = OpenFileStore(path, FileStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.BackendStats(); st.RecoveredRecords < 1 || st.ReadPath != bufferedReadPath() {
		t.Fatalf("reopen: %d records replayed, read path %q", st.RecoveredRecords, st.ReadPath)
	}
	expect("replay", []int{1, 4, 5, 6}, 0x22, 0x33, 0x66, 0x55)
}

// TestCloseRacesReadBlocks closes a store under concurrent batched reads:
// nothing faults, every read returns the right blocks or an error, and a
// read after Close fails. Buffered (mapped) and, where the filesystem takes
// O_DIRECT, direct stores alike.
func TestCloseRacesReadBlocks(t *testing.T) {
	const numBlocks = 64
	dir := t.TempDir()
	legs := map[string]FileStoreOptions{"buffered.bnd": {}}
	if DirectIOSupported(dir) {
		legs["direct.bnd"] = FileStoreOptions{Direct: true}
	}
	for name, opts := range legs {
		s, err := CreateFileStore(filepath.Join(dir, name), numBlocks, opts)
		if err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < numBlocks; idx++ {
			if err := s.WriteBlockUnjournaled(idx, fillBlock(byte(idx))); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				bp := GetBatchBuf(8)
				defer PutBatchBuf(bp)
				idxs := make([]int, 8)
				for {
					for i := range idxs {
						idxs[i] = rng.Intn(numBlocks)
					}
					if err := s.ReadBlocks(idxs, *bp); err != nil {
						return
					}
					for i, idx := range idxs {
						if !bytes.Equal((*bp)[i*BlockSize:(i+1)*BlockSize], fillBlock(byte(idx))) {
							t.Errorf("%s: block %d read back wrong while closing", name, idx)
							return
						}
					}
				}
			}(int64(g))
		}
		time.Sleep(20 * time.Millisecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := s.ReadBlock(0, make([]byte, BlockSize)); err == nil {
			t.Fatalf("%s: a read after Close succeeded", name)
		}
	}
}
