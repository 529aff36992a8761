package nvm

import (
	"bytes"
	"errors"
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
// mapping, and a block read after each write path — a single block, a bulk
// range, and a crash and reopen — returns the new bytes, including for pages
// the mapping had already faulted in.
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
	if err := s.WriteBlock(1, fillBlock(0x22)); err != nil {
		t.Fatal(err)
	}
	expect("a second WriteBlock", []int{1}, 0x22)
	bulk := append(append(fillBlock(0x33), fillBlock(0x44)...), fillBlock(0x55)...)
	if err := s.WriteBlocks(4, bulk); err != nil {
		t.Fatal(err)
	}
	expect("WriteBlocks", []int{4, 5, 6}, 0x33, 0x44, 0x55)

	// Write and crash: the reopen's new mapping reads what the old one saw.
	if err := s.WriteBlock(5, fillBlock(0x66)); err != nil {
		t.Fatal(err)
	}
	crash(s)
	if s, err = OpenFileStore(path, FileStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.BackendStats().ReadPath; got != bufferedReadPath() {
		t.Fatalf("reopen reads by %q", got)
	}
	expect("reopen", []int{1, 4, 5, 6}, 0x22, 0x33, 0x66, 0x55)
}

// TestVisitBlocksInPlace: a store whose blocks are memory — a buffered file
// store's mapping, or a MemStore — hands each block of a visit, in the order
// asked, as a view of that memory — the bytes a write put there, with no
// copy — and the device counts the blocks and one read batch with no
// modelled latency. A store with no mapping, direct or closed, cannot be
// visited, and neither can a store that merely embeds a MemStore: the device
// picks the reader by the store's concrete type.
func TestVisitBlocksInPlace(t *testing.T) {
	dir := t.TempDir()
	type visitLeg struct {
		name    string
		open    func() (BlockStore, error)
		inPlace bool
	}
	legs := []visitLeg{
		{"buffered", func() (BlockStore, error) {
			return CreateFileStore(filepath.Join(dir, "buffered.bnd"), 8, FileStoreOptions{})
		}, bufferedReadPath() == "mmap"},
		{"mem", func() (BlockStore, error) { return NewMemStore(8), nil }, true},
		{"mem-wrapper", func() (BlockStore, error) { return struct{ *MemStore }{NewMemStore(8)}, nil }, false},
	}
	if DirectIOSupported(dir) {
		legs = append(legs, visitLeg{"direct", func() (BlockStore, error) {
			return CreateFileStore(filepath.Join(dir, "direct.bnd"), 8, FileStoreOptions{Direct: true})
		}, false})
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			s, err := leg.open()
			if err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < 8; idx++ {
				if err := s.WriteBlock(idx, fillBlock(byte(0x10+idx))); err != nil {
					t.Fatal(err)
				}
			}
			d := NewDevice(DeviceConfig{Store: s})
			defer d.Close()
			if d.ReadsInPlace() != leg.inPlace {
				t.Fatalf("ReadsInPlace() = %v, want %v", !leg.inPlace, leg.inPlace)
			}
			if !leg.inPlace {
				if err := d.VisitBlocks([]int{0}, func(int, []byte) { t.Error("visited") }); !errors.Is(err, ErrNotMapped) {
					t.Fatalf("visit: %v, want ErrNotMapped", err)
				}
				return
			}
			idxs := []int{6, 2, 5}
			var seen []int
			err = d.VisitBlocks(idxs, func(i int, block []byte) {
				seen = append(seen, i)
				if !bytes.Equal(block, fillBlock(byte(0x10+idxs[i]))) {
					t.Errorf("visit %d: block %d has the wrong bytes", i, idxs[i])
				}
				if len(block) != BlockSize || cap(block) != BlockSize {
					t.Errorf("visit %d: view is %d bytes (cap %d), want exactly the block", i, len(block), cap(block))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
				t.Fatalf("visited %v, want [0 1 2]", seen)
			}
			if st := d.Stats(); st.BlocksRead != 3 || st.ReadBatches != 1 || st.ReadLatency.Count != 0 {
				t.Fatalf("device after one visit: %d blocks, %d batches, %d modelled latencies: want 3, 1, 0",
					st.BlocksRead, st.ReadBatches, st.ReadLatency.Count)
			}
			if err := d.VisitBlocks([]int{8}, func(int, []byte) {}); err == nil {
				t.Fatal("visiting a block past the end succeeded")
			}
			if _, ok := s.(*FileStore); !ok {
				return
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if err := d.VisitBlocks([]int{0}, func(int, []byte) { t.Error("visited a closed store") }); !errors.Is(err, ErrNotMapped) {
				t.Fatalf("visit after Close: %v, want ErrNotMapped", err)
			}
		})
	}
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
			if err := s.WriteBlock(idx, fillBlock(byte(idx))); err != nil {
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
