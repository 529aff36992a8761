package nvm

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestCrossBackendPropertyEquivalence drives one randomized op sequence
// (writes of random lengths, reads, and — for the file backends — periodic
// close/reopen cycles) against MemStore, a buffered FileStore reading through
// its mapping and (where the filesystem supports O_DIRECT) a direct-I/O
// FileStore reading with pread, and asserts all backends expose
// byte-identical block images throughout and at the end.
func TestCrossBackendPropertyEquivalence(t *testing.T) {
	const numBlocks = 24
	const ops = 600

	dir := t.TempDir()
	mem := NewMemStore(numBlocks)
	defer mem.Close()

	// Each file leg: path + options; reopened in place mid-sequence.
	type fileLeg struct {
		name     string
		path     string
		opts     FileStoreOptions
		readPath string
		store    *FileStore
	}
	legs := []*fileLeg{{
		name:     "file",
		path:     filepath.Join(dir, "nvm.bnd"),
		opts:     FileStoreOptions{RingBlocks: minRingBlocks},
		readPath: bufferedReadPath(),
	}}
	if DirectIOSupported(dir) {
		legs = append(legs, &fileLeg{
			name:     "file-direct",
			path:     filepath.Join(dir, "nvm-direct.bnd"),
			opts:     FileStoreOptions{RingBlocks: minRingBlocks, Direct: true},
			readPath: "pread",
		})
	} else {
		t.Log("skipping file-direct leg: filesystem rejects O_DIRECT")
	}
	// Every open of a leg, the create and each reopen, must take its read path.
	opened := func(leg *fileLeg, s *FileStore) {
		t.Helper()
		if got := s.BackendStats().ReadPath; got != leg.readPath {
			t.Fatalf("%s reads by %q, want %q", leg.name, got, leg.readPath)
		}
		leg.store = s
	}
	for _, leg := range legs {
		s, err := CreateFileStore(leg.path, numBlocks, leg.opts)
		if err != nil {
			t.Fatal(err)
		}
		opened(leg, s)
	}
	defer func() {
		for _, leg := range legs {
			leg.store.Close()
		}
	}()

	rng := rand.New(rand.NewSource(42))
	memBuf := make([]byte, BlockSize)
	fileBuf := make([]byte, BlockSize)

	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // write (sometimes short, exercising zero-fill)
			idx := rng.Intn(numBlocks)
			n := BlockSize
			if rng.Intn(3) == 0 {
				n = rng.Intn(BlockSize + 1)
			}
			src := make([]byte, n)
			rng.Read(src)
			if err := mem.WriteBlock(idx, src); err != nil {
				t.Fatal(err)
			}
			for _, leg := range legs {
				if err := leg.store.WriteBlock(idx, src); err != nil {
					t.Fatalf("%s: %v", leg.name, err)
				}
			}
		case 4, 5, 6, 7: // single read
			idx := rng.Intn(numBlocks)
			if err := mem.ReadBlock(idx, memBuf); err != nil {
				t.Fatal(err)
			}
			for _, leg := range legs {
				if err := leg.store.ReadBlock(idx, fileBuf); err != nil {
					t.Fatalf("%s: %v", leg.name, err)
				}
				if !bytes.Equal(memBuf, fileBuf) {
					t.Fatalf("op %d: block %d diverges between mem and %s", op, idx, leg.name)
				}
			}
		case 8: // batched read
			k := 1 + rng.Intn(5)
			idxs := make([]int, k)
			for i := range idxs {
				idxs[i] = rng.Intn(numBlocks)
			}
			m := make([]byte, k*BlockSize)
			f := make([]byte, k*BlockSize)
			if err := mem.ReadBlocks(idxs, m); err != nil {
				t.Fatal(err)
			}
			for _, leg := range legs {
				if err := leg.store.ReadBlocks(idxs, f); err != nil {
					t.Fatalf("%s: %v", leg.name, err)
				}
				if !bytes.Equal(m, f) {
					t.Fatalf("op %d: batched read diverges for blocks %v on %s", op, idxs, leg.name)
				}
			}
		case 9: // close + reopen the durable backends mid-sequence
			for _, leg := range legs {
				if err := leg.store.Close(); err != nil {
					t.Fatalf("%s: %v", leg.name, err)
				}
				s, err := OpenFileStore(leg.path, leg.opts)
				if err != nil {
					t.Fatalf("op %d: reopen %s: %v", op, leg.name, err)
				}
				opened(leg, s)
			}
		}
	}

	// Final sweep: every block byte-identical across all backends.
	for idx := 0; idx < numBlocks; idx++ {
		if err := mem.ReadBlock(idx, memBuf); err != nil {
			t.Fatal(err)
		}
		for _, leg := range legs {
			if err := leg.store.ReadBlock(idx, fileBuf); err != nil {
				t.Fatalf("%s: %v", leg.name, err)
			}
			if !bytes.Equal(memBuf, fileBuf) {
				t.Fatalf("final: block %d diverges between mem and %s", idx, leg.name)
			}
		}
	}
}
