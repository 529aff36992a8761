package core

import (
	"bytes"
	"fmt"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"bandana/internal/datadir"
	"bandana/internal/nvm"
	"bandana/internal/table"
)

// This file is the proof that the update log alone makes the block file
// crash-safe: the block store keeps no journal. The crash model is what
// Config.Sync = nvm.SyncAlways promises (O_SYNC blocks, an fsync per log
// append): a crash leaves a prefix of the writes, and the write in flight
// may be torn at a 512 B sector boundary, its first k sectors new.
//
// A compaction writes only blocks between its two log writes — covering its
// entries in the log (re-logging after a failed append) and advancing the
// watermark. So a crash leaves any subset of its changed blocks landed (no
// write order is assumed) and at most one more torn, under the log with its
// old header; the header is new only once every block has landed. Each state
// is reopened and must serve every vector exactly: its last acknowledged
// update or its original value. The replay a sample of those reopens ran is
// then crashed the same way (its log stays until it has flushed).

const (
	crashDim     = 100 // 200 B vectors: 20 to a block, and some straddle a 512 B sector
	crashVectors = 200 // 10 blocks
	crashSector  = 512
	// crashReplaySample is how many states of each scenario have their
	// replay crashed again (all of its states), chosen by a fixed seed.
	crashReplaySample = 6
)

// crashFiles is a data dir's contents: file name -> bytes.
type crashFiles map[string][]byte

func readCrashFiles(t *testing.T, dir string) crashFiles {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := crashFiles{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// with returns a copy of f with name replaced by raw.
func (f crashFiles) with(name string, raw []byte) crashFiles {
	out := make(crashFiles, len(f))
	for k, v := range f {
		out[k] = v
	}
	out[name] = raw
	return out
}

func (f crashFiles) write(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, raw := range f {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// eachCrashImage calls visit with every image a crash can leave of a block
// file whose blocks went from before to after by in-place block writes:
// every subset of the changed blocks landed, plus each of those with one
// other changed block torn after 1..7 sectors. full marks the image with
// every block landed. visit must not keep img. It returns how many blocks
// changed.
func eachCrashImage(before, after []byte, visit func(img []byte, full bool)) int {
	const bs = nvm.BlockSize
	var changed []int
	for b := 0; b*bs < len(after); b++ {
		if !bytes.Equal(before[b*bs:(b+1)*bs], after[b*bs:(b+1)*bs]) {
			changed = append(changed, b)
		}
	}
	img := make([]byte, len(after))
	for mask := 0; mask < 1<<len(changed); mask++ {
		copy(img, before)
		for i, b := range changed {
			if mask&(1<<i) != 0 {
				copy(img[b*bs:(b+1)*bs], after[b*bs:])
			}
		}
		visit(img, mask == 1<<len(changed)-1)
		for i, b := range changed {
			if mask&(1<<i) != 0 {
				continue
			}
			for k := 1; k < bs/crashSector; k++ {
				copy(img[b*bs:b*bs+k*crashSector], after[b*bs:])
				visit(img, false)
				copy(img[b*bs:(b+1)*bs], before[b*bs:])
			}
		}
	}
	return len(changed)
}

// crashStore is one scenario's store plus the oracle of what it must serve.
type crashStore struct {
	t    *testing.T
	dir  string
	s    *Store
	fs   *fullDiskFS
	want [][]byte // per vector ID: its last acknowledged raw value
	rng  *rand.Rand
}

// failLog makes the store's open update log fail every write and sync with
// ENOSPC, as a full disk does; the file a rewrite opens next is healthy.
func (c *crashStore) failLog() { c.fs.fill(filepath.Join(c.dir, datadir.UpdateLogFileName)) }

// fullDiskFS is the OS file system, except that fill makes the file last
// opened at a path fail with ENOSPC.
type fullDiskFS struct {
	datadir.FS
	mu   sync.Mutex
	last map[string]*fullDiskFile
}

func (fs *fullDiskFS) OpenFile(name string, flag int, perm iofs.FileMode) (datadir.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ff := &fullDiskFile{File: f}
	fs.mu.Lock()
	fs.last[name] = ff
	fs.mu.Unlock()
	return ff, nil
}

func (fs *fullDiskFS) fill(name string) {
	fs.mu.Lock()
	fs.last[name].full.Store(true)
	fs.mu.Unlock()
}

type fullDiskFile struct {
	datadir.File
	full atomic.Bool
}

func (f *fullDiskFile) Write(p []byte) (int, error) {
	if f.full.Load() {
		return 0, syscall.ENOSPC
	}
	return f.File.Write(p)
}

func (f *fullDiskFile) WriteAt(p []byte, off int64) (int, error) {
	if f.full.Load() {
		return 0, syscall.ENOSPC
	}
	return f.File.WriteAt(p, off)
}

func (f *fullDiskFile) Sync() error {
	if f.full.Load() {
		return syscall.ENOSPC
	}
	return f.File.Sync()
}

func crashConfig(dir string) Config {
	return Config{
		Backend: BackendFile,
		DataDir: dir,
		Sync:    nvm.SyncAlways,
		Direct:  testDirect(),
		Seed:    1,
		// No background compaction: the test runs the one under test.
		UpdateLog: UpdateLogOptions{CompactAfter: 1 << 20},
	}
}

func newCrashStore(t *testing.T) *crashStore {
	t.Helper()
	root := t.TempDir()
	if testDirect() && !nvm.DirectIOSupported(root) {
		t.Skipf("skipping: filesystem at %s rejects O_DIRECT", root)
	}
	c := &crashStore{t: t, dir: filepath.Join(root, "store"), rng: rand.New(rand.NewSource(41))}
	c.fs = &fullDiskFS{FS: dataFS, last: map[string]*fullDiskFile{}}
	dataFS = c.fs
	t.Cleanup(func() { dataFS = c.fs.FS })
	tbl := table.New("crash", crashVectors, crashDim)
	for id := range crashVectors {
		raw := make([]byte, crashDim*2)
		c.rng.Read(raw)
		if err := tbl.SetRaw(table.ID(id), raw); err != nil {
			t.Fatal(err)
		}
		c.want = append(c.want, raw)
	}
	cfg := crashConfig(c.dir)
	cfg.Tables = []*table.Table{tbl}
	var err error
	if c.s, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	return c
}

// update writes fresh random bytes to id, which the oracle expects from here
// on — also after a failed append, which the compaction's relog covers before
// it writes a block.
func (c *crashStore) update(id uint32) {
	c.t.Helper()
	raw := make([]byte, crashDim*2)
	c.rng.Read(raw)
	if err := c.s.UpdateVectorRaw(0, id, raw); err != nil {
		c.t.Fatal(err)
	}
	c.want[id] = raw
}

// verifyCrashState opens dir and checks every vector against the oracle.
func verifyCrashState(dir string, want [][]byte) error {
	s, err := Open(crashConfig(dir))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer s.Close()
	ids := make([]uint32, len(want))
	for i := range ids {
		ids[i] = uint32(i)
	}
	got, err := s.LookupBatchRaw(0, ids)
	if err != nil {
		return err
	}
	for id := range want {
		if !bytes.Equal(got[id], want[id]) {
			return fmt.Errorf("vector %d: served bytes are neither torn-free nor the last acknowledged update", id)
		}
	}
	return nil
}

// crashCompaction runs the compaction under test and checks every state a
// crash inside it can leave, and every state a crash inside the replays of
// a fixed-seed sample of them can leave. It returns how many it checked.
func (c *crashStore) crashCompaction() (compactStates, replayStates int) {
	t := c.t
	t.Helper()
	pre := readCrashFiles(t, c.dir)
	if err := c.s.CompactDeltas(); err != nil {
		t.Fatal(err)
	}
	post := readCrashFiles(t, c.dir)
	if err := c.s.Close(); err != nil {
		t.Fatal(err)
	}
	preLog, postLog := pre[datadir.UpdateLogFileName], post[datadir.UpdateLogFileName]
	// The log as the block writes found it: the compaction's relog (if any)
	// done, its watermark not yet advanced.
	midLog := append(append([]byte(nil), preLog[:datadir.UpdateLogHeaderLen]...), postLog[datadir.UpdateLogHeaderLen:]...)

	n := 0
	dirty := eachCrashImage(pre[datadir.BlocksFileName], post[datadir.BlocksFileName], func([]byte, bool) { n++ })
	if dirty == 0 || dirty > 6 {
		t.Fatalf("compaction changed %d blocks, want 1..6", dirty)
	}
	pick := map[int]bool{}
	for _, i := range rand.New(rand.NewSource(7)).Perm(n)[:min(crashReplaySample, n)] {
		pick[i] = true
	}
	type replay struct{ files, replayed crashFiles }
	var sample []replay
	scratch := filepath.Join(t.TempDir(), "state")
	eachCrashImage(pre[datadir.BlocksFileName], post[datadir.BlocksFileName], func(img []byte, full bool) {
		log := midLog
		if full {
			log = postLog
		}
		files := pre.with(datadir.UpdateLogFileName, log).with(datadir.BlocksFileName, img)
		files.write(t, scratch)
		if err := verifyCrashState(scratch, c.want); err != nil {
			t.Fatalf("compaction crash state %d: %v", compactStates, err)
		}
		if pick[compactStates] {
			// The reopen above ran this state's replay; keep both sides.
			files = files.with(datadir.BlocksFileName, append([]byte(nil), img...))
			sample = append(sample, replay{files, readCrashFiles(t, scratch)})
		}
		compactStates++
	})
	for _, r := range sample {
		eachCrashImage(r.files[datadir.BlocksFileName], r.replayed[datadir.BlocksFileName], func(img []byte, _ bool) {
			r.files.with(datadir.BlocksFileName, img).write(t, scratch)
			if err := verifyCrashState(scratch, c.want); err != nil {
				t.Fatalf("replay crash state %d: %v", replayStates, err)
			}
			replayStates++
		})
	}
	return compactStates, replayStates
}

// TestCompactionCrashStates enumerates the crash states of a compaction and
// of the replay that repairs them (see the top of this file).
func TestCompactionCrashStates(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(c *crashStore)
	}{
		{"repeated-updates", func(c *crashStore) {
			// Vector 2 sits across the first sector boundary of block 0 and
			// is updated three times; replay must end at the last.
			for _, id := range []uint32{2, 5, 2, 22, 45, 2, 65, 87} {
				c.update(id)
			}
		}},
		{"second-compaction", func(c *crashStore) {
			for _, id := range []uint32{2, 22, 45} {
				c.update(id)
			}
			if err := c.s.CompactDeltas(); err != nil {
				c.t.Fatal(err)
			}
			// The records of the first compaction stay in the log file at
			// or below its watermark; replay must skip them.
			for _, id := range []uint32{2, 3, 45, 66, 107} {
				c.update(id)
			}
		}},
		{"after-failed-append", func(c *crashStore) {
			c.update(2)
			c.update(22)
			// The log file fails: the next appends fall back to the overlay
			// alone, and the compaction must re-log them before writing.
			c.failLog()
			for _, id := range []uint32{45, 2, 66} {
				c.update(id)
			}
			if c.s.UpdateLogStats().FallbackWrites == 0 {
				c.t.Fatal("no append failed")
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			c := newCrashStore(t)
			sc.run(c)
			compact, replay := c.crashCompaction()
			t.Logf("%s: checked %d compaction crash states and %d replay crash states", sc.name, compact, replay)
		})
	}
}

// TestFailedAppendKeepsEarlierUpdates: an update whose log append fails
// must not revoke the durability of the updates logged before it. The log's
// watermark may only say what compaction has made durable in the block
// image.
func TestFailedAppendKeepsEarlierUpdates(t *testing.T) {
	c := newCrashStore(t)
	c.update(7)
	c.failLog()
	c.update(190)
	if got := c.s.UpdateLogStats().FallbackWrites; got != 1 {
		t.Fatalf("FallbackWrites = %d, want 1", got)
	}
	c.s.Close() // fails: the log's file is full
	s, err := Open(crashConfig(c.dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.LookupBatchRaw(0, []uint32{7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], c.want[7]) {
		t.Fatal("vector 7 lost its fsynced update after a later append failed")
	}
}
