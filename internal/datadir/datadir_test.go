package datadir

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

var errFault = errors.New("injected fault")

// opFS is the OS file system with every call but the reads logged as
// "op name" (name relative to the dir; a directory sync logs no name), and
// every call whose op is fail failed with errFault instead.
type opFS struct {
	FS
	ops  []string
	fail string
}

func (o *opFS) do(op, name string) error {
	entry := op
	if name != "" {
		entry += " " + filepath.Base(name)
	}
	o.ops = append(o.ops, entry)
	if op == o.fail {
		return errFault
	}
	return nil
}

func (o *opFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	op := "open"
	if flag&os.O_CREATE != 0 {
		op = "create"
	}
	if err := o.do(op, name); err != nil {
		return nil, err
	}
	f, err := o.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &opFile{File: f, fs: o, name: name}, nil
}

func (o *opFS) Rename(oldpath, newpath string) error {
	if err := o.do("rename", oldpath); err != nil {
		return err
	}
	return o.FS.Rename(oldpath, newpath)
}

func (o *opFS) Remove(name string) error {
	if err := o.do("remove", name); err != nil {
		return err
	}
	return o.FS.Remove(name)
}

func (o *opFS) SyncDir(dir string) error {
	if err := o.do("syncdir", ""); err != nil {
		return err
	}
	return o.FS.SyncDir(dir)
}

type opFile struct {
	File
	fs   *opFS
	name string
}

func (f *opFile) Write(p []byte) (int, error) {
	if err := f.fs.do("write", f.name); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *opFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.do("writeat", f.name); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *opFile) Sync() error {
	if err := f.fs.do("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *opFile) Close() error {
	err := f.File.Close()
	if ferr := f.fs.do("close", f.name); ferr != nil {
		return ferr
	}
	return err
}

// TestAtomicWriteFaults fails each step of the atomic write in turn. The
// error must reach the caller, the target must hold its old bytes (or, once
// renamed, its complete new ones), and no temp file may be left behind.
func TestAtomicWriteFaults(t *testing.T) {
	old, updated := []byte("the old manifest"), []byte("the new manifest, a little longer")
	for _, step := range []string{"create", "write", "sync", "close", "rename", "syncdir"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			target := filepath.Join(dir, ManifestFileName)
			if err := os.WriteFile(target, old, 0o644); err != nil {
				t.Fatal(err)
			}
			ofs := &opFS{FS: OS, fail: step}
			if err := (Dir{FS: ofs, Path: dir}).WriteManifest(updated); !errors.Is(err, errFault) {
				t.Fatalf("a failed %s returned %v (ops %q)", step, err, ofs.ops)
			}
			want := old
			if step == "syncdir" {
				want = updated
			}
			if got, err := os.ReadFile(target); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("after a failed %s the target holds %q (%v), want %q", step, got, err, want)
			}
			if _, err := os.Stat(target + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("after a failed %s the temp file is left (%v)", step, err)
			}
		})
	}
}

// TestCommitOrder: every file a data dir commits whole — the manifest, the
// state, the staged migration image and its record, the rewritten update
// log — is written, fsynced, renamed into place, and then its directory is
// fsynced, in that order.
func TestCommitOrder(t *testing.T) {
	commits := []struct {
		name   string
		commit func(d Dir) error
	}{
		{ManifestFileName, func(d Dir) error { return d.WriteManifest([]byte("manifest")) }},
		{StateFileName, func(d Dir) error { return d.WriteState(writeBytes([]byte("state"))) }},
		{MigrationImageName, func(d Dir) error { return d.StageMigration([]byte("image")) }},
		{MigrationManifestName, func(d Dir) error { return d.CommitMigration("t", []uint32{1, 0}, []byte("image")) }},
		{UpdateLogFileName, func(d Dir) error {
			l, err := d.CreateUpdateLog(1, false)
			if err != nil {
				return err
			}
			if err := l.Rewrite(2, []UpdateRecord{{Seq: 3, Raw: []byte{1, 2}}}); err != nil {
				return err
			}
			return l.Close()
		}},
	}
	for _, c := range commits {
		ofs := &opFS{FS: OS}
		if err := c.commit(Dir{FS: ofs, Path: t.TempDir()}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tmp := c.name + ".tmp"
		want := []string{"write " + tmp, "sync " + tmp, "rename " + tmp, "syncdir"}
		next := 0
		for _, op := range ofs.ops {
			if next < len(want) && op == want[next] {
				next++
			}
		}
		if next < len(want) {
			t.Errorf("%s: ops %q lack %q after %q", c.name, ofs.ops, want[next], want[:next])
		}
	}
}
