package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bandana/internal/datadir"
	"bandana/internal/nvm"
)

// trainedStateFile trains a small file-backed store in a temp dir and returns
// the state.bnd it ended on, persisted once more with a demand threshold set
// on every table: real bytes for the decoder every reopen depends on.
func trainedStateFile(f *testing.F) []byte {
	tables, traces := buildTestTables(f, 2, 256, 20)
	dir := filepath.Join(f.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.5}); err != nil {
		f.Fatal(err)
	}
	for _, st := range s.tables {
		forceDemandThreshold(st, 2)
	}
	if err := s.Persist(); err != nil {
		f.Fatal(err)
	}
	state, err := os.ReadFile(filepath.Join(dir, datadir.StateFileName))
	if err != nil {
		f.Fatal(err)
	}
	return state
}

// addSealedSeeds seeds f with a CRC-trailed file, its payload alone (which
// the fuzz body re-seals, so mutations of it get past the checksum) and
// truncations of both.
func addSealedSeeds(f *testing.F, file []byte) {
	payload := file[:len(file)-4]
	for _, b := range [][]byte{file, payload, file[:len(file)/2], payload[:len(payload)-1], payload[:9], nil} {
		f.Add(b)
	}
}

// sealed returns data followed by the CRC-32C trailer the state and the
// manifest end in.
func sealed(data []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(data), crc32.Checksum(data, datadir.Castagnoli))
}

// FuzzStateDecode throws arbitrary bytes, as they are and re-sealed with a
// valid checksum, at the state.bnd decoder. It must return an error or
// tables whose lengths fit the bytes it was given. Seeds are a
// trained data dir's version-7 state, testdata/state_v7.bnd and
// testdata/state_v6.bnd (a pinned table's pinned ids, with and without their
// warm order, and a gated table's verdict bits), testdata/state_v5.bnd
// (verdict bits, one table prefetching with a demand gate, one gated without
// prefetching) and testdata/state_v4.bnd (access counts). Decoded verdicts
// must cover exactly the table's ids, and a pin verdict must hold no
// probation bits and exactly its table's cache allocation of ids, each once
// in its warm order.
func FuzzStateDecode(f *testing.F) {
	state := trainedStateFile(f)
	addSealedSeeds(f, state)
	for _, name := range []string{"testdata/state_v6.bnd", "testdata/state_v5.bnd", "testdata/state_v4.bnd", "testdata/state_v7.bnd"} {
		seed, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		addSealedSeeds(f, seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, sealed(data)} {
			saved, err := decodeSavedStates(bytes.NewReader(raw))
			if err != nil {
				continue
			}
			if len(saved) > len(raw) {
				t.Fatalf("%d bytes decoded to %d tables", len(raw), len(saved))
			}
			for _, sv := range saved {
				if len(sv.name) > len(raw) || len(sv.order) > len(raw) || len(sv.counts) > len(sv.order) {
					t.Fatalf("%d-byte state decoded to a %d-byte name, %d-entry order, %d counts",
						len(raw), len(sv.name), len(sv.order), len(sv.counts))
				}
				if v := sv.verdicts; v != nil {
					words := (len(sv.order) + 63) / 64
					pinned := v.pinned
					if pinned != nil {
						if n := v.pinnedVectors(); n != sv.cacheCap || n == 0 {
							t.Fatalf("a pin verdict of %d ids for a %d-vector cache", n, sv.cacheCap)
						}
						if warm := slices.Sorted(slices.Values(v.warm)); !slices.Equal(warm, v.pinnedIDs()) {
							t.Fatalf("a warm order of %d ids for %d pinned ids, or not each once", len(v.warm), v.pinnedVectors())
						}
					} else {
						pinned = make([]uint64, words)
					}
					if len(v.prefetch) != words || len(v.probation) != words || len(pinned) != words ||
						(len(sv.order)%64 != 0 && (v.prefetch[words-1]|v.probation[words-1]|pinned[words-1])>>(len(sv.order)%64) != 0) {
						t.Fatalf("%d-entry order decoded with %d/%d/%d verdict words or bits beyond it", len(sv.order), len(v.prefetch), len(v.probation), len(pinned))
					}
				}
			}
		}
	})
}

// FuzzSnapshotImport throws arbitrary snapshot streams — the manifest, state
// and block parts a replica downloads chunk by chunk, each as it is and
// re-sealed (the parts' CRC trailers made valid, the block image's CRC taken
// over whatever bytes arrive) — at ImportSnapshot, and opens what it accepts
// read-only. Seeds are the parts ExportSnapshot writes for a trained store,
// one of whose tables is pinned, whole and truncated. An import must fail or
// leave a data dir that opens (or fails to open) and serves every table's
// first and last vector without panicking.
func FuzzSnapshotImport(f *testing.F) {
	tables, traces := buildTestTables(f, 2, 96, 60)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 80, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 2, MiniCacheSampling: 1}); err != nil {
		f.Fatal(err)
	}
	if s.Stats()[0].PinnedVectors == 0 && s.Stats()[1].PinnedVectors == 0 {
		f.Fatal("no table pinned: the seeds carry no pin verdict")
	}
	snap, err := s.ExportSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Manifest, snap.State, snap.Blocks)
	f.Add(snap.Manifest[:len(snap.Manifest)-4], snap.State[:len(snap.State)-4], snap.Blocks)
	f.Add(snap.Manifest, snap.State[:len(snap.State)/2], snap.Blocks[:len(snap.Blocks)/2])
	f.Add(snap.Manifest, snap.State, snap.Blocks[:nvm.BlockSize])
	f.Fuzz(func(t *testing.T, manifest, state, blocks []byte) {
		for i, parts := range [][2][]byte{{manifest, state}, {sealed(manifest), sealed(state)}} {
			dir := filepath.Join(t.TempDir(), fmt.Sprint(i))
			sn := &Snapshot{Manifest: parts[0], State: parts[1], Blocks: blocks, BlocksCRC: crc32.Checksum(blocks, datadir.Castagnoli)}
			if err := ImportSnapshot(dir, sn, nvm.SyncNone); err != nil {
				continue
			}
			r, err := Open(Config{Backend: BackendFile, DataDir: dir, ReadOnly: true})
			if err != nil {
				continue
			}
			for ti, st := range r.tables {
				for _, id := range []uint32{0, uint32(st.numVectors - 1)} {
					if _, err := r.Lookup(ti, id); err != nil {
						t.Fatalf("table %q id %d: %v", st.name, id, err)
					}
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
