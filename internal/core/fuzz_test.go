package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"bandana/internal/nvm"
)

// trainedDirFiles trains a small file-backed store in a temp dir and returns
// the migration.bnd its last install committed and the state.bnd it ended on,
// persisted once more with a demand threshold set on every table: real bytes
// for the two decoders every Train's crash recovery depends on.
func trainedDirFiles(f *testing.F) (migration, state []byte) {
	tables, traces := buildTestTables(f, 2, 256, 20)
	dir := filepath.Join(f.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	migrationCrashHook = func(stage string) {
		if stage == "staged" {
			if migration, err = os.ReadFile(filepath.Join(dir, MigrationManifestName)); err != nil {
				f.Error(err)
			}
		}
	}
	defer func() { migrationCrashHook = nil }()
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.5}); err != nil {
		f.Fatal(err)
	}
	for _, st := range s.tables {
		forceDemandThreshold(st, 2)
	}
	if err := s.Persist(); err != nil {
		f.Fatal(err)
	}
	if state, err = os.ReadFile(filepath.Join(dir, StateFileName)); err != nil {
		f.Fatal(err)
	}
	return migration, state
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

// sealed returns data followed by the CRC-32C trailer both formats end in.
func sealed(data []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(data), crc32.Checksum(data, manifestCRCTable))
}

// FuzzMigrationRecord throws arbitrary bytes, as they are and re-sealed with a
// valid checksum, at the migration.bnd decoder. It must return an error or a
// record whose lengths fit the bytes it was given — never panic, never size
// an allocation by a length it has not checked against them.
func FuzzMigrationRecord(f *testing.F) {
	migration, _ := trainedDirFiles(f)
	addSealedSeeds(f, migration)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, sealed(data)} {
			rec, err := decodeMigrationRecord(raw)
			if err != nil {
				continue
			}
			if len(rec.table) > len(raw) || len(rec.order) > len(raw) || rec.imageLen < 0 {
				t.Fatalf("%d-byte record decoded to a %d-byte name, %d-entry order, image length %d",
					len(raw), len(rec.table), len(rec.order), rec.imageLen)
			}
		}
	})
}

// updateLogFile returns the updates.log a file-backed store leaves behind
// after a few updates and a Close: the header and every record, uncompacted.
func updateLogFile(f *testing.F) []byte {
	tables, _ := buildTestTables(f, 2, 256, 10)
	dir := filepath.Join(f.TempDir(), "store")
	s, err := Open(Config{Tables: tables, Backend: BackendFile, DataDir: dir, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint32(0); i < 6; i++ {
		if err := s.UpdateVector(int(i%2), i*7, testVec(64, i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, UpdateLogFileName))
	if err != nil {
		f.Fatal(err)
	}
	if _, recs, err := parseUpdateLog(raw); err != nil || len(recs) != 6 {
		f.Fatalf("the seed log holds %d records (err %v), want the 6 updates", len(recs), err)
	}
	return raw
}

// sealedLogHeader returns data with its update-log header CRC made valid.
func sealedLogHeader(data []byte) []byte {
	if len(data) < updateLogHeaderLen {
		return data
	}
	data = bytes.Clone(data)
	binary.LittleEndian.PutUint32(data[16:], crc32.Checksum(data[:16], manifestCRCTable))
	return data
}

// sealedRecord returns data with the CRC of the update record at its front
// made valid, where the declared payload fits.
func sealedRecord(data []byte) []byte {
	if len(data) < updateRecordOverhead {
		return data
	}
	body := updateRecordHeaderLen + int(binary.LittleEndian.Uint32(data))
	if body-updateRecordHeaderLen > maxUpdatePayload || body+4 > len(data) {
		return data
	}
	data = bytes.Clone(data)
	binary.LittleEndian.PutUint32(data[body:], crc32.Checksum(data[:body], manifestCRCTable))
	return data
}

// FuzzStateDecode does the same for the state.bnd decoder, seeded with a
// trained data dir's version-6 state, testdata/state_v6.bnd (a pinned table's
// pinned ids, and a gated table's verdict bits), testdata/state_v5.bnd
// (verdict bits, one table prefetching with a demand gate, one gated without
// prefetching) and testdata/state_v4.bnd (access counts). Decoded verdicts
// must cover exactly the table's ids, and a pin verdict must hold no
// probation bits and exactly its table's cache allocation of ids.
func FuzzStateDecode(f *testing.F) {
	_, state := trainedDirFiles(f)
	addSealedSeeds(f, state)
	for _, name := range []string{"testdata/state_v6.bnd", "testdata/state_v5.bnd", "testdata/state_v4.bnd"} {
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

// FuzzUpdateLog throws arbitrary bytes, as they are and re-sealed, at the two
// readers of update records: parseUpdateLog, which replays updates.log on
// reopen, and the DecodeUpdateRecord loop a replica runs over a fetched
// stream. Every record must be a frame of the bytes it came from, in order,
// and every decoded frame must advance.
func FuzzUpdateLog(f *testing.F) {
	log := updateLogFile(f)
	records := log[updateLogHeaderLen:]
	for _, b := range [][]byte{log, log[:len(log)-3], log[:updateLogHeaderLen], records, records[:EncodedUpdateLen(128)], nil} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, sealedLogHeader(data)} {
			_, recs, err := parseUpdateLog(raw)
			if err != nil {
				continue
			}
			off := updateLogHeaderLen
			for i, rec := range recs {
				n := EncodedUpdateLen(len(rec.Raw))
				if off+n > len(raw) || (len(rec.Raw) > 0 && &rec.Raw[0] != &raw[off+updateRecordHeaderLen]) {
					t.Fatalf("record %d of a %d-byte log (%d payload bytes at offset %d) is not the log's next frame", i, len(raw), len(rec.Raw), off)
				}
				off += n
			}
		}
		for _, raw := range [][]byte{data, sealedRecord(data)} {
			for rest := raw; len(rest) > 0; {
				rec, n, err := DecodeUpdateRecord(rest)
				if err != nil {
					break
				}
				if n <= 0 || n > len(rest) || n != EncodedUpdateLen(len(rec.Raw)) {
					t.Fatalf("a %d-byte stream decoded a %d-byte payload consuming %d bytes", len(rest), len(rec.Raw), n)
				}
				rest = rest[n:]
			}
		}
	})
}

// FuzzManifest throws arbitrary bytes, as they are and re-sealed with a valid
// checksum, at the manifest.bnd decoder a reopen and a snapshot import trust
// for every block offset. It must return an error or a geometry of 1–65,536
// tables whose names fit the bytes given and whose block ranges lie inside
// the device.
func FuzzManifest(f *testing.F) {
	tables, _ := buildTestTables(f, 4, 256, 5)
	s, err := Open(Config{Tables: tables, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	addSealedSeeds(f, manifestBytes(s, s.device.NumBlocks()))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, sealed(data)} {
			geoms, total, err := parseManifest(raw)
			if err != nil {
				continue
			}
			if len(geoms) < 1 || len(geoms) > 1<<16 {
				t.Fatalf("accepted %d tables", len(geoms))
			}
			for _, g := range geoms {
				if len(g.name) > len(raw) {
					t.Fatalf("%d-byte manifest decoded a %d-byte name", len(raw), len(g.name))
				}
				if g.blockBase < 0 || g.numBlocks < 1 || g.blockBase+g.numBlocks > total ||
					g.numBlocks*g.blockVectors < g.numVectors {
					t.Fatalf("table %q spans blocks [%d,+%d) for %d vectors of a %d-block device",
						g.name, g.blockBase, g.numBlocks, g.numVectors, total)
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
			sn := &Snapshot{Manifest: parts[0], State: parts[1], Blocks: blocks, BlocksCRC: crc32.Checksum(blocks, manifestCRCTable)}
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
