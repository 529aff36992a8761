package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
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

// FuzzStateDecode does the same for the state.bnd decoder.
func FuzzStateDecode(f *testing.F) {
	_, state := trainedDirFiles(f)
	addSealedSeeds(f, state)
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
			}
		}
	})
}
