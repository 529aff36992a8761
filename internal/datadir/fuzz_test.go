package datadir

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// addSealedSeeds seeds f with a CRC-trailed file, its payload alone (which
// the fuzz body re-seals, so mutations of it get past the checksum) and
// truncations of both.
func addSealedSeeds(f *testing.F, file []byte) {
	payload := file[:len(file)-4]
	for _, b := range [][]byte{file, payload, file[:len(file)/2], payload[:len(payload)-1], payload[:9], nil} {
		f.Add(b)
	}
}

// FuzzMigrationRecord throws arbitrary bytes, as they are and re-sealed with a
// valid checksum, at the migration.bnd decoder. It must return an error or a
// record whose lengths fit the bytes it was given — never panic, never size
// an allocation by a length it has not checked against them. The seed,
// testdata/migration.bnd, is the record the last install of a Train of two
// 256-vector tables committed (the store's seed 1).
func FuzzMigrationRecord(f *testing.F) {
	migration, err := os.ReadFile("testdata/migration.bnd")
	if err != nil {
		f.Fatal(err)
	}
	addSealedSeeds(f, migration)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, seal(bytes.Clone(data))} {
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

// updateLogFile returns the updates.log a store leaves behind after six
// updates of dim-64 vectors to two tables and a Close: the header and every
// record, uncompacted.
func updateLogFile(f *testing.F) []byte {
	d := Dir{FS: OS, Path: f.TempDir()}
	const base = 1 << 40
	l, err := d.CreateUpdateLog(base, false)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint32(0); i < 6; i++ {
		raw := bytes.Repeat([]byte{byte(i + 1)}, 128)
		if err := l.Append(UpdateRecord{Seq: base + 1 + uint64(i), Table: i % 2, ID: i * 7, Raw: raw}); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(d.Path, UpdateLogFileName))
	if err != nil {
		f.Fatal(err)
	}
	if _, recs, err := ParseUpdateLog(raw); err != nil || len(recs) != 6 {
		f.Fatalf("the seed log holds %d records (err %v), want the 6 updates", len(recs), err)
	}
	return raw
}

// sealedLogHeader returns data with its update-log header CRC made valid.
func sealedLogHeader(data []byte) []byte {
	if len(data) < UpdateLogHeaderLen {
		return data
	}
	data = bytes.Clone(data)
	binary.LittleEndian.PutUint32(data[16:], crc32.Checksum(data[:16], Castagnoli))
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
	binary.LittleEndian.PutUint32(data[body:], crc32.Checksum(data[:body], Castagnoli))
	return data
}

// FuzzUpdateLog throws arbitrary bytes, as they are and re-sealed, at the two
// readers of update records: ParseUpdateLog, which replays updates.log on
// reopen, and the DecodeUpdateRecord loop a replica runs over a fetched
// stream. Every record must be a frame of the bytes it came from, in order,
// and every decoded frame must advance.
func FuzzUpdateLog(f *testing.F) {
	log := updateLogFile(f)
	records := log[UpdateLogHeaderLen:]
	for _, b := range [][]byte{log, log[:len(log)-3], log[:UpdateLogHeaderLen], records, records[:EncodedUpdateLen(128)], nil} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, sealedLogHeader(data)} {
			_, recs, err := ParseUpdateLog(raw)
			if err != nil {
				continue
			}
			off := UpdateLogHeaderLen
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
// the device. The seed is the manifest of a store of four 256-vector dim-64
// tables.
func FuzzManifest(f *testing.F) {
	geoms := []TableGeom{
		{Name: "tA", Dim: 64, NumVectors: 256}, {Name: "tB", Dim: 64, NumVectors: 256},
		{Name: "tC", Dim: 64, NumVectors: 256}, {Name: "tD", Dim: 64, NumVectors: 256},
	}
	total, err := PlaceTables(geoms)
	if err != nil {
		f.Fatal(err)
	}
	addSealedSeeds(f, EncodeManifest(geoms, total))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, seal(bytes.Clone(data))} {
			geoms, total, err := DecodeManifest(raw)
			if err != nil {
				continue
			}
			if len(geoms) < 1 || len(geoms) > 1<<16 {
				t.Fatalf("accepted %d tables", len(geoms))
			}
			for _, g := range geoms {
				if len(g.Name) > len(raw) {
					t.Fatalf("%d-byte manifest decoded a %d-byte name", len(raw), len(g.Name))
				}
				if g.BlockBase < 0 || g.NumBlocks < 1 || g.BlockBase+g.NumBlocks > total ||
					g.NumBlocks*g.BlockVectors < g.NumVectors {
					t.Fatalf("table %q spans blocks [%d,+%d) for %d vectors of a %d-block device",
						g.Name, g.BlockBase, g.NumBlocks, g.NumVectors, total)
				}
			}
		}
	})
}
