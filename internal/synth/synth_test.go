package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// benchOptions is the benchmark harness's dataset: Table-1 profiles at scale
// 0.002, four tables, 12,000 requests.
var benchOptions = Options{Scale: 0.002, NumTables: 4, Seed: 1, Requests: 12000}

// workloadDigest hashes everything BuildWorkload returns: every table's raw
// vector bytes, every trace's queries and every table's community
// assignment, each framed by its length.
func workloadDigest(opts Options) string {
	tables, w := BuildWorkload(opts)
	h := sha256.New()
	u64 := func(h hash.Hash, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(h, uint64(len(tables)))
	for _, t := range tables {
		h.Write([]byte(t.Name))
		u64(h, uint64(t.NumVectors()))
		u64(h, uint64(t.Dim))
		for id := 0; id < t.NumVectors(); id++ {
			raw, err := t.Raw(uint32(id))
			if err != nil {
				panic(err)
			}
			h.Write(raw)
		}
	}
	u64(h, uint64(len(w.Traces)))
	var b [4]byte
	for _, tr := range w.Traces {
		h.Write([]byte(tr.TableName))
		u64(h, uint64(tr.NumVectors))
		u64(h, uint64(len(tr.Queries)))
		for _, q := range tr.Queries {
			u64(h, uint64(len(q)))
			for _, id := range q {
				binary.LittleEndian.PutUint32(b[:], id)
				h.Write(b[:])
			}
		}
	}
	u64(h, uint64(len(w.Communities)))
	for _, cs := range w.Communities {
		u64(h, uint64(len(cs)))
		for _, c := range cs {
			binary.LittleEndian.PutUint32(b[:], uint32(c))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildWorkloadGolden pins the generated dataset bit for bit: a change
// to how it is built (its order of work, its parallelism, its buffers) must
// not change a byte of what is built.
func TestBuildWorkloadGolden(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"benchmark", benchOptions, "20371524ba3d38f31a7f9698c8cbf2540db166a7a76b4ede2a3407e0a0d47149"},
		{"drift", Options{Scale: 0.001, NumTables: 3, Seed: 7, Requests: 3000, DriftRotateEvery: 500}, "e95dcab57d3903979649fde0ab56f1ae0581043c98ac5b95172a02a82190c1ce"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := workloadDigest(c.opts); got != c.want {
				t.Errorf("BuildWorkload(%+v) digest = %s, want %s", c.opts, got, c.want)
			}
		})
	}
}

// BenchmarkBuildWorkload builds the benchmark harness's dataset: the step
// every benchmark set-up, bandana-server and bandana init start with.
func BenchmarkBuildWorkload(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		BuildWorkload(benchOptions)
	}
}
