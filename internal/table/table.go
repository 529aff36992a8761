// Package table implements embedding tables: dense collections of fixed
// dimension fp16 vectors addressed by a 32-bit vector ID (the "column ID" in
// the paper's terminology).
//
// The production model described in the paper uses 8 user embedding tables
// of 10-20 million vectors, each vector holding 64 fp16 elements (128 B).
// This package stores tables compactly (2 bytes per element), generates
// synthetic tables whose geometry mirrors the co-access structure of the
// workload generator (so that semantic K-means partitioning has signal to
// find).
package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bandana/internal/fp16"
)

// ID identifies a vector (column) within a table.
type ID = uint32

// Table is an in-memory embedding table of NumVectors vectors, each with Dim
// fp16 elements. Vectors are stored contiguously in raw (encoded) form.
type Table struct {
	Name string
	Dim  int // elements per vector

	data []byte // NumVectors * Dim * 2 bytes
}

// ErrBadVector is returned when a vector ID is out of range.
var ErrBadVector = errors.New("table: vector id out of range")

// New creates an empty (all zero) table.
func New(name string, numVectors, dim int) *Table {
	if numVectors < 0 || dim <= 0 {
		panic(fmt.Sprintf("table: invalid shape %d x %d", numVectors, dim))
	}
	return &Table{
		Name: name,
		Dim:  dim,
		data: make([]byte, numVectors*dim*fp16.ByteSize),
	}
}

// NumVectors returns the number of vectors in the table.
func (t *Table) NumVectors() int {
	if t.Dim == 0 {
		return 0
	}
	return len(t.data) / (t.Dim * fp16.ByteSize)
}

// VectorBytes returns the encoded size of one vector in bytes.
func (t *Table) VectorBytes() int { return t.Dim * fp16.ByteSize }

// SizeBytes returns the total encoded size of the table.
func (t *Table) SizeBytes() int { return len(t.data) }

// Raw returns the encoded bytes of vector id. The returned slice aliases the
// table's storage and must not be modified.
func (t *Table) Raw(id ID) ([]byte, error) {
	vb := t.VectorBytes()
	off := int(id) * vb
	if int(id) >= t.NumVectors() {
		return nil, fmt.Errorf("%w: %d (table has %d)", ErrBadVector, id, t.NumVectors())
	}
	return t.data[off : off+vb], nil
}

// Vector decodes vector id into a freshly allocated []float32.
func (t *Table) Vector(id ID) ([]float32, error) {
	raw, err := t.Raw(id)
	if err != nil {
		return nil, err
	}
	out := make([]float32, t.Dim)
	fp16.DecodeSlice(out, raw)
	return out, nil
}

// VectorInto decodes vector id into dst, which must have length >= Dim.
func (t *Table) VectorInto(dst []float32, id ID) error {
	raw, err := t.Raw(id)
	if err != nil {
		return err
	}
	if len(dst) < t.Dim {
		return fmt.Errorf("table: destination too small: %d < %d", len(dst), t.Dim)
	}
	fp16.DecodeSlice(dst[:t.Dim], raw)
	return nil
}

// SetRaw overwrites the encoded bytes of vector id with raw, which must be
// exactly VectorBytes long. It is the ingest path used when reconstructing a
// table from its on-NVM block image.
func (t *Table) SetRaw(id ID, raw []byte) error {
	if int(id) >= t.NumVectors() {
		return fmt.Errorf("%w: %d", ErrBadVector, id)
	}
	vb := t.VectorBytes()
	if len(raw) != vb {
		return fmt.Errorf("table: raw vector has %d bytes, want %d", len(raw), vb)
	}
	copy(t.data[int(id)*vb:], raw)
	return nil
}

// SetVector encodes v (length Dim) as the value of vector id.
func (t *Table) SetVector(id ID, v []float32) error {
	if int(id) >= t.NumVectors() {
		return fmt.Errorf("%w: %d", ErrBadVector, id)
	}
	if len(v) != t.Dim {
		return fmt.Errorf("table: vector has %d elements, table dim is %d", len(v), t.Dim)
	}
	vb := t.VectorBytes()
	off := int(id) * vb
	fp16.EncodeSlice(t.data[off:off:off+vb], v)
	return nil
}

// GenerateOptions configures synthetic table generation.
type GenerateOptions struct {
	NumVectors int
	Dim        int
	// NumClusters is the number of Gaussian mixture components. Vectors in
	// the same component are close in Euclidean space. If zero, vectors are
	// drawn i.i.d. with no cluster structure.
	NumClusters int
	// ClusterSpread is the ratio of within-cluster standard deviation to the
	// distance between cluster centres; smaller values produce tighter,
	// easier-to-recover clusters. Default 0.25.
	ClusterSpread float64
	// Seed makes generation deterministic.
	Seed int64
	// Assignments, if non-nil, forces the cluster of each vector (length
	// NumVectors). Used to align table geometry with the trace generator's
	// co-access communities so that K-means partitioning carries signal.
	Assignments []int32
}

// Generated bundles a synthetic table with its ground-truth cluster
// assignment.
type Generated struct {
	Table       *Table
	Assignments []int32 // cluster index per vector, -1 if unclustered
}

// Generate creates a synthetic embedding table. Values are quantised through
// fp16 so the stored table round-trips exactly.
func Generate(name string, opts GenerateOptions) *Generated {
	if opts.Dim <= 0 {
		opts.Dim = 64
	}
	if opts.ClusterSpread <= 0 {
		opts.ClusterSpread = 0.25
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	t := New(name, opts.NumVectors, opts.Dim)

	assign := make([]int32, opts.NumVectors)
	if opts.NumClusters <= 0 {
		for i := range assign {
			assign[i] = -1
		}
	} else if opts.Assignments != nil {
		if len(opts.Assignments) != opts.NumVectors {
			panic("table: Assignments length mismatch")
		}
		copy(assign, opts.Assignments)
		// Forced assignments may reference more clusters than requested;
		// grow the mixture to cover them.
		for _, a := range assign {
			if int(a) >= opts.NumClusters {
				opts.NumClusters = int(a) + 1
			}
		}
	} else {
		for i := range assign {
			assign[i] = int32(rng.Intn(opts.NumClusters))
		}
	}

	// Cluster centres on a unit hypersphere scaled by 1; within-cluster
	// noise has stddev ClusterSpread (centre-to-centre distance is O(1)).
	var centres [][]float32
	if opts.NumClusters > 0 {
		centres = make([][]float32, opts.NumClusters)
		for c := range centres {
			v := make([]float32, opts.Dim)
			var norm float64
			for d := range v {
				x := rng.NormFloat64()
				v[d] = float32(x)
				norm += x * x
			}
			norm = math.Sqrt(norm)
			for d := range v {
				v[d] = float32(float64(v[d]) / norm)
			}
			centres[c] = v
		}
	}

	vec := make([]float32, opts.Dim)
	for i := 0; i < opts.NumVectors; i++ {
		c := assign[i]
		for d := 0; d < opts.Dim; d++ {
			noise := float32(rng.NormFloat64() * opts.ClusterSpread)
			if c >= 0 {
				vec[d] = centres[c][d] + noise
			} else {
				vec[d] = noise * 4
			}
		}
		// Encoding is the quantisation: the stored fp16 bits are what
		// fp16.Quantize would round vec to.
		if err := t.SetVector(ID(i), vec); err != nil {
			panic(err)
		}
	}
	return &Generated{Table: t, Assignments: assign}
}
