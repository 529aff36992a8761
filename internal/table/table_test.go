package table

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	tbl := New("t", 100, 64)
	if tbl.NumVectors() != 100 {
		t.Fatalf("NumVectors = %d", tbl.NumVectors())
	}
	if tbl.VectorBytes() != 128 {
		t.Fatalf("VectorBytes = %d, want 128", tbl.VectorBytes())
	}
	if tbl.SizeBytes() != 100*128 {
		t.Fatalf("SizeBytes = %d", tbl.SizeBytes())
	}
}

func TestNewPanicsOnInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New("bad", 10, 0)
}

func TestSetGetRoundTrip(t *testing.T) {
	tbl := New("t", 10, 8)
	v := []float32{0.5, -1, 2, 0.25, 3, -0.125, 7, 0}
	if err := tbl.SetVector(3, v); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Vector(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Errorf("element %d: got %g want %g", i, got[i], v[i])
		}
	}
	// Unset vectors decode to zeros.
	zero, _ := tbl.Vector(0)
	for i, x := range zero {
		if x != 0 {
			t.Errorf("unset vector element %d = %g", i, x)
		}
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	tbl := New("t", 4, 8)
	if _, err := tbl.Vector(4); !errors.Is(err, ErrBadVector) {
		t.Fatalf("expected ErrBadVector, got %v", err)
	}
	if _, err := tbl.Raw(100); !errors.Is(err, ErrBadVector) {
		t.Fatalf("expected ErrBadVector, got %v", err)
	}
	if err := tbl.SetVector(9, make([]float32, 8)); !errors.Is(err, ErrBadVector) {
		t.Fatalf("expected ErrBadVector, got %v", err)
	}
	if err := tbl.SetVector(1, make([]float32, 3)); err == nil {
		t.Fatalf("expected dimension mismatch error")
	}
}

func TestVectorInto(t *testing.T) {
	tbl := New("t", 2, 4)
	tbl.SetVector(1, []float32{1, 2, 3, 4})
	dst := make([]float32, 4)
	if err := tbl.VectorInto(dst, 1); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 || dst[3] != 4 {
		t.Fatalf("decoded %v", dst)
	}
	if err := tbl.VectorInto(make([]float32, 2), 1); err == nil {
		t.Fatalf("expected error on short destination")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := GenerateOptions{NumVectors: 200, Dim: 16, NumClusters: 8, Seed: 42}
	a := Generate("a", opts)
	b := Generate("b", opts)
	for i := 0; i < 200; i++ {
		va, _ := a.Table.Vector(ID(i))
		vb, _ := b.Table.Vector(ID(i))
		for d := range va {
			if va[d] != vb[d] {
				t.Fatalf("generation not deterministic at vector %d dim %d", i, d)
			}
		}
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignments differ at %d", i)
		}
	}
}

func TestGenerateClusterStructure(t *testing.T) {
	// Vectors in the same cluster must on average be much closer than
	// vectors in different clusters.
	g := Generate("t", GenerateOptions{NumVectors: 500, Dim: 32, NumClusters: 5, ClusterSpread: 0.1, Seed: 7})
	dist := func(a, b ID) float64 {
		va, _ := g.Table.Vector(a)
		vb, _ := g.Table.Vector(b)
		var s float64
		for i := range va {
			d := float64(va[i] - vb[i])
			s += d * d
		}
		return math.Sqrt(s)
	}
	var within, between float64
	var nw, nb int
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			d := dist(ID(i), ID(j))
			if g.Assignments[i] == g.Assignments[j] {
				within += d
				nw++
			} else {
				between += d
				nb++
			}
		}
	}
	if nw == 0 || nb == 0 {
		t.Fatalf("degenerate cluster assignment")
	}
	if within/float64(nw) >= 0.5*between/float64(nb) {
		t.Fatalf("within-cluster distance %.3f not much smaller than between %.3f",
			within/float64(nw), between/float64(nb))
	}
}

func TestGenerateWithForcedAssignments(t *testing.T) {
	assign := make([]int32, 100)
	for i := range assign {
		assign[i] = int32(i % 4)
	}
	g := Generate("t", GenerateOptions{NumVectors: 100, Dim: 8, NumClusters: 4, Seed: 1, Assignments: assign})
	for i := range assign {
		if g.Assignments[i] != assign[i] {
			t.Fatalf("assignment %d not honoured", i)
		}
	}
}

func TestGenerateUnclustered(t *testing.T) {
	g := Generate("t", GenerateOptions{NumVectors: 50, Dim: 8, NumClusters: 0, Seed: 1})
	for _, a := range g.Assignments {
		if a != -1 {
			t.Fatalf("unclustered generation should assign -1, got %d", a)
		}
	}
}

func TestPropertySetVectorRoundTripsThroughFp16(t *testing.T) {
	tbl := New("t", 4, 8)
	prop := func(raw [8]float32) bool {
		v := make([]float32, 8)
		for i, x := range raw {
			// Constrain to fp16 range to avoid infinities.
			v[i] = float32(math.Mod(float64(x), 1000))
			if math.IsNaN(float64(v[i])) {
				v[i] = 0
			}
		}
		if err := tbl.SetVector(2, v); err != nil {
			return false
		}
		got, err := tbl.Vector(2)
		if err != nil {
			return false
		}
		for i := range v {
			// Round trip must equal the fp16 quantisation of the input.
			want := quantizeOne(v[i])
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func quantizeOne(f float32) float32 {
	v := []float32{f}
	// Use the table code path: SetVector quantises through fp16.
	tbl := New("q", 1, 1)
	tbl.SetVector(0, v)
	out, _ := tbl.Vector(0)
	return out[0]
}

func BenchmarkVectorDecode(b *testing.B) {
	g := Generate("t", GenerateOptions{NumVectors: 1000, Dim: 64, NumClusters: 8, Seed: 1})
	dst := make([]float32, 64)
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Table.VectorInto(dst, ID(i%1000))
	}
}
