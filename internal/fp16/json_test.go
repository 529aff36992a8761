package fp16

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendJSONMatchesEncodingJSON walks all 65,536 bit patterns: a finite
// one must render exactly as encoding/json renders the decoded float32 (the
// router's HTTP bodies are pinned to that text), alone and inside a longer
// vector; a NaN or infinity must be refused and leave dst as it was.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	prefix := []byte(`{"vector":`)
	for bits := 0; bits < 1<<16; bits++ {
		h := Float16(bits)
		raw := []byte{byte(bits), byte(bits >> 8)}
		got, ok := AppendJSON(prefix, raw)
		if h.IsNaN() || h.IsInf(0) {
			if ok || string(got) != string(prefix) {
				t.Fatalf("bits %#04x: non-finite value rendered as %q (ok=%v)", bits, got, ok)
			}
			if got, ok = AppendJSON(nil, []byte{0x00, 0x3C, raw[0], raw[1]}); ok || len(got) != 0 {
				t.Fatalf("bits %#04x: non-finite second element rendered as %q (ok=%v)", bits, got, ok)
			}
			continue
		}
		f := h.ToFloat32()
		want, err := json.Marshal([]float32{f})
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got) != string(prefix)+string(want) {
			t.Fatalf("bits %#04x (%g): got %q ok=%v, encoding/json writes %q", bits, f, got[len(prefix):], ok, want)
		}
		want, _ = json.Marshal([]float32{1, f, -2.5})
		if got, ok = AppendJSON(nil, []byte{0x00, 0x3C, raw[0], raw[1], 0x00, 0xC1}); !ok || string(got) != string(want) {
			t.Fatalf("bits %#04x in a vector: got %q ok=%v, want %q", bits, got, ok, want)
		}
	}
	if n := len(jsonTable.text); n != jsonTextLen {
		t.Fatalf("the table's text is %d bytes, jsonTextLen says %d", n, jsonTextLen)
	}
	if got, ok := AppendJSON(nil, nil); !ok || string(got) != "[]" {
		t.Fatalf("empty vector rendered as %q (ok=%v), want []", got, ok)
	}
}

// jsonBenchVector is a 64-element vector of embedding-like magnitudes with
// both signs.
func jsonBenchVector() ([]byte, []float32) {
	vec := make([]float32, 64)
	for i := range vec {
		vec[i] = float32(math.Sin(float64(i)*0.37)) * 0.8
	}
	Quantize(vec)
	return EncodeSlice(nil, vec), vec
}

// TestAppendJSONZeroAlloc pins the edge encoder's cost model: into a buffer
// with room, a vector is table reads and copies, nothing else.
func TestAppendJSONZeroAlloc(t *testing.T) {
	raw, _ := jsonBenchVector()
	buf := make([]byte, 0, 4096)
	AppendJSON(buf, raw) // builds the table
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := AppendJSON(buf, raw); !ok {
			t.Fatal("finite vector refused")
		}
	}); n != 0 {
		t.Fatalf("AppendJSON allocated %v times per vector, want 0", n)
	}
}

func BenchmarkAppendJSON64(b *testing.B) {
	raw, _ := jsonBenchVector()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendJSON(buf[:0], raw)
	}
}

// BenchmarkMarshalJSON64 is what AppendJSON replaces on the router: decode,
// then encoding/json over the floats.
func BenchmarkMarshalJSON64(b *testing.B) {
	raw, vec := jsonBenchVector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeSlice(vec, raw)
		if _, err := json.Marshal(vec); err != nil {
			b.Fatal(err)
		}
	}
}
