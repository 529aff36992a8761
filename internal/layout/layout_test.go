package layout

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIdentityLayout(t *testing.T) {
	l := Identity(100, 32)
	if l.NumVectors() != 100 {
		t.Fatalf("NumVectors = %d", l.NumVectors())
	}
	if l.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", l.NumBlocks())
	}
	if l.BlockOf(0) != 0 || l.BlockOf(31) != 0 || l.BlockOf(32) != 1 || l.BlockOf(99) != 3 {
		t.Fatalf("block mapping wrong")
	}
	if l.SlotOf(33) != 1 {
		t.Fatalf("slot mapping wrong: %d", l.SlotOf(33))
	}
	if l.PositionOf(42) != 42 || l.VectorAt(42) != 42 {
		t.Fatalf("identity position mapping wrong")
	}
	if l.BlockVectors() != 32 {
		t.Fatalf("block vectors = %d", l.BlockVectors())
	}
}

func TestFromOrderValidation(t *testing.T) {
	if _, err := FromOrder([]uint32{0, 1, 5}, 2); err == nil {
		t.Fatal("out-of-range ID should be rejected")
	}
	if _, err := FromOrder([]uint32{0, 1, 1}, 2); err == nil {
		t.Fatal("duplicate ID should be rejected")
	}
	l, err := FromOrder([]uint32{2, 0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.BlockVectors() != DefaultBlockVectors {
		t.Fatalf("zero blockVectors should default to %d", DefaultBlockVectors)
	}
}

func TestFromOrderMapping(t *testing.T) {
	// Physical order: positions 0..3 hold vectors 3,1,0,2 with 2 per block.
	l, err := FromOrder([]uint32{3, 1, 0, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.BlockOf(3) != 0 || l.BlockOf(1) != 0 {
		t.Fatalf("block 0 should hold vectors 3 and 1")
	}
	if l.BlockOf(0) != 1 || l.BlockOf(2) != 1 {
		t.Fatalf("block 1 should hold vectors 0 and 2")
	}
	if l.SlotOf(1) != 1 || l.SlotOf(0) != 0 {
		t.Fatalf("slots wrong")
	}
	members := l.BlockMembers(0, nil)
	if len(members) != 2 || members[0] != 3 || members[1] != 1 {
		t.Fatalf("members = %v", members)
	}
}

func TestBlockMembersLastPartialBlock(t *testing.T) {
	l := Identity(5, 4)
	if got := l.BlockMembers(1, nil); len(got) != 1 || got[0] != 4 {
		t.Fatalf("partial block members = %v", got)
	}
	if got := l.BlockMembers(5, nil); len(got) != 0 {
		t.Fatalf("out of range block should be empty, got %v", got)
	}
	// Appends to dst.
	dst := []uint32{9}
	if got := l.BlockMembers(0, dst); len(got) != 5 || got[0] != 9 {
		t.Fatalf("append semantics broken: %v", got)
	}
}

func TestRandomLayoutIsValidPermutation(t *testing.T) {
	l := Random(1000, 32, 7)
	seen := make([]bool, 1000)
	for pos := 0; pos < 1000; pos++ {
		id := l.VectorAt(pos)
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		if l.PositionOf(id) != pos {
			t.Fatalf("posOf inconsistent for %d", id)
		}
	}
	// Determinism.
	l2 := Random(1000, 32, 7)
	for pos := 0; pos < 1000; pos++ {
		if l.VectorAt(pos) != l2.VectorAt(pos) {
			t.Fatalf("random layout not deterministic in seed")
		}
	}
}

func TestFanout(t *testing.T) {
	l := Identity(100, 10)
	if f := l.Fanout([]uint32{1, 2, 3}); f != 1 {
		t.Fatalf("fanout = %d, want 1", f)
	}
	if f := l.Fanout([]uint32{1, 11, 21}); f != 3 {
		t.Fatalf("fanout = %d, want 3", f)
	}
	if f := l.Fanout(nil); f != 0 {
		t.Fatalf("empty query fanout = %d", f)
	}
	avg := l.AverageFanout([][]uint32{{1, 2}, {1, 11}})
	if avg != 1.5 {
		t.Fatalf("average fanout = %g, want 1.5", avg)
	}
	if l.AverageFanout(nil) != 0 {
		t.Fatalf("empty query set should have 0 fanout")
	}
}

func TestOrderReturnsCopy(t *testing.T) {
	l := Identity(10, 4)
	o := l.Order()
	o[0] = 9
	if l.VectorAt(0) != 0 {
		t.Fatalf("Order() must return a copy")
	}
}

func TestPropertyFromOrderRoundTrips(t *testing.T) {
	prop := func(seed int64, nRaw uint8, bvRaw uint8) bool {
		n := int(nRaw)%200 + 1
		bv := int(bvRaw)%16 + 1
		l := Random(n, bv, seed)
		// Every vector maps to a block within range and back.
		for id := uint32(0); id < uint32(n); id++ {
			b := l.BlockOf(id)
			if b < 0 || b >= l.NumBlocks() {
				return false
			}
			if l.VectorAt(l.PositionOf(id)) != id {
				return false
			}
		}
		// Block members cover all vectors exactly once.
		count := 0
		for b := 0; b < l.NumBlocks(); b++ {
			count += len(l.BlockMembers(b, nil))
		}
		return count == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPackedLayoutMatchesPlainPermutation checks the packed representation
// against a plain []uint32 permutation at every table size where the entry
// width changes (n = 2^k−1, 2^k, 2^k+1 for k = 2…17, plus 1, 2 and 3): every
// width from 1 to 17 bits, with entries that straddle a word boundary. Every
// accessor must answer as the plain slices do, and SizeBytes must be the two
// packed arrays.
func TestPackedLayoutMatchesPlainPermutation(t *testing.T) {
	sizes := []int{1, 2, 3}
	for k := 2; k <= 17; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	rng := rand.New(rand.NewSource(1))
	widths := map[uint]bool{}
	for _, n := range sizes {
		bv := []int{1, 3, 32}[n%3]
		order := make([]uint32, n)
		for i, p := range rng.Perm(n) {
			order[i] = uint32(p)
		}
		posOf := make([]uint32, n)
		for p, id := range order {
			posOf[id] = uint32(p)
		}
		l, err := FromOrder(order, bv)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		w := uint(1)
		for 1<<w < n {
			w++
		}
		widths[w] = true
		if want := 2 * 8 * int64((n*int(w)+63)/64); l.SizeBytes() != want {
			t.Fatalf("n=%d: SizeBytes %d, want %d (two arrays at %d bits)", n, l.SizeBytes(), want, w)
		}
		if l.NumVectors() != n || l.NumBlocks() != (n+bv-1)/bv {
			t.Fatalf("n=%d: %d vectors in %d blocks", n, l.NumVectors(), l.NumBlocks())
		}
		for p := range n {
			if got := l.VectorAt(p); got != order[p] {
				t.Fatalf("n=%d: VectorAt(%d) = %d, want %d", n, p, got, order[p])
			}
		}
		for id := range uint32(n) {
			pos := int(posOf[id])
			if l.PositionOf(id) != pos || l.BlockOf(id) != pos/bv || l.SlotOf(id) != pos%bv {
				t.Fatalf("n=%d id %d: position %d block %d slot %d, want %d %d %d",
					n, id, l.PositionOf(id), l.BlockOf(id), l.SlotOf(id), pos, pos/bv, pos%bv)
			}
		}
		var members []uint32
		for b := range l.NumBlocks() {
			members = l.BlockMembers(b, members[:0])
			if !slices.Equal(members, order[b*bv:min((b+1)*bv, n)]) {
				t.Fatalf("n=%d: BlockMembers(%d) = %v, want %v", n, b, members, order[b*bv:min((b+1)*bv, n)])
			}
		}
		if !slices.Equal(l.Order(), order) {
			t.Fatalf("n=%d: Order differs from the permutation it was built from", n)
		}
		// The validation still sees through the packing.
		if n > 1 {
			bad := slices.Clone(order)
			bad[n-1] = uint32(n)
			if _, err := FromOrder(bad, bv); err == nil {
				t.Fatalf("n=%d: out-of-range id accepted", n)
			}
			bad[n-1] = order[0]
			if _, err := FromOrder(bad, bv); err == nil {
				t.Fatalf("n=%d: duplicate id accepted", n)
			}
		}
	}
	for w := uint(1); w <= 17; w++ {
		if !widths[w] {
			t.Fatalf("no size exercised a %d-bit width", w)
		}
	}
}
