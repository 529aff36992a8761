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

// orderWithTail returns a permutation of n ids whose trailing ascending run
// is exactly t long for 1 ≤ t ≤ n: the tail is id 0 and t−1 other ids in
// ascending order, after the other ids shuffled (each above the tail's
// first). t = 0 is a plain shuffle.
func orderWithTail(rng *rand.Rand, n, t int) []uint32 {
	order := make([]uint32, n)
	for i, p := range rng.Perm(n) {
		order[i] = uint32(p)
	}
	if t == 0 {
		return order
	}
	// Put id 0 among the last t, then sort them.
	i := slices.Index(order, 0)
	j := n - t + rng.Intn(t)
	order[i], order[j] = order[j], order[i]
	slices.Sort(order[n-t:])
	return order
}

// headOf is the number of positions before order's trailing ascending run.
func headOf(order []uint32) int {
	h := len(order)
	for h > 0 && (h == len(order) || order[h-1] < order[h]) {
		h--
	}
	return h
}

// breakEven is the shortest tail an n-vector layout implies.
func breakEven(n int) int {
	for t := 1; t <= n; t++ {
		if impliedBytes(n, n-t) < plainBytes(n) {
			return t
		}
	}
	return n + 1
}

// checkMatchesPlain fails t unless every accessor of l answers as the plain
// permutation order does, and l holds the bytes of the smaller of its two
// forms.
func checkMatchesPlain(t testing.TB, l *Layout, order []uint32, bv int) {
	t.Helper()
	n := len(order)
	head := headOf(order)
	if want := min(plainBytes(n), impliedBytes(n, head)); l.SizeBytes() != want {
		t.Fatalf("n=%d head=%d: SizeBytes %d, want %d (plain %d, implied %d)",
			n, head, l.SizeBytes(), want, plainBytes(n), impliedBytes(n, head))
	}
	if l.NumVectors() != n || l.NumBlocks() != (n+bv-1)/bv {
		t.Fatalf("n=%d: %d vectors in %d blocks", n, l.NumVectors(), l.NumBlocks())
	}
	for p, id := range order {
		if got := l.VectorAt(p); got != id {
			t.Fatalf("n=%d head=%d: VectorAt(%d) = %d, want %d", n, head, p, got, id)
		}
		if l.PositionOf(id) != p || l.BlockOf(id) != p/bv || l.SlotOf(id) != p%bv {
			t.Fatalf("n=%d head=%d id %d: position %d block %d slot %d, want %d %d %d",
				n, head, id, l.PositionOf(id), l.BlockOf(id), l.SlotOf(id), p, p/bv, p%bv)
		}
	}
	var members []uint32
	for b := range l.NumBlocks() {
		members = l.BlockMembers(b, members[:0])
		if want := order[b*bv : min((b+1)*bv, n)]; !slices.Equal(members, want) {
			t.Fatalf("n=%d head=%d: BlockMembers(%d) = %v, want %v", n, head, b, members, want)
		}
	}
	if !slices.Equal(l.Order(), order) {
		t.Fatalf("n=%d head=%d: Order differs from the permutation it was built from", n, head)
	}
	// A cursor read backwards selects again at every position.
	c := l.Cursor()
	for p := n - 1; p >= 0; p-- {
		if got := c.At(p); got != order[p] {
			t.Fatalf("n=%d head=%d: At(%d) read backwards = %d, want %d", n, head, p, got, order[p])
		}
	}
}

// TestPackedLayoutMatchesPlainPermutation checks the layout against a plain
// []uint32 permutation at every table size where the entry width changes
// (n = 2^k−1, 2^k, 2^k+1 for k = 2…17, plus 1, 2 and 3): every width from 1
// to 17 bits, with entries that straddle a word boundary. At each size the
// order ends in an ascending run of 0 (a plain shuffle), 1, the break-even
// length ±1, n−1 and n (the identity) ids. Every accessor must answer as the
// plain slices do, the layout must imply its tail exactly from the
// break-even length on, and SizeBytes must be the smaller form's bytes.
func TestPackedLayoutMatchesPlainPermutation(t *testing.T) {
	sizes := []int{1, 2, 3}
	for k := 2; k <= 17; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	rng := rand.New(rand.NewSource(1))
	widths := map[uint]bool{}
	implied := 0
	for _, n := range sizes {
		bv := []int{1, 3, 32}[n%3]
		even := breakEven(n)
		for _, tail := range []int{0, 1, even - 1, even, even + 1, n - 1, n} {
			if tail < 0 || tail > n {
				continue
			}
			order := orderWithTail(rng, n, tail)
			if tail > 0 && headOf(order) != n-tail {
				t.Fatalf("n=%d: built a tail of %d, want %d", n, n-headOf(order), tail)
			}
			l, err := FromOrder(order, bv)
			if err != nil {
				t.Fatalf("n=%d tail=%d: %v", n, tail, err)
			}
			if tail > 0 && (l.tail != nil) != (tail >= even) {
				t.Fatalf("n=%d: a tail of %d implied = %v, break-even %d", n, tail, l.tail != nil, even)
			}
			if l.tail != nil {
				implied++
			}
			widths[l.orderWidth] = true
			checkMatchesPlain(t, l, order, bv)
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
	}
	for w := uint(1); w <= 17; w++ {
		if !widths[w] {
			t.Fatalf("no size exercised a %d-bit width", w)
		}
	}
	if implied == 0 {
		t.Fatal("no layout implied its tail")
	}
}

// FuzzLayoutFromOrder maps bytes to an order and checks the layout built
// from it against the plain permutation. The bytes give n (12 bits of two),
// the block size (one), the tail length (two), a mode (one) and the choices
// of a shuffle of the head (the rest, cycled): a mode of 1 mod 4 puts an id
// outside the table into the order and 2 mod 4 repeats one, and FromOrder
// must reject either.
func FuzzLayoutFromOrder(f *testing.F) {
	// A one-id head above the tail's first id: n = 5, tail 4, the shuffle
	// puts id 3 first.
	f.Add([]byte{5, 0, 2, 4, 0, 0, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{65, 0, 32, 30, 0, 0, 7, 1, 9})
	f.Add([]byte{0, 4, 3, 0, 2, 0, 200, 17})
	f.Add([]byte{0, 4, 3, 0, 2, 1, 200, 17})
	f.Add([]byte{0, 4, 3, 0, 2, 2, 200, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := int(data[0]) | int(data[1]&0x0f)<<8
		bv := int(data[2]) % 41 // 0 asks for DefaultBlockVectors
		tail := (int(data[3]) | int(data[4])<<8) % (n + 1)
		mode, rest := data[5], data[6:]
		choice := func(i int) int {
			c := uint32(i) * 2654435761
			if len(rest) > 0 {
				c ^= uint32(rest[i%len(rest)])<<8 | uint32(rest[(i+1)%len(rest)])
			}
			return int(c)
		}
		order := make([]uint32, n)
		for i := range order {
			order[i] = uint32(i)
		}
		for i := range n - tail {
			j := i + choice(i)%(n-i)
			order[i], order[j] = order[j], order[i]
		}
		slices.Sort(order[n-tail:])
		outside, repeat := n > 0 && mode%4 == 1, n > 1 && mode%4 == 2
		if outside {
			order[choice(n)%n] = uint32(n + choice(n+1)%3)
		}
		if repeat {
			i, j := choice(n)%n, choice(n+1)%(n-1)
			if j >= i {
				j++
			}
			order[i] = order[j]
		}
		l, err := FromOrder(order, bv)
		if outside || repeat {
			if err == nil {
				t.Fatalf("invalid order %v accepted", order)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if bv == 0 {
			bv = DefaultBlockVectors
		}
		checkMatchesPlain(t, l, order, bv)
	})
}
