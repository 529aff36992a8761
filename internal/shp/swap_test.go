package shp

import (
	"math/rand"
	"slices"
	"testing"
)

// sortedPairing is the refinement's swap rule as a full sort: each side's
// vertices in ascending index order, slices.SortFunc'ed by descending gain
// through an index comparator, then paired greedily while a pair's gains sum
// above 1e-12, up to maxSwaps pairs. It flips the swapped vertices' sides and
// returns the number of pairs and the two sorted candidate lists.
func sortedPairing(gain []float64, side []uint8, maxSwaps int) (int, [2][]int32) {
	var cand [2][]int32
	for i, s := range side {
		cand[s] = append(cand[s], int32(i))
	}
	byGain := func(a, b int32) int {
		switch ga, gb := gain[a], gain[b]; {
		case ga > gb:
			return -1
		case ga < gb:
			return 1
		}
		return 0
	}
	slices.SortFunc(cand[0], byGain)
	slices.SortFunc(cand[1], byGain)
	swaps := 0
	for k := 0; k < len(cand[0]) && k < len(cand[1]) && swaps < maxSwaps; k++ {
		a, b := cand[0][k], cand[1][k]
		if gain[a]+gain[b] <= 1e-12 {
			break
		}
		side[a], side[b] = 1, 0
		swaps++
	}
	return swaps, cand
}

// TestSwapMatchesSortedPairing holds swapper.swap to sortedPairing over
// random iterations whose gains are small dyadic sums, so that ties are dense:
// at the maxSwaps cut, at the 1e-12 break and everywhere between. Sides are
// balanced or not, n runs from 33 to a few thousand, and some cases have no
// positive pair at all. Both of swap's paths must be exercised: a side whose
// cut falls between two different gains, and a side whose cut splits a tie.
func TestSwapMatchesSortedPairing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	steps := []float64{-1, -0.5, -0.25, -0.125, 0, 0, 0.125, 0.25, 0.5, 1}
	var tieFree, tiedAtMax, tiedAtBreak, none int
	for c := 0; c < 3000; c++ {
		n := 33 + rng.Intn(300)
		if c%2 == 1 {
			n = 33 + rng.Intn(3000)
		}
		share1 := 0.5 // side 1's share of the vertices
		if c%3 != 0 {
			share1 = 0.02 + 0.96*rng.Float64()
		}
		maxSwaps := 1 + rng.Intn(max(n/4, 1))
		if c%4 == 0 {
			maxSwaps = 1 + rng.Intn(4)
		}
		negative := c%10 == 0 // no positive gain: nothing swaps
		side := make([]uint8, n)
		for i := range side {
			if rng.Float64() < share1 {
				side[i] = 1
			}
		}
		gain := make([]float64, n)
		var w swapper
		for round := 0; round < 2; round++ { // the second reuses w's scratch
			for i := range gain {
				gain[i] = 0
				for terms := 1 + rng.Intn(3); terms > 0; terms-- {
					gain[i] += steps[rng.Intn(len(steps))]
				}
				if negative && gain[i] > 0 {
					gain[i] = -gain[i]
				}
			}
			want := slices.Clone(side)
			wantSwaps, cand := sortedPairing(gain, want, maxSwaps)
			got := slices.Clone(side)
			gotSwaps := w.swap(gain, got, maxSwaps)
			if gotSwaps != wantSwaps || !slices.Equal(got, want) {
				t.Fatalf("case %d round %d (n=%d, sides %d/%d, maxSwaps %d): %d swaps, the sorted pairing %d; sides equal: %v",
					c, round, n, len(cand[0]), len(cand[1]), maxSwaps, gotSwaps, wantSwaps, slices.Equal(got, want))
			}
			if wantSwaps == 0 {
				none++
			}
			for _, cs := range cand {
				switch {
				case wantSwaps == 0 || wantSwaps == len(cs):
				case gain[cs[wantSwaps-1]] != gain[cs[wantSwaps]]:
					tieFree++
				case wantSwaps == maxSwaps:
					tiedAtMax++
				default: // the 1e-12 break, or the other side running out
					tiedAtBreak++
				}
			}
			side = got
		}
	}
	t.Logf("sides cut between two gains: %d; inside a tie at maxSwaps: %d, at the 1e-12 break: %d; iterations with no swap: %d",
		tieFree, tiedAtMax, tiedAtBreak, none)
	if tieFree < 500 || tiedAtMax < 500 || tiedAtBreak < 500 || none < 300 {
		t.Fatalf("coverage too thin: %d tie-free cuts, %d tied at maxSwaps, %d tied at the break, %d iterations with no swap",
			tieFree, tiedAtMax, tiedAtBreak, none)
	}
}

// TestDescendingRanks checks the lazy sort alone against a full sort, rank by
// rank up to a random rank, on values with many repeats and on distinct ones.
func TestDescendingRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for c := 0; c < 2000; c++ {
		v := make([]float64, 1+rng.Intn(500))
		for i := range v {
			if c%2 == 0 {
				v[i] = float64(rng.Intn(8))
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		want := slices.Clone(v)
		slices.Sort(want)
		slices.Reverse(want)
		var d descending
		d.reset(v)
		for k := range 1 + rng.Intn(len(v)) {
			if got := d.at(k); got != want[k] {
				t.Fatalf("case %d: rank %d of %d values is %v, want %v", c, k, len(v), got, want[k])
			}
		}
	}
}
