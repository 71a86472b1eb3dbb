package balance

import (
	"math"
	"math/rand"
	"testing"
)

// TestApportionRowSumInvariant is the property test for the
// largest-remainder apportionment: for any nonnegative weight vector
// (zeros included, all-zero included) and any target, the output sums
// exactly to max(target, 0), every entry is nonnegative, and zero-weight
// entries receive nothing unless the whole row is zero. Zero weights
// are exactly where the old code silently dropped units.
func TestApportionRowSumInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 5000; iter++ {
		n := 1 + rng.Intn(12)
		weights := make([]float64, n)
		allZero := rng.Intn(4) == 0
		for j := range weights {
			switch {
			case allZero || rng.Intn(3) == 0:
				weights[j] = 0
			case rng.Intn(5) == 0:
				// Wildly mixed magnitudes provoke float rounding in
				// target*w/total.
				weights[j] = math.Ldexp(rng.Float64(), rng.Intn(60)-30)
			default:
				weights[j] = float64(rng.Intn(1000))
			}
		}
		target := rng.Intn(2000) - 10 // occasionally negative
		out := apportionRow(weights, target)

		if len(out) != n {
			t.Fatalf("iter %d: len(out) = %d, want %d", iter, len(out), n)
		}
		want := target
		if want < 0 {
			want = 0
		}
		sum := 0
		for j, v := range out {
			if v < 0 {
				t.Fatalf("iter %d: negative allocation out[%d] = %d (weights %v, target %d)",
					iter, j, v, weights, target)
			}
			sum += v
		}
		if sum != want {
			t.Fatalf("iter %d: sum(out) = %d, want %d (weights %v, target %d, out %v)",
				iter, sum, want, weights, target, out)
		}
		total := 0.0
		for _, w := range weights {
			total += w
		}
		if total > 0 {
			for j, v := range out {
				if weights[j] == 0 && v != 0 {
					t.Fatalf("iter %d: zero-weight entry %d got %d units (weights %v, target %d)",
						iter, j, v, weights, target)
				}
			}
		}
	}
}

// TestApportionAllZeroWeights pins the all-zero convention: units spread
// uniformly, first entries taking the remainder.
func TestApportionAllZeroWeights(t *testing.T) {
	got := apportionRow([]float64{0, 0, 0}, 8)
	want := []int{3, 3, 2}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("apportionRow(zeros, 8) = %v, want %v", got, want)
		}
	}
	if out := apportionRow(nil, 5); len(out) != 0 {
		t.Fatalf("apportionRow(nil, 5) = %v, want empty", out)
	}
}

// TestRoundToIntegerRowSums checks the exported matrix wrapper keeps
// every row's sum at round(rowSums[i]), including rows containing zeros.
func TestRoundToIntegerRowSums(t *testing.T) {
	m := [][]float64{
		{2.5, 0, 2.5},
		{0, 0, 0},
		{1e-9, 3, 7},
	}
	rowSums := []float64{5, 4, 10.2}
	out := RoundToInteger(m, rowSums)
	for i, row := range out {
		want := int(math.Round(rowSums[i]))
		sum := 0
		for _, v := range row {
			sum += v
		}
		if sum != want {
			t.Fatalf("row %d sums to %d, want %d (row %v)", i, sum, want, row)
		}
	}
	if out[0][1] != 0 {
		t.Fatalf("zero-weight cell received %d units", out[0][1])
	}
}
