package sim

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
)

// log2CeilOracle is ceil(log2 n), at least 1, from the bit length alone.
func log2CeilOracle(n int) int {
	if n <= 2 {
		return 1
	}
	l := bits.Len64(uint64(n))
	if bits.OnesCount64(uint64(n)) == 1 {
		l--
	}
	return l
}

// sqrtCeilOracle is ceil(sqrt(n)) in exact big-integer arithmetic.
func sqrtCeilOracle(n int) int {
	if n <= 0 {
		return 0
	}
	x := big.NewInt(int64(n))
	s := new(big.Int).Sqrt(x) // floor
	if new(big.Int).Mul(s, s).Cmp(x) < 0 {
		s.Add(s, big.NewInt(1))
	}
	return int(s.Int64())
}

func TestLog2Ceil(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{-5, 1}, {0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{7, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
		{1 << 32, 32}, {1<<32 + 1, 33},
		{1<<62 - 1, 62}, {1 << 62, 62}, {1<<62 + 1, 63},
		{math.MaxInt, 63},
	} {
		if got := Log2Ceil(tc.n); got != tc.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for l := 1; l < 63; l++ {
		if got := Log2Ceil(1 << l); got != l {
			t.Errorf("Log2Ceil(1<<%d) = %d", l, got)
		}
	}
}

func TestSqrtCeil(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 3},
		{1023, 32}, {1024, 32}, {1025, 33},
		{1 << 62, 1 << 31}, {1<<62 + 1, 1<<31 + 1},
		{3037000499 * 3037000499, 3037000499},
		{3037000499*3037000499 + 1, 3037000500},
		{math.MaxInt, 3037000500},
	} {
		if got := SqrtCeil(tc.n); got != tc.want {
			t.Errorf("SqrtCeil(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for n := 0; n <= 1<<12; n++ {
		if got, want := SqrtCeil(n), sqrtCeilOracle(n); got != want {
			t.Fatalf("SqrtCeil(%d) = %d, want %d", n, got, want)
		}
	}
	for l := 0; l < 63; l++ {
		for _, n := range []int{1<<l - 1, 1 << l, 1<<l + 1} {
			if got, want := SqrtCeil(n), sqrtCeilOracle(n); got != want {
				t.Errorf("SqrtCeil(%d) = %d, want %d", n, got, want)
			}
		}
	}
}

func FuzzIntMath(f *testing.F) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 1 << 31, 1<<62 - 1, 1 << 62, 1<<62 + 1, math.MaxInt - 1, math.MaxInt, -1, math.MinInt} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n int) {
		if got, want := Log2Ceil(n), log2CeilOracle(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
		if got, want := SqrtCeil(n), sqrtCeilOracle(n); got != want {
			t.Errorf("SqrtCeil(%d) = %d, want %d", n, got, want)
		}
	})
}
