package trace

import (
	"bytes"
	"math"
	"math/big"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// strconvJSONFloat is appendJSONFloat as it was before the kernel:
// encoding/json's float64 encoder on strconv alone. The kernel must be
// indistinguishable from it.
func strconvJSONFloat(buf []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// floatChecker compares appendJSONFloat with strconvJSONFloat, reusing
// its buffers, and stops the test at the first difference.
type floatChecker struct {
	t         *testing.T
	got, want []byte
	n         int
}

func (c *floatChecker) check(x float64) {
	c.got = appendJSONFloat(c.got[:0], x)
	c.want = strconvJSONFloat(c.want[:0], x)
	c.n++
	if !bytes.Equal(c.got, c.want) {
		c.t.Fatalf("appendJSONFloat(%v, bits %#016x) = %q, want %q", x, math.Float64bits(x), c.got, c.want)
	}
}

// checkWithNeighbours checks x and the doubles on either side of it.
func (c *floatChecker) checkWithNeighbours(x float64) {
	c.check(math.Nextafter(x, 0))
	c.check(x)
	c.check(math.Nextafter(x, math.Inf(1)))
}

// TestShortestFloatMatchesStrconv pins the kernel byte-equal to
// strconv.AppendFloat(x, 'f', -1, 64) over its range: seeded sweeps of
// the values a trace carries (uniform clock times up to a 28,800 s day,
// millisecond-quantised times, log-uniform magnitudes across the whole
// 'f' range) and of significands ending in runs of zero bits (whose
// decimal expansions end exactly halfway between two shortest
// candidates, exercising the tie-break), every in-range 2^e and 10^p
// with both neighbours, and the 'f'/'e' edges at 1e-6 and 1e21.
func TestShortestFloatMatchesStrconv(t *testing.T) {
	perSweep := 2_500_000 // four sweeps: 10 M values
	if testing.Short() {
		perSweep = 250_000
	}
	sweeps := []struct {
		name string
		gen  func(src *rng.Source) float64
	}{
		{"uniform-day", func(src *rng.Source) float64 { return src.Range(0, 28800) }},
		{"millisecond", func(src *rng.Source) float64 { return float64(src.Intn(28_800_000)) / 1000 }},
		{"log-uniform", func(src *rng.Source) float64 { return math.Pow(10, src.Range(-6, 21)) }},
		{"zero-tailed", func(src *rng.Source) float64 {
			c := (src.Uint64()>>12 | 1<<52) &^ (1<<src.Intn(53) - 1)
			return math.Ldexp(float64(c), src.Intn(90)-72)
		}},
	}
	for i, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			t.Parallel()
			c := &floatChecker{t: t}
			src := rng.New(uint64(1000 + i))
			for n := 0; n < perSweep; n++ {
				x := sw.gen(src)
				if n%2 == 1 {
					x = -x
				}
				c.check(x)
			}
		})
	}
	t.Run("powers", func(t *testing.T) {
		c := &floatChecker{t: t}
		for e := -20; e <= 70; e++ {
			c.checkWithNeighbours(math.Ldexp(1, e))
		}
		for p := -6; p <= 21; p++ {
			x, err := strconv.ParseFloat("1e"+strconv.Itoa(p), 64)
			if err != nil {
				t.Fatal(err)
			}
			c.checkWithNeighbours(x)
			c.checkWithNeighbours(-x)
		}
		for _, x := range []float64{0, math.Copysign(0, -1), 1, 0.1, 0.3, 28800, 1 << 53, 1<<53 - 1, math.Nextafter(math.MaxFloat64, 0)} {
			c.checkWithNeighbours(x)
		}
	})
}

// TestShortestFloatTable recomputes every entry of gTable with math/big
// from its definition, g = ⌊10^-k · 2^-r⌋ + 1 with r = ⌊log2 10^-k⌋ - 125,
// checks the kernel's fixed-point ⌊log2 10^-k⌋ against the exact one, and
// checks that the table spans exactly the exponents the kernel's range
// needs.
func TestShortestFloatTable(t *testing.T) {
	one := big.NewInt(1)
	for i, got := range gTable {
		k := gMinK + i
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		var log2 int // ⌊log2 10^-k⌋
		num, den := new(big.Int).Set(one), new(big.Int).Set(one)
		if k <= 0 {
			num.Set(p)
			log2 = p.BitLen() - 1
		} else {
			den.Set(p)
			log2 = -p.BitLen() // 10^k is no power of two
		}
		if f := flog2pow10(-k); f != log2 {
			t.Errorf("k=%d: flog2pow10(%d) = %d, want %d", k, -k, f, log2)
		}
		if r := log2 - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		g := new(big.Int).Add(new(big.Int).Quo(num, den), one)
		mask := new(big.Int).Sub(new(big.Int).Lsh(one, 63), one)
		want := [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), new(big.Int).And(g, mask).Uint64()}
		if got != want {
			t.Errorf("gTable[%d] (k=%d) = {%#x, %#x}, want {%#x, %#x}", i, k, got[0], got[1], want[0], want[1])
		}
	}

	// The doubles in [1e-6, 1e21) have binary exponents q from that of
	// 1e-6 to that of the largest double below 1e21; a binade's power of
	// two, when in range, takes the irregular exponent.
	lo, hi := math.Float64bits(1e-6), math.Float64bits(math.Nextafter(1e21, 0))
	kmin, kmax := math.MaxInt, math.MinInt
	for q := int(lo>>52) - 1075; q <= int(hi>>52)-1075; q++ {
		ks := []int{flog10pow2(q)}
		if p := math.Ldexp(1, q+52); p >= 1e-6 {
			ks = append(ks, flog10ThreeQuartersPow2(q))
		}
		for _, k := range ks {
			kmin, kmax = min(kmin, k), max(kmax, k)
		}
	}
	if kmin != gMinK || kmax != gMinK+len(gTable)-1 {
		t.Errorf("range needs k in [%d, %d], table covers [%d, %d]", kmin, kmax, gMinK, gMinK+len(gTable)-1)
	}
}

// FuzzAppendJSONFloat checks appendJSONFloat against the strconv-based
// reference on arbitrary bit patterns: subnormals, zeros, the 'e' range
// and every double in the kernel's range. Non-finite values, which the
// encoder refuses, are skipped.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, x := range []float64{0, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		0.1, 28799.999, 1 << 52, 5e-324, -123.456} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return
		}
		got, want := appendJSONFloat(nil, x), strconvJSONFloat(nil, x)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%#016x) = %q, want %q", b, got, want)
		}
	})
}

// BenchmarkAppendJSONFloat formats trace-like values — clock times over
// a day, query costs — through the kernel and through the strconv
// reference, one format per op, with no memo in front.
func BenchmarkAppendJSONFloat(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 1024)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = src.Range(0, 28800)
		} else {
			xs[i] = src.LogNormalMedian(2000, 1.5)
		}
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{{"kernel", appendJSONFloat}, {"strconv", strconvJSONFloat}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], xs[i&(len(xs)-1)])
			}
		})
	}
}
