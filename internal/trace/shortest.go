package trace

// The line encoder's shortest-float kernel: Schubfach (R. Giulietti,
// "The Schubfach way to render doubles", 2020) for the doubles that
// encoding/json writes in 'f' form. It finds strconv's shortest digits
// with three 64×128-bit products instead of a division per digit, and
// lays them out without a digit buffer of its own.

import (
	"math"
	"math/bits"
)

// gMinK is the smallest decimal exponent k the kernel meets, that of
// the doubles just above 1e-6 (k is the exponent of the power of ten
// just below the width of a double's rounding interval). The largest,
// 5, is that of the doubles just below 1e21.
const gMinK = -22

// gTable[k-gMinK] is g = ⌊10^-k · 2^-r⌋ + 1 with r = ⌊-k·log2 10⌋ - 125
// (so 2^125 < g ≤ 2^126), split into its high and low 63-bit halves,
// for k in [-22, 5]. It is a literal so that no process pays to build
// it; TestShortestFloatTable recomputes every entry with math/big.
var gTable = [...][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // -22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // -21
	{0x56bc75e2d6310000, 0x0000000000000001}, // -20
	{0x4563918244f40000, 0x0000000000000001}, // -19
	{0x6f05b59d3b200000, 0x0000000000000001}, // -18
	{0x58d15e1762800000, 0x0000000000000001}, // -17
	{0x470de4df82000000, 0x0000000000000001}, // -16
	{0x71afd498d0000000, 0x0000000000000001}, // -15
	{0x5af3107a40000000, 0x0000000000000001}, // -14
	{0x48c2739500000000, 0x0000000000000001}, // -13
	{0x746a528800000000, 0x0000000000000001}, // -12
	{0x5d21dba000000000, 0x0000000000000001}, // -11
	{0x4a817c8000000000, 0x0000000000000001}, // -10
	{0x7735940000000000, 0x0000000000000001}, // -9
	{0x5f5e100000000000, 0x0000000000000001}, // -8
	{0x4c4b400000000000, 0x0000000000000001}, // -7
	{0x7a12000000000000, 0x0000000000000001}, // -6
	{0x61a8000000000000, 0x0000000000000001}, // -5
	{0x4e20000000000000, 0x0000000000000001}, // -4
	{0x7d00000000000000, 0x0000000000000001}, // -3
	{0x6400000000000000, 0x0000000000000001}, // -2
	{0x5000000000000000, 0x0000000000000001}, // -1
	{0x4000000000000000, 0x0000000000000001}, // 0
	{0x6666666666666666, 0x3333333333333334}, // 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 5
}

// appendShortest appends x, a double with 1e-6 ≤ |x| < 1e21, exactly as
// strconv.AppendFloat(buf, x, 'f', -1, 64) does: the shortest decimal
// that reads back as x, the nearest one if two are that short, the even
// one on a tie. TestShortestFloatMatchesStrconv and
// FuzzAppendJSONFloat pin the equivalence.
func appendShortest(buf []byte, x float64) []byte {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		buf = append(buf, '-')
	}
	c := b&(1<<52-1) | 1<<52
	q := int(b>>52&0x7ff) - 1075 // x = ±c·2^q
	if -53 < q && q < 0 && c&(1<<-q-1) == 0 {
		// An integer below 2^53 is its own shortest decimal.
		return appendDecimal(buf, c>>-q, 0)
	}
	f, k := schubfach(c, q)
	return appendDecimal(buf, f, k)
}

// schubfach returns the shortest f·10^k inside the rounding interval of
// c·2^q, for a significand c in [2^52, 2^53) and the q of the kernel's
// range. It works in quarter units of 10^k: vb, vbl and vbr are 4·v,
// 4·(v's lower bound) and 4·(its upper bound) over 10^k, rounded to odd.
func schubfach(c uint64, q int) (uint64, int) {
	out := c & 1 // an odd c's interval excludes its bounds
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := flog10pow2(q)
	if c == 1<<52 {
		// Below a power of two the doubles are twice as dense, so the
		// interval's lower half is half as wide.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2 // in [1, 4]
	g := &gTable[k-gMinK]
	vb, vbl, vbr := rop(g, cb<<h), rop(g, cbl<<h), rop(g, cbr<<h)

	s := vb >> 2
	if s >= 100 {
		// At most one multiple of 10^(k+1) fits in the interval; if one
		// does, it is the shortest.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both neighbours are in: the nearer one, the even one on a tie.
	if cmp := int64(vb) - int64((s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// flog10pow2 is ⌊log10 2^e⌋, flog10ThreeQuartersPow2 is ⌊log10 ¾·2^e⌋
// and flog2pow10 is ⌊log2 10^e⌋, in fixed point; exact for the
// exponents of the kernel's range (and far beyond).
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// rop returns ⌊g·cp / 2^127⌋ rounded to odd: its low bit is set when
// the quotient has a fraction. cp < 2^63.
func rop(g *[2]uint64, cp uint64) uint64 {
	const mask63 = 1<<63 - 1
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | (z&mask63+mask63)>>63
}

// digitPairs[2n:2n+2] is n in two decimal digits.
const digitPairs = "00010203040506070809" + "10111213141516171819" +
	"20212223242526272829" + "30313233343536373839" + "40414243444546474849" +
	"50515253545556575859" + "60616263646566676869" + "70717273747576777879" +
	"80818283848586878889" + "90919293949596979899"

// zeros pads the 'f' form: at most 20 zeros follow the digits of a
// value below 1e21, and at most 5 precede those of one at or above 1e-6.
const zeros = "00000000000000000000"

// appendDecimal appends f·10^k, f > 0, in 'f' form: integer digits,
// then a fraction without trailing zeros, if any. f is cut into 8-digit
// halves so that every digit pair comes from 32-bit arithmetic.
func appendDecimal(buf []byte, f uint64, k int) []byte {
	var d [20]byte
	i := len(d)
	for f >= 1e8 {
		q := f / 1e8
		i -= 8
		put8(d[i:i+8], uint32(f-q*1e8))
		f = q
	}
	i = putDigits(d[:i], uint32(f))
	j := len(d)
	for d[j-1] == '0' {
		j--
		k++
	}
	digits := d[i:j]
	switch dp := len(digits) + k; {
	case k >= 0:
		buf = append(buf, digits...)
		return append(buf, zeros[:k]...)
	case dp > 0:
		buf = append(buf, digits[:dp]...)
		buf = append(buf, '.')
		return append(buf, digits[dp:]...)
	default:
		buf = append(buf, '0', '.')
		buf = append(buf, zeros[:-dp]...)
		return append(buf, digits...)
	}
}

// putDigits writes v's decimal digits, two at a time, to the end of d
// and returns the index of the first.
func putDigits(d []byte, v uint32) int {
	i := len(d)
	for v >= 100 {
		q := v / 100
		r := v - q*100
		i -= 2
		d[i], d[i+1] = digitPairs[2*r], digitPairs[2*r+1]
		v = q
	}
	if v >= 10 {
		i -= 2
		d[i], d[i+1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		i--
		d[i] = byte('0' + v)
	}
	return i
}

// put8 writes v < 10^8 to d as exactly eight digits.
func put8(d []byte, v uint32) {
	_ = d[7]
	hi, lo := v/10000, v%10000
	a, b, c, e := hi/100, hi%100, lo/100, lo%100
	d[0], d[1] = digitPairs[2*a], digitPairs[2*a+1]
	d[2], d[3] = digitPairs[2*b], digitPairs[2*b+1]
	d[4], d[5] = digitPairs[2*c], digitPairs[2*c+1]
	d[6], d[7] = digitPairs[2*e], digitPairs[2*e+1]
}
