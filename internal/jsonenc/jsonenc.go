// Package jsonenc appends JSON scalars exactly as encoding/json spells
// them, without reflection and without allocating beyond dst: a finite
// float64 (AppendFloat) and a string (AppendString). The served answers
// are mostly floats — a Table-I sweep spells 427 currents — so the
// float path is the one that pays.
//
// AppendFloat finds the shortest decimal that parses back to the same
// float64 with Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020): one 126-bit power of ten from a precomputed table
// (pow10.go, written by gen_pow10.go), three round-to-odd 64×126-bit
// multiplies, and at most two candidate comparisons. Schubfach was
// written for Java's Double.toString, which wants at least two digits;
// encoding/json wants the shortest digits even when that is one, so
// the one-digit-shorter candidate is tried whenever the scaled value s
// has two or more digits (s ≥ 10, not Java's s ≥ 100) and subnormals
// are not pre-scaled by ten. The digits are then laid out the way
// strconv.AppendFloat(dst, f, 'f' or 'e', -1, 64) would and
// encoding/json trims them: 'f' for 1e-6 ≤ |f| < 1e21, otherwise 'e'
// with a single-digit negative exponent unpadded (e-7, not e-07).
package jsonenc

import (
	"math"
	"math/bits"
	"unicode/utf8"
)

//go:generate go run gen_pow10.go

const (
	// fracBits is the width of a float64's stored significand.
	fracBits = 52
	// cMin is the smallest significand of a normal float64, 2^52.
	cMin = 1 << fracBits
	// qMin is the binary exponent of every subnormal and of the
	// smallest normal binade: f = c·2^qMin.
	qMin = -1074
	// kMin is the smallest decimal exponent flog10pow2 yields on a
	// float64, the first row of pow10.
	kMin = -324
)

// AppendFloat appends f as encoding/json spells a float64. f must be
// finite: JSON has no spelling for NaN or ±Inf, and the caller decides
// what to do with them.
func AppendFloat(dst []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		dst = append(dst, '-')
	}
	t := u & (cMin - 1)
	be := int(u>>fracBits) & 0x7ff
	if be == 0 {
		if t == 0 {
			return append(dst, '0')
		}
		d, k := shortest(qMin, t)
		return appendDecimal(dst, d, k)
	}
	c, mq := cMin|t, 1075-be // f = c·2^−mq
	if 0 < mq && mq <= fracBits {
		// An integer below 2^53 is its own shortest decimal.
		if n := c >> uint(mq); n<<uint(mq) == c {
			return appendDecimal(dst, n, 0)
		}
	}
	d, k := shortest(-mq, c)
	return appendDecimal(dst, d, k)
}

// shortest returns the decimal d·10^k with the fewest digits in the
// rounding interval of c·2^q, the one nearest c·2^q among several, and
// the even one of a tie. d may carry trailing zeros.
func shortest(q int, c uint64) (d uint64, k int) {
	out := c & 1 // the interval excludes its ends when c is odd
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != cMin || q == qMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// The binade's lowest value: the gap below is half the gap above.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	g := &pow10[k-kMin]
	h := uint(q + flog2pow10(-k) + 3)
	// vb, vbl and vbr are 4·c·2^q·10^−k and the interval's ends on the
	// same scale, rounded to odd.
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h)
	vbr := rop(g, cbr<<h)

	s := vb >> 2
	if s >= 10 {
		// The interval is under ten units of 10^k wide, so at most one
		// multiple of ten lies in it; when it does, it is the answer.
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
	if mid := (s + t) << 1; vb < mid || vb == mid && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns g·cp / 2^128 rounded to odd: the integer part with its
// lowest bit forced on when the fraction's top 64 bits are not zero.
// The bits below are dropped on purpose: g exceeds the exact power of
// ten by under one unit, so a product that is exactly an integer
// carries an excess below 2^−64 that must not set the odd bit, while
// Giulietti bounds the fraction of a product that is not an integer
// well above that excess, so the top 64 bits always see it.
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	v := y1 + carry
	if z != 0 {
		v |= 1
	}
	return v
}

// flog10pow2 is ⌊q·log10(2)⌋ for |q| ≤ 5456721.
func flog10pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

// flog10ThreeQuartersPow2 is ⌊log10(¾·2^q)⌋ for |q| ≤ 5456721.
func flog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 is ⌊e·log2(10)⌋ for |e| ≤ 6432162.
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendDecimal appends d·10^k (d > 0, at most 17 digits) in
// encoding/json's layout.
func appendDecimal(dst []byte, d uint64, k int) []byte {
	for d%10 == 0 {
		d /= 10
		k++
	}
	var buf [20]byte
	i := len(buf)
	// Eight digits at a time in 32-bit arithmetic, then the rest.
	for d >= 1e8 {
		lo := uint32(d % 1e8)
		d /= 1e8
		for range 4 {
			p := lo % 100 * 2
			lo /= 100
			i -= 2
			buf[i], buf[i+1] = digitPairs[p], digitPairs[p+1]
		}
	}
	r := uint32(d)
	for r >= 100 {
		p := r % 100 * 2
		r /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[p], digitPairs[p+1]
	}
	if r >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	} else {
		i--
		buf[i] = byte('0' + r)
	}
	digits := buf[i:]
	n := len(digits)
	exp := k + n - 1 // the leading digit's power of ten

	switch {
	case exp < -6 || exp >= 21:
		dst = append(dst, digits[0])
		if n > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		dst = append(dst, 'e')
		if exp < 0 {
			dst = append(dst, '-')
			exp = -exp
		} else {
			dst = append(dst, '+')
		}
		if exp >= 100 {
			dst = append(dst, byte('0'+exp/100))
			exp %= 100
			return append(dst, digitPairs[2*exp], digitPairs[2*exp+1])
		}
		if exp >= 10 {
			return append(dst, digitPairs[2*exp], digitPairs[2*exp+1])
		}
		return append(dst, byte('0'+exp))
	case exp < 0:
		dst = append(dst, "0.00000"[:1-exp]...)
		return append(dst, digits...)
	case exp >= n-1:
		dst = append(dst, digits...)
		for ; exp >= n; exp-- {
			dst = append(dst, '0')
		}
		return dst
	default:
		dst = append(dst, digits[:exp+1]...)
		dst = append(dst, '.')
		return append(dst, digits[exp+1:]...)
	}
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string the way encoding/json
// does with HTML escaping on: <, > and & as \u003c-style escapes,
// control bytes escaped, invalid UTF-8 replaced by \ufffd, and U+2028
// and U+2029 escaped.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
