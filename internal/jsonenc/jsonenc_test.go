package jsonenc

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// checkFloat holds AppendFloat to json.Marshal on one finite float.
func checkFloat(t *testing.T, x float64) {
	t.Helper()
	want, err := json.Marshal(x)
	if err != nil {
		t.Fatalf("%v: encoding/json: %v", x, err)
	}
	if got := AppendFloat([]byte("["), x); string(got[1:]) != string(want) || got[0] != '[' {
		t.Fatalf("%v (%#x): got %s, encoding/json %s", x, math.Float64bits(x), got, want)
	}
}

// TestPow10Table recomputes every table entry exactly: g = ⌊β⌋ + 1
// where 10^−k = β·2^r, with r taken from flog2pow10 so the table and
// the exponent arithmetic AppendFloat pairs it with are checked
// together, and 2^125 ≤ β < 2^126.
func TestPow10Table(t *testing.T) {
	lo := new(big.Int).Lsh(big.NewInt(1), 125)
	hi := new(big.Int).Lsh(big.NewInt(1), 126)
	ten := big.NewInt(10)
	for i := range pow10 {
		k := kMin + i
		r := flog2pow10(-k) - 125
		// β = 10^−k · 2^−r as the fraction num/den.
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		if r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		floor := new(big.Int).Quo(num, den)
		if floor.Cmp(lo) < 0 || floor.Cmp(hi) >= 0 {
			t.Fatalf("k=%d: β out of [2^125, 2^126): r=%d wrong", k, r)
		}
		g := floor.Add(floor, big.NewInt(1))
		want := [2]uint64{new(big.Int).Rsh(g, 64).Uint64(), g.Uint64()}
		if pow10[i] != want {
			t.Fatalf("k=%d: table %#x, want %#x", k, pow10[i], want)
		}
	}
	if got := kMin + len(pow10) - 1; got != flog10pow2(2046-1075) {
		t.Fatalf("table ends at k=%d, the largest float64 needs %d", got, flog10pow2(2046-1075))
	}
	if kMin != flog10pow2(qMin) {
		t.Fatalf("kMin=%d, the smallest float64 needs %d", kMin, flog10pow2(qMin))
	}
}

// TestFloorLogs checks the fixed-point logarithms over every exponent
// a float64 can reach, against exact integer comparisons.
func TestFloorLogs(t *testing.T) {
	pow := func(b int64, e int) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floorLog reports whether ⌊log_b(x)⌋ = n: b^n ≤ x < b^(n+1).
	floorLog := func(x *big.Rat, b int64, n int) bool {
		return pow(b, n).Cmp(x) <= 0 && x.Cmp(pow(b, n+1)) < 0
	}
	for q := qMin; q <= 2046-1075; q++ {
		if !floorLog(pow(2, q), 10, flog10pow2(q)) {
			t.Fatalf("flog10pow2(%d) = %d", q, flog10pow2(q))
		}
		x := new(big.Rat).Mul(big.NewRat(3, 4), pow(2, q))
		if !floorLog(x, 10, flog10ThreeQuartersPow2(q)) {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d", q, flog10ThreeQuartersPow2(q))
		}
	}
	for e := -kMin + 1; e >= -(kMin + len(pow10)); e-- {
		if !floorLog(pow(10, e), 2, flog2pow10(e)) {
			t.Fatalf("flog2pow10(%d) = %d", e, flog2pow10(e))
		}
	}
}

// TestAppendFloatEdges covers the floats where a shortest-digit
// algorithm or the layout rule is most likely to slip: zeros, the
// subnormals, every power of two and of ten with its neighbours, both
// ends of the 'f' range, and the largest float.
func TestAppendFloatEdges(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	xs := []float64{
		0, math.Copysign(0, -1), 1, 0.1, 0.3, 2.5, 1.5e-7, 123456789, 1e23, 5e-324,
		tiny, 2 * tiny, 16 * tiny, 1e-323, 8e-323, 1e-322, 9.9e-324,
		math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x0010000000000000),
		math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
		1e-6, 1e21, 1e-7, 1e20, 9.999999999999999e-7, 999999999999999900000,
		float64(1<<53 - 1), 1 << 53, 1<<53 + 2, 1 << 62, 1e15, 1e16, 1e17,
	}
	for e := -1074; e <= 1023; e++ {
		xs = append(xs, math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	for _, x := range xs[:len(xs):len(xs)] {
		xs = append(xs, math.Nextafter(x, 0))
		if x < math.MaxFloat64 {
			xs = append(xs, math.Nextafter(x, math.Inf(1)))
		}
	}
	for _, x := range xs {
		checkFloat(t, x)
		checkFloat(t, -x)
	}
	for x, want := range map[float64]string{5e-324: "5e-324", 8e-323: "8e-323", 1e-7: "1e-7", 1e21: "1e+21", 1e20: "100000000000000000000", 1e-6: "0.000001", 0.3: "0.3"} {
		if got := AppendFloat(nil, x); string(got) != want {
			t.Fatalf("%v: got %s, want %s", x, got, want)
		}
	}
}

// TestAppendFloatRandomBits compares about a million uniformly random
// finite bit patterns — every binade equally likely — with
// encoding/json.
func TestAppendFloatRandomBits(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range n {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		checkFloat(t, x)
	}
}

// TestAppendFloatShortDecimals compares floats parsed from random
// decimals of 1 to 17 significant digits with encoding/json. Random
// bit patterns almost always need 16 or 17 digits; these reach the
// shorter-candidate branch and the round-trip of short inputs.
func TestAppendFloatShortDecimals(t *testing.T) {
	n := 1 << 18
	if testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewPCG(3, 4))
	var buf []byte
	for range n {
		digits := 1 + rng.IntN(17)
		buf = strconv.AppendUint(buf[:0], rng.Uint64N(uint64(math.Pow10(digits))), 10)
		buf = append(buf, 'e')
		buf = strconv.AppendInt(buf, int64(rng.IntN(650)-340), 10)
		x, err := strconv.ParseFloat(string(buf), 64)
		if err != nil || x == 0 || math.IsInf(x, 0) { //lint:allow floatcmp underflow to exactly zero is skipped
			continue
		}
		checkFloat(t, x)
	}
}

// TestAppendNoAllocs: with room in dst, neither appender allocates.
func TestAppendNoAllocs(t *testing.T) {
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendFloat(dst[:0], -1.2345678901234567e-300)
		dst = AppendFloat(dst[:0], 0.0123)
		dst = AppendFloat(dst[:0], 427)
		dst = AppendString(dst[:0], "a<b>\xff\u2028")
	})
	if allocs != 0 { //lint:allow floatcmp AllocsPerRun returns whole counts
		t.Fatalf("%v allocations per run, want 0", allocs)
	}
}

// FuzzAppendFloat holds the float spelling to json.Marshal over
// arbitrary finite bit patterns.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e-7, 1e-100, 1e300, 8e-323,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.MaxFloat64,
	} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		if x := math.Float64frombits(bits); !math.IsNaN(x) && !math.IsInf(x, 0) {
			checkFloat(t, x)
		}
	})
}

// FuzzAppendString holds string escaping to json.Marshal: HTML
// characters, control bytes, invalid UTF-8 and the JavaScript line
// separators.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "plain", `a<b>&"c"\`, "\x00\x1f\b\f\n\r\t\x7f", "\xff\xfe", "\u00e9\u2028\u2029", "\xe2\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Fatalf("%q: got %s, encoding/json %s", s, got, want)
		}
	})
}
