// Package rat provides exact rational arithmetic with value semantics.
//
// The ABC model's synchrony parameter Ξ is a rational number (Definition 4 of
// the paper), and the normalized delay assignment of Theorem 7 must satisfy
// strict rational inequalities 1 < τ(e) < Ξ. Floating point cannot represent
// these constraints exactly, so all model-level arithmetic in this repository
// goes through this package.
//
// Rat is a two-representation value type. The fast path stores the value
// inline as a reduced int64 numerator/denominator pair and performs
// arithmetic with math/bits overflow detection, allocating nothing. Only
// when a result cannot be represented exactly with int64 words does a value
// promote to an arbitrary-precision *big.Rat; big results that fit int64
// again are demoted eagerly, so promotion is confined to genuinely large
// values. Both representations are exact — promotion never rounds — and the
// differential tests in this package check every operation against a pure
// big.Rat oracle, including inputs straddling the int64 overflow boundary.
//
// Every operation returns a fresh value and never mutates its operands,
// which makes Rat safe to share across goroutines and store in maps.
package rat

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Rat is an immutable exact rational number.
// The zero value is 0/1 and is ready to use.
//
// Invariants: when br == nil the value is num/den in lowest terms with
// 0 < den <= MaxInt64 and |num| <= MaxInt64 (MinInt64 never appears, so
// negation cannot overflow), except that the zero value has den == 0 and is
// read as 0/1. When br != nil the value is *br, num and den are 0, and the
// value does not fit the small form (demotion is eager); br is never
// mutated after creation.
type Rat struct {
	num, den int64
	br       *big.Rat
}

// Zero is the rational number 0.
var Zero = Rat{}

// One is the rational number 1.
var One = FromInt(1)

// abs64 returns |n| as a uint64, correct for MinInt64.
func abs64(n int64) uint64 {
	if n < 0 {
		return -uint64(n)
	}
	return uint64(n)
}

// gcd returns the greatest common divisor of a and b by the binary
// algorithm; gcd(a, 0) = a.
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	az := bits.TrailingZeros64(a)
	bz := bits.TrailingZeros64(b)
	a >>= uint(az)
	b >>= uint(bz)
	for a != b {
		if a < b {
			a, b = b, a
		}
		a -= b
		a >>= uint(bits.TrailingZeros64(a))
	}
	k := az
	if bz < k {
		k = bz
	}
	return a << uint(k)
}

// smallFrom builds a small Rat from a sign and reduced magnitudes known to
// fit int64.
func smallFrom(neg bool, num, den uint64) Rat {
	n := int64(num)
	if neg {
		n = -n
	}
	return Rat{num: n, den: int64(den)}
}

// reduceSmall reduces sign+magnitude operands to lowest terms and returns
// the small form, or ok=false when the reduced value does not fit int64.
func reduceSmall(neg bool, num, den uint64) (Rat, bool) {
	if num == 0 {
		return Rat{num: 0, den: 1}, true
	}
	g := gcd(num, den)
	num /= g
	den /= g
	if num > math.MaxInt64 || den > math.MaxInt64 {
		return Rat{}, false
	}
	return smallFrom(neg, num, den), true
}

// parts returns the numerator and (positive) denominator of a small-form
// value, mapping the zero value's den == 0 to 0/1.
func (x Rat) parts() (int64, int64) {
	if x.den == 0 {
		return 0, 1
	}
	return x.num, x.den
}

// toBig returns x as a *big.Rat, using scratch for small values so the
// caller controls allocation. Callers must not mutate the result.
func (x Rat) toBig(scratch *big.Rat) *big.Rat {
	if x.br != nil {
		return x.br
	}
	n, d := x.parts()
	return scratch.SetFrac64(n, d)
}

// demote returns br as a Rat, converting to the small form when the value
// fits int64. br must be freshly allocated and is retained when it does not
// fit.
func demote(br *big.Rat) Rat {
	if n, d := br.Num(), br.Denom(); n.IsInt64() && d.IsInt64() {
		ni, di := n.Int64(), d.Int64()
		if ni != math.MinInt64 { // big.Rat denominators are positive
			return Rat{num: ni, den: di}
		}
	}
	return Rat{br: br}
}

// bigBinOp computes op(x, y) through big.Rat and demotes the result. It is
// the slow path shared by the arithmetic methods.
func bigBinOp(op func(z, x, y *big.Rat) *big.Rat, x, y Rat) Rat {
	var sx, sy big.Rat
	return demote(op(new(big.Rat), x.toBig(&sx), y.toBig(&sy)))
}

// New returns the rational num/den. It panics if den == 0.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	neg := (num < 0) != (den < 0)
	if r, ok := reduceSmall(neg, abs64(num), abs64(den)); ok {
		return r
	}
	return Rat{br: big.NewRat(num, den)}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat {
	if n == math.MinInt64 {
		return Rat{br: big.NewRat(n, 1)}
	}
	return Rat{num: n, den: 1}
}

// FromBig returns a Rat copying the given big.Rat. A nil argument yields 0.
func FromBig(r *big.Rat) Rat {
	if r == nil {
		return Rat{}
	}
	return demote(new(big.Rat).Set(r))
}

// Parse parses a string in fraction ("3/2") or decimal ("1.5") form.
func Parse(s string) (Rat, error) {
	br, ok := new(big.Rat).SetString(s)
	if !ok {
		return Rat{}, fmt.Errorf("rat: cannot parse %q", s)
	}
	return demote(br), nil
}

// MustParse is Parse, panicking on error. Intended for constants in tests
// and examples.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// big returns the underlying big.Rat, treating the zero value as 0.
// Callers must not mutate the result.
func (x Rat) big() *big.Rat {
	if x.br != nil {
		return x.br
	}
	n, d := x.parts()
	return new(big.Rat).SetFrac64(n, d)
}

// addSmall computes xn/xd + yn/yd in int64 words. ok is false when any
// intermediate or the reduced result overflows, in which case the caller
// must take the big path. Denominators are positive; numerators exceed
// MinInt64, so negation is safe.
//
// Reduction follows Knuth 4.5.1: with both operands in lowest terms and
// g = gcd(xd, yd), the sum over the common denominator xd·(yd/g) shares
// factors with it only through g, so when g == 1 the result is already
// reduced and otherwise one gcd against g (not the full magnitudes)
// finishes the job.
func addSmall(xn, xd, yn, yd int64) (Rat, bool) {
	bu, du := uint64(xd), uint64(yd)
	g := gcd(bu, du)
	db, da := du, bu // yd/g, xd/g
	if g > 1 {
		db, da = du/g, bu/g
	}
	hi, den := bits.Mul64(bu, db)
	if hi != 0 {
		return Rat{}, false
	}
	h1, m1 := bits.Mul64(abs64(xn), db)
	h2, m2 := bits.Mul64(abs64(yn), da)
	if h1 != 0 || h2 != 0 {
		return Rat{}, false
	}
	neg1, neg2 := xn < 0, yn < 0
	var mag uint64
	var neg bool
	if neg1 == neg2 {
		var carry uint64
		mag, carry = bits.Add64(m1, m2, 0)
		if carry != 0 {
			return Rat{}, false
		}
		neg = neg1
	} else if m1 >= m2 {
		mag, neg = m1-m2, neg1
	} else {
		mag, neg = m2-m1, neg2
	}
	if mag == 0 {
		return Rat{num: 0, den: 1}, true
	}
	if g > 1 {
		if g2 := gcd(mag%g, g); g2 > 1 {
			mag /= g2
			den /= g2
		}
	}
	if mag > math.MaxInt64 || den > math.MaxInt64 {
		return Rat{}, false
	}
	return smallFrom(neg, mag, den), true
}

// mulSmall computes (xn/xd)·(yn/yd) in int64 words, cross-cancelling first
// so that reduced operands yield a reduced product. ok is false on
// overflow.
func mulSmall(xn, xd, yn, yd int64) (Rat, bool) {
	if xn == 0 || yn == 0 {
		return Rat{num: 0, den: 1}, true
	}
	a, b := abs64(xn), uint64(xd)
	c, d := abs64(yn), uint64(yd)
	if g := gcd(a, d); g > 1 {
		a, d = a/g, d/g
	}
	if g := gcd(c, b); g > 1 {
		c, b = c/g, b/g
	}
	hn, num := bits.Mul64(a, c)
	hd, den := bits.Mul64(b, d)
	if hn != 0 || hd != 0 || num > math.MaxInt64 || den > math.MaxInt64 {
		return Rat{}, false
	}
	return smallFrom((xn < 0) != (yn < 0), num, den), true
}

// Add returns x + y.
func (x Rat) Add(y Rat) Rat {
	if x.br == nil && y.br == nil {
		xn, xd := x.parts()
		yn, yd := y.parts()
		if r, ok := addSmall(xn, xd, yn, yd); ok {
			return r
		}
	}
	return bigBinOp((*big.Rat).Add, x, y)
}

// Sub returns x - y.
func (x Rat) Sub(y Rat) Rat {
	if x.br == nil && y.br == nil {
		xn, xd := x.parts()
		yn, yd := y.parts()
		if r, ok := addSmall(xn, xd, -yn, yd); ok {
			return r
		}
	}
	return bigBinOp((*big.Rat).Sub, x, y)
}

// Mul returns x * y.
func (x Rat) Mul(y Rat) Rat {
	if x.br == nil && y.br == nil {
		xn, xd := x.parts()
		yn, yd := y.parts()
		if r, ok := mulSmall(xn, xd, yn, yd); ok {
			return r
		}
	}
	return bigBinOp((*big.Rat).Mul, x, y)
}

// Div returns x / y. It panics if y is zero.
func (x Rat) Div(y Rat) Rat {
	if y.Sign() == 0 {
		panic("rat: division by zero")
	}
	if x.br == nil && y.br == nil {
		xn, xd := x.parts()
		yn, yd := y.parts()
		// x / (yn/yd) = x · (yd/yn); the inverse of a reduced small value
		// is itself small, so mulSmall's cross-cancellation applies as is.
		in, id := yd, yn
		if yn < 0 {
			in, id = -yd, -yn
		}
		if r, ok := mulSmall(xn, xd, in, id); ok {
			return r
		}
	}
	return bigBinOp((*big.Rat).Quo, x, y)
}

// Neg returns -x.
func (x Rat) Neg() Rat {
	if x.br == nil {
		n, d := x.parts()
		return Rat{num: -n, den: d}
	}
	return demote(new(big.Rat).Neg(x.br))
}

// MulInt returns x * n.
func (x Rat) MulInt(n int64) Rat { return x.Mul(FromInt(n)) }

// Cmp compares x and y and returns -1, 0, or +1.
func (x Rat) Cmp(y Rat) int {
	if x.br == nil && y.br == nil {
		xn, xd := x.parts()
		yn, yd := y.parts()
		if xn == 0 || yn == 0 || (xn < 0) != (yn < 0) {
			// Signs differ (or one side is zero): the sign ordering decides.
			sx, sy := sgn(xn), sgn(yn)
			switch {
			case sx < sy:
				return -1
			case sx > sy:
				return 1
			}
			return 0
		}
		// Same nonzero sign: compare |xn|·yd against |yn|·xd in 128 bits
		// (denominators are positive), flipping for negatives.
		h1, l1 := bits.Mul64(abs64(xn), uint64(yd))
		h2, l2 := bits.Mul64(abs64(yn), uint64(xd))
		var r int
		switch {
		case h1 != h2:
			r = 1
			if h1 < h2 {
				r = -1
			}
		case l1 != l2:
			r = 1
			if l1 < l2 {
				r = -1
			}
		}
		if xn < 0 {
			r = -r
		}
		return r
	}
	var sx, sy big.Rat
	return x.toBig(&sx).Cmp(y.toBig(&sy))
}

func sgn(n int64) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// Less reports whether x < y.
func (x Rat) Less(y Rat) bool { return x.Cmp(y) < 0 }

// LessEq reports whether x <= y.
func (x Rat) LessEq(y Rat) bool { return x.Cmp(y) <= 0 }

// Greater reports whether x > y.
func (x Rat) Greater(y Rat) bool { return x.Cmp(y) > 0 }

// GreaterEq reports whether x >= y.
func (x Rat) GreaterEq(y Rat) bool { return x.Cmp(y) >= 0 }

// Equal reports whether x == y.
func (x Rat) Equal(y Rat) bool { return x.Cmp(y) == 0 }

// Sign returns -1, 0, or +1 according to the sign of x.
func (x Rat) Sign() int {
	if x.br == nil {
		return sgn(x.num)
	}
	return x.br.Sign()
}

// IsInt reports whether x is an integer.
func (x Rat) IsInt() bool {
	if x.br == nil {
		return x.den <= 1 // den == 0 is the zero value
	}
	return x.br.IsInt()
}

// Num returns the numerator of x in lowest terms.
// It panics if the numerator does not fit in an int64.
func (x Rat) Num() int64 {
	if x.br == nil {
		return x.num
	}
	n := x.br.Num()
	if !n.IsInt64() {
		panic("rat: numerator overflows int64")
	}
	return n.Int64()
}

// Den returns the denominator of x in lowest terms (always positive).
// It panics if the denominator does not fit in an int64.
func (x Rat) Den() int64 {
	if x.br == nil {
		_, d := x.parts()
		return d
	}
	d := x.br.Denom()
	if !d.IsInt64() {
		panic("rat: denominator overflows int64")
	}
	return d.Int64()
}

// Inline returns the numerator and positive denominator of x in lowest
// terms when the value is held in the inline int64 fast path, with
// ok = false for promoted (big.Rat-backed) values. Unlike Num/Den it
// never panics and never allocates, which makes it the right accessor
// for hashing hot paths that fold rationals into a running digest and
// fall back to String() only for promoted values.
func (x Rat) Inline() (num, den int64, ok bool) {
	if x.br != nil {
		return 0, 0, false
	}
	n, d := x.parts()
	return n, d, true
}

// Float64 returns the nearest float64 value to x.
func (x Rat) Float64() float64 {
	if x.br == nil {
		n, d := x.parts()
		// Both operands exact in float64 ⇒ IEEE division rounds the true
		// quotient correctly, matching big.Rat.Float64.
		if abs64(n) <= 1<<53 && uint64(d) <= 1<<53 {
			return float64(n) / float64(d)
		}
	}
	var s big.Rat
	f, _ := x.toBig(&s).Float64()
	return f
}

// Ceil returns the smallest integer >= x, as an int64.
func (x Rat) Ceil() int64 {
	if x.br == nil {
		n, d := x.parts()
		q := n / d
		if n%d > 0 {
			q++
		}
		return q
	}
	num, den := x.br.Num(), x.br.Denom()
	q, m := new(big.Int).QuoRem(num, den, new(big.Int))
	if m.Sign() > 0 {
		q.Add(q, big.NewInt(1))
	}
	if !q.IsInt64() {
		panic("rat: ceil overflows int64")
	}
	return q.Int64()
}

// Floor returns the largest integer <= x, as an int64.
func (x Rat) Floor() int64 {
	if x.br == nil {
		n, d := x.parts()
		q := n / d
		if n%d < 0 {
			q--
		}
		return q
	}
	num, den := x.br.Num(), x.br.Denom()
	q, m := new(big.Int).QuoRem(num, den, new(big.Int))
	if m.Sign() < 0 {
		q.Sub(q, big.NewInt(1))
	}
	if !q.IsInt64() {
		panic("rat: floor overflows int64")
	}
	return q.Int64()
}

// Min returns the smaller of x and y.
func Min(x, y Rat) Rat {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// Max returns the larger of x and y.
func Max(x, y Rat) Rat {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

// String renders x as "n" for integers and "n/d" otherwise.
func (x Rat) String() string {
	if x.br == nil {
		n, d := x.parts()
		if d == 1 {
			return strconv.FormatInt(n, 10)
		}
		return strconv.FormatInt(n, 10) + "/" + strconv.FormatInt(d, 10)
	}
	if x.br.IsInt() {
		return x.br.Num().String()
	}
	return x.br.RatString()
}
