package rat

// Differential test harness: every public operation is executed
// simultaneously on the two-representation Rat and on a pure big.Rat
// oracle, and the results must agree bit-exactly. Operand generation mixes
// uniformly random values, values pinned to the int64 overflow boundary
// (±2^62, ±(2^63−1), coprime near-overflow pairs), already-promoted big
// values, and values derived by chains of prior operations — so the suite
// exercises both directions across the small↔big boundary: small results
// that must promote, and big intermediates that must demote.
//
// Each TestDifferential* property checks at least 10,000 operation pairs
// (opsPerProperty); run them with
//
//	go test -run=TestDifferential ./internal/rat
import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// opsPerProperty is the minimum number of oracle-checked operation pairs
// per differential property.
const opsPerProperty = 12000

// checkRep fails the test when x violates the representation invariant:
// small values are in lowest terms with positive int64 denominator and a
// numerator above MinInt64; big values must not fit the small form.
func checkRep(t *testing.T, x Rat) {
	t.Helper()
	if x.br == nil {
		n, d := x.parts()
		if d <= 0 {
			t.Fatalf("small form with non-positive denominator: %d/%d", n, d)
		}
		if n == math.MinInt64 {
			t.Fatalf("small form holds MinInt64 numerator")
		}
		if n == 0 {
			if x.num != 0 {
				t.Fatalf("inconsistent zero: num=%d den=%d", x.num, x.den)
			}
			return
		}
		if g := gcd(abs64(n), uint64(d)); g != 1 {
			t.Fatalf("small form not reduced: %d/%d (gcd %d)", n, d, g)
		}
		return
	}
	if x.num != 0 || x.den != 0 {
		t.Fatalf("big form with stale small fields: %d/%d", x.num, x.den)
	}
	n, d := x.br.Num(), x.br.Denom()
	if n.IsInt64() && d.IsInt64() && n.Int64() != math.MinInt64 {
		t.Fatalf("big form holds small-representable value %s (missed demotion)", x.br.RatString())
	}
}

// agree fails the test unless x equals the oracle value exactly.
func agree(t *testing.T, what string, x Rat, oracle *big.Rat) {
	t.Helper()
	checkRep(t, x)
	if x.big().Cmp(oracle) != 0 {
		t.Fatalf("%s: fast path %s, oracle %s", what, x.big().RatString(), oracle.RatString())
	}
}

// boundary holds int64 values engineered to straddle the overflow
// boundary: powers of two around 2^62, the extremes, values near √MaxInt64
// (whose pairwise products land on either side of 2^63), and the Mersenne
// prime 2^61−1 for coprime near-overflow pairs.
var boundary = []int64{
	0, 1, -1, 2, -2, 3, 6, 7, 10,
	1 << 31, (1 << 31) - 1, -(1 << 31), (1 << 32) + 1,
	3037000499, 3037000500, -3037000499, // ⌊√MaxInt64⌋ and neighbors
	(1 << 61) - 1, -((1 << 61) - 1), // Mersenne prime 2^61−1
	1 << 62, -(1 << 62), (1 << 62) - 1, (1 << 62) + 1,
	math.MaxInt64, math.MaxInt64 - 1, -math.MaxInt64, math.MinInt64,
}

// pair is a Rat and its independently maintained big.Rat oracle.
type pair struct {
	r Rat
	o *big.Rat
}

// genPair draws one operand. The Rat and the oracle are constructed from
// the same primitive integers through separate code paths, or derived in
// lockstep from previous pairs, so agreement is never assumed — only
// checked.
func genPair(t *testing.T, rng *rand.Rand) pair {
	t.Helper()
	nonZero := func(n int64) int64 {
		if n == 0 {
			return 1
		}
		return n
	}
	switch rng.Intn(6) {
	case 0: // small everyday values
		n := rng.Int63n(2001) - 1000
		d := rng.Int63n(1000) + 1
		return pair{New(n, d), big.NewRat(n, d)}
	case 1: // boundary numerator and denominator
		n := boundary[rng.Intn(len(boundary))]
		d := nonZero(boundary[rng.Intn(len(boundary))])
		return pair{New(n, d), big.NewRat(n, d)}
	case 2: // uniform full-range int64 pair
		n := rng.Int63() - rng.Int63()
		d := nonZero(rng.Int63() - rng.Int63())
		return pair{New(n, d), big.NewRat(n, d)}
	case 3: // genuinely big: 128-bit numerator over 64-bit denominator
		hi, lo := rng.Int63(), rng.Int63()
		n := new(big.Int).Lsh(big.NewInt(hi), 64)
		n.Add(n, big.NewInt(lo))
		if rng.Intn(2) == 0 {
			n.Neg(n)
		}
		o := new(big.Rat).SetFrac(n, big.NewInt(nonZero(rng.Int63())))
		return pair{FromBig(o), o}
	case 4: // derived: one arithmetic step over two fresh operands
		a, b := genPair(t, rng), genPair(t, rng)
		switch rng.Intn(3) {
		case 0:
			return pair{a.r.Add(b.r), new(big.Rat).Add(a.o, b.o)}
		case 1:
			return pair{a.r.Sub(b.r), new(big.Rat).Sub(a.o, b.o)}
		default:
			return pair{a.r.Mul(b.r), new(big.Rat).Mul(a.o, b.o)}
		}
	default: // near-overflow coprime fraction around 2^31.5
		n := rng.Int63n(1<<33) + 1<<31
		d := rng.Int63n(1<<33) + 1<<31
		if rng.Intn(2) == 0 {
			n = -n
		}
		return pair{New(n, d), big.NewRat(n, d)}
	}
}

func TestDifferentialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < opsPerProperty; i++ {
		a, b := genPair(t, rng), genPair(t, rng)
		agree(t, "Add", a.r.Add(b.r), new(big.Rat).Add(a.o, b.o))
	}
}

func TestDifferentialSub(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < opsPerProperty; i++ {
		a, b := genPair(t, rng), genPair(t, rng)
		agree(t, "Sub", a.r.Sub(b.r), new(big.Rat).Sub(a.o, b.o))
	}
}

func TestDifferentialMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < opsPerProperty; i++ {
		a, b := genPair(t, rng), genPair(t, rng)
		agree(t, "Mul", a.r.Mul(b.r), new(big.Rat).Mul(a.o, b.o))
	}
}

func TestDifferentialDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < opsPerProperty; {
		a, b := genPair(t, rng), genPair(t, rng)
		if b.o.Sign() == 0 {
			continue
		}
		agree(t, "Div", a.r.Div(b.r), new(big.Rat).Quo(a.o, b.o))
		i++
	}
}

func TestDifferentialCmp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < opsPerProperty; i++ {
		a, b := genPair(t, rng), genPair(t, rng)
		if got, want := a.r.Cmp(b.r), a.o.Cmp(b.o); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, oracle %d", a.o.RatString(), b.o.RatString(), got, want)
		}
		// The derived predicates must be consistent with Cmp.
		if a.r.Less(b.r) != (a.o.Cmp(b.o) < 0) || a.r.Equal(b.r) != (a.o.Cmp(b.o) == 0) ||
			a.r.Greater(b.r) != (a.o.Cmp(b.o) > 0) || a.r.LessEq(b.r) != (a.o.Cmp(b.o) <= 0) ||
			a.r.GreaterEq(b.r) != (a.o.Cmp(b.o) >= 0) {
			t.Fatalf("comparison predicates disagree with oracle for (%s, %s)", a.o.RatString(), b.o.RatString())
		}
	}
}

func TestDifferentialUnary(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < opsPerProperty; i++ {
		a := genPair(t, rng)
		agree(t, "Neg", a.r.Neg(), new(big.Rat).Neg(a.o))
		if got, want := a.r.Sign(), a.o.Sign(); got != want {
			t.Fatalf("Sign(%s) = %d, oracle %d", a.o.RatString(), got, want)
		}
		if got, want := a.r.IsInt(), a.o.IsInt(); got != want {
			t.Fatalf("IsInt(%s) = %v, oracle %v", a.o.RatString(), got, want)
		}
		n := rng.Int63n(2001) - 1000
		agree(t, "MulInt", a.r.MulInt(n), new(big.Rat).Mul(a.o, big.NewRat(n, 1)))
	}
}

func TestDifferentialMinMaxSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < opsPerProperty; i++ {
		a, b, c := genPair(t, rng), genPair(t, rng), genPair(t, rng)
		oMin, oMax := a.o, a.o
		if b.o.Cmp(oMin) < 0 {
			oMin = b.o
		}
		if b.o.Cmp(oMax) > 0 {
			oMax = b.o
		}
		agree(t, "Min", Min(a.r, b.r), oMin)
		agree(t, "Max", Max(a.r, b.r), oMax)
		oSum := new(big.Rat).Add(a.o, b.o)
		oSum.Add(oSum, c.o)
		agree(t, "Add3", a.r.Add(b.r).Add(c.r), oSum)
	}
}

// oracleFloorCeil computes ⌊x⌋ and ⌈x⌉ of the oracle as big.Ints.
func oracleFloorCeil(o *big.Rat) (floor, ceil *big.Int) {
	q, m := new(big.Int).QuoRem(o.Num(), o.Denom(), new(big.Int))
	floor = new(big.Int).Set(q)
	ceil = new(big.Int).Set(q)
	if m.Sign() < 0 {
		floor.Sub(floor, big.NewInt(1))
	}
	if m.Sign() > 0 {
		ceil.Add(ceil, big.NewInt(1))
	}
	return floor, ceil
}

func TestDifferentialFloorCeil(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < opsPerProperty; i++ {
		a := genPair(t, rng)
		oFloor, oCeil := oracleFloorCeil(a.o)
		if oFloor.IsInt64() {
			if got := a.r.Floor(); got != oFloor.Int64() {
				t.Fatalf("Floor(%s) = %d, oracle %s", a.o.RatString(), got, oFloor)
			}
		}
		if oCeil.IsInt64() {
			if got := a.r.Ceil(); got != oCeil.Int64() {
				t.Fatalf("Ceil(%s) = %d, oracle %s", a.o.RatString(), got, oCeil)
			}
		}
	}
}

func TestDifferentialStringParse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < opsPerProperty; i++ {
		a := genPair(t, rng)
		want := a.o.RatString()
		if got := a.r.String(); got != want {
			t.Fatalf("String: fast path %q, oracle %q", got, want)
		}
		// Round trip: String → Parse must reproduce the value, and Parse
		// must agree with the oracle's own parser on the same input.
		back, err := Parse(want)
		if err != nil {
			t.Fatalf("Parse(%q): %v", want, err)
		}
		oBack, ok := new(big.Rat).SetString(want)
		if !ok {
			t.Fatalf("oracle cannot parse %q", want)
		}
		agree(t, "Parse", back, oBack)
	}
}

func TestDifferentialFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < opsPerProperty; i++ {
		a := genPair(t, rng)
		want, _ := a.o.Float64()
		if got := a.r.Float64(); got != want {
			t.Fatalf("Float64(%s) = %g, oracle %g", a.o.RatString(), got, want)
		}
	}
}

func TestDifferentialNumDen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < opsPerProperty; i++ {
		a := genPair(t, rng)
		if a.o.Num().IsInt64() {
			if got := a.r.Num(); got != a.o.Num().Int64() {
				t.Fatalf("Num(%s) = %d, oracle %s", a.o.RatString(), got, a.o.Num())
			}
		}
		if a.o.Denom().IsInt64() {
			if got := a.r.Den(); got != a.o.Denom().Int64() {
				t.Fatalf("Den(%s) = %d, oracle %s", a.o.RatString(), got, a.o.Denom())
			}
		}
	}
}

// TestDifferentialOverflowStraddle aims every operation squarely at the
// int64 overflow boundary: operands are chosen so that exact products and
// sums land just below or just above 2^63, forcing the promotion check to
// decide each time — and follows promoted values with a shrinking step so
// demotion back to the small form is exercised in the same pass.
func TestDifferentialOverflowStraddle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	near := func() int64 {
		// Magnitudes in [2^31, 2^32): pairwise products cover
		// (2^62, 2^64), straddling MaxInt64 from both sides.
		v := rng.Int63n(1<<31) + 1<<31
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	for i := 0; i < opsPerProperty; i++ {
		a, b := New(near(), rng.Int63n(1<<32)+1), New(near(), rng.Int63n(1<<32)+1)
		ao, bo := big.NewRat(a.Num(), a.Den()), big.NewRat(b.Num(), b.Den())

		prod := a.Mul(b)
		oProd := new(big.Rat).Mul(ao, bo)
		agree(t, "straddle Mul", prod, oProd)

		sum := a.Add(b)
		oSum := new(big.Rat).Add(ao, bo)
		agree(t, "straddle Add", sum, oSum)

		// Shrink the product back below the boundary: a promoted value
		// divided by its own first factor must demote to exactly b.
		if a.Sign() != 0 {
			back := prod.Div(a)
			agree(t, "straddle Div (demotion)", back, new(big.Rat).Quo(oProd, ao))
			if back.br != nil && back.Num() == b.Num() && back.Den() == b.Den() {
				t.Fatalf("straddle: %s stayed promoted though it fits int64", back)
			}
		}
	}
}
