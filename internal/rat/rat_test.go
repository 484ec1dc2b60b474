package rat

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var z Rat
	if z.Sign() != 0 {
		t.Errorf("zero value Sign() = %d, want 0", z.Sign())
	}
	if got := z.Add(One); !got.Equal(One) {
		t.Errorf("0 + 1 = %v, want 1", got)
	}
	if got := z.String(); got != "0" {
		t.Errorf("zero String() = %q, want \"0\"", got)
	}
	if !z.Equal(Zero) {
		t.Errorf("zero value != Zero")
	}
}

func TestNew(t *testing.T) {
	tests := []struct {
		num, den int64
		want     string
	}{
		{1, 2, "1/2"},
		{2, 4, "1/2"},
		{-3, 2, "-3/2"},
		{3, -2, "-3/2"},
		{0, 5, "0"},
		{7, 1, "7"},
	}
	for _, tt := range tests {
		if got := New(tt.num, tt.den).String(); got != tt.want {
			t.Errorf("New(%d, %d) = %q, want %q", tt.num, tt.den, got, tt.want)
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestArithmetic(t *testing.T) {
	half := New(1, 2)
	third := New(1, 3)

	tests := []struct {
		name string
		got  Rat
		want Rat
	}{
		{"add", half.Add(third), New(5, 6)},
		{"sub", half.Sub(third), New(1, 6)},
		{"mul", half.Mul(third), New(1, 6)},
		{"div", half.Div(third), New(3, 2)},
		{"neg", half.Neg(), New(-1, 2)},
		{"mulint", third.MulInt(6), FromInt(2)},
	}
	for _, tt := range tests {
		if !tt.got.Equal(tt.want) {
			t.Errorf("%s: got %v, want %v", tt.name, tt.got, tt.want)
		}
	}
}

func TestComparisons(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !a.Less(b) || a.Greater(b) || a.Equal(b) {
		t.Errorf("ordering of 1/3 vs 1/2 wrong")
	}
	if !a.LessEq(a) || !a.GreaterEq(a) {
		t.Errorf("reflexive comparisons wrong")
	}
	if Min(a, b) != a || Max(a, b) != b {
		t.Errorf("Min/Max wrong")
	}
}

func TestCeilFloor(t *testing.T) {
	tests := []struct {
		x           Rat
		ceil, floor int64
	}{
		{New(3, 2), 2, 1},
		{New(-3, 2), -1, -2},
		{FromInt(4), 4, 4},
		{Zero, 0, 0},
		{New(7, 3), 3, 2},
		{New(-7, 3), -2, -3},
	}
	for _, tt := range tests {
		if got := tt.x.Ceil(); got != tt.ceil {
			t.Errorf("Ceil(%v) = %d, want %d", tt.x, got, tt.ceil)
		}
		if got := tt.x.Floor(); got != tt.floor {
			t.Errorf("Floor(%v) = %d, want %d", tt.x, got, tt.floor)
		}
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in   string
		want Rat
		ok   bool
	}{
		{"3/2", New(3, 2), true},
		{"1.5", New(3, 2), true},
		{"-2", FromInt(-2), true},
		{"abc", Zero, false},
		{"", Zero, false},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("Parse(%q) error = %v, want ok=%v", tt.in, err, tt.ok)
			continue
		}
		if err == nil && !got.Equal(tt.want) {
			t.Errorf("Parse(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse(\"x\") did not panic")
		}
	}()
	MustParse("x")
}

func TestNumDen(t *testing.T) {
	x := New(6, -4)
	if x.Num() != -3 || x.Den() != 2 {
		t.Errorf("Num/Den of 6/-4 = %d/%d, want -3/2", x.Num(), x.Den())
	}
}

func TestFromBig(t *testing.T) {
	src := big.NewRat(3, 7)
	x := FromBig(src)
	src.SetInt64(99) // mutating the source must not affect x
	if !x.Equal(New(3, 7)) {
		t.Errorf("FromBig aliased its argument")
	}
	if !FromBig(nil).Equal(Zero) {
		t.Errorf("FromBig(nil) != 0")
	}
}

// Property: immutability. Operations never change their operands.
func TestImmutability(t *testing.T) {
	f := func(an, bn int64) bool {
		a, b := New(an, 7), New(bn, 5)
		ac, bc := New(an, 7), New(bn, 5)
		_ = a.Add(b)
		_ = a.Sub(b)
		_ = a.Mul(b)
		_ = a.Neg()
		return a.Equal(ac) && b.Equal(bc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: field axioms on a sample of rationals.
func TestFieldProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	mk := func(n int64, d int64) Rat {
		if d == 0 {
			d = 1
		}
		return New(n%1000, d%1000+1001) // keep denominators positive and small
	}
	commutative := func(an, ad, bn, bd int64) bool {
		a, b := mk(an, ad), mk(bn, bd)
		return a.Add(b).Equal(b.Add(a)) && a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	distributive := func(an, ad, bn, bd, cn, cd int64) bool {
		a, b, c := mk(an, ad), mk(bn, bd), mk(cn, cd)
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Errorf("distributivity: %v", err)
	}
	addInverse := func(an, ad int64) bool {
		a := mk(an, ad)
		return a.Add(a.Neg()).Sign() == 0
	}
	if err := quick.Check(addInverse, cfg); err != nil {
		t.Errorf("additive inverse: %v", err)
	}
}

// Property: Ceil/Floor bracket the value.
func TestCeilFloorBracket(t *testing.T) {
	f := func(n int64, d int64) bool {
		if d == 0 {
			d = 1
		}
		x := New(n%100000, d%100000+100001)
		c, fl := FromInt(x.Ceil()), FromInt(x.Floor())
		return fl.LessEq(x) && x.LessEq(c) && c.Sub(fl).LessEq(One)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
