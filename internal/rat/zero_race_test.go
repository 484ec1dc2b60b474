package rat

// Zero-value and concurrency coverage: the uninitialized Rat{} must behave
// as the exact rational 0 through every public method, and values — in
// both representations — must be safely shareable across goroutines
// without synchronization. Run the race test under the race detector:
//
//	go test -race -run TestConcurrentSharedRat ./internal/rat
import (
	"fmt"
	"sync"
	"testing"
)

// TestZeroValueEveryMethod proves the zero value behaves as 0 through
// every public method of the API.
func TestZeroValueEveryMethod(t *testing.T) {
	var z Rat // never initialized
	two := FromInt(2)

	cases := []struct {
		name string
		got  any
		want any
	}{
		{"Add", z.Add(two).String(), "2"},
		{"Add-zero-rhs", two.Add(z).String(), "2"},
		{"Sub", z.Sub(two).String(), "-2"},
		{"Sub-zero-rhs", two.Sub(z).String(), "2"},
		{"Mul", z.Mul(two).String(), "0"},
		{"Mul-zero-rhs", two.Mul(z).String(), "0"},
		{"Div", z.Div(two).String(), "0"},
		{"Neg", z.Neg().String(), "0"},
		{"MulInt", z.MulInt(7).String(), "0"},
		{"Cmp", z.Cmp(Zero), 0},
		{"Cmp-vs-one", z.Cmp(One), -1},
		{"Less", z.Less(One), true},
		{"LessEq", z.LessEq(Zero), true},
		{"Greater", z.Greater(One), false},
		{"GreaterEq", z.GreaterEq(Zero), true},
		{"Equal", z.Equal(Zero), true},
		{"Sign", z.Sign(), 0},
		{"IsInt", z.IsInt(), true},
		{"Num", z.Num(), int64(0)},
		{"Den", z.Den(), int64(1)},
		{"Float64", z.Float64(), 0.0},
		{"Ceil", z.Ceil(), int64(0)},
		{"Floor", z.Floor(), int64(0)},
		{"Min", Min(z, One).String(), "0"},
		{"Max", Max(z, One).String(), "1"},
		{"String", z.String(), "0"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("zero value %s = %v, want %v", c.name, c.got, c.want)
		}
	}

	// Division by the zero value must panic like division by zero.
	defer func() {
		if recover() == nil {
			t.Error("division by the zero value did not panic")
		}
	}()
	One.Div(z)
}

// TestConcurrentSharedRat shares single Rat values — one per
// representation, plus the uninitialized zero value — across goroutines
// that hammer every read path concurrently. Run with -race; immutability
// means no synchronization is required.
func TestConcurrentSharedRat(t *testing.T) {
	shared := []Rat{
		{},                                  // zero value
		New(3, 7),                           // small form
		MustParse("36893488147419103232/3"), // 2^65/3: big form
	}
	for i, x := range shared {
		if (x.br != nil) != (i == 2) {
			t.Fatalf("test setup: value %d in unexpected representation", i)
		}
	}

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := New(int64(g)+1, 3)
			for i := 0; i < iters; i++ {
				for _, x := range shared {
					_ = x.Add(y)
					_ = x.Sub(y)
					_ = x.Mul(y)
					_ = x.Div(y)
					_ = x.Neg()
					_ = x.Cmp(y)
					_ = x.Sign()
					_ = x.IsInt()
					_ = x.Float64()
					_ = x.String()
					_ = Min(x, y)
					_ = Max(x, y)
				}
			}
		}(g)
	}
	wg.Wait()

	// The shared values must be unchanged afterwards.
	for i, want := range []string{"0", "3/7", "36893488147419103232/3"} {
		if got := shared[i].String(); got != want {
			t.Errorf("shared value %d mutated: %s, want %s", i, got, want)
		}
	}
}

// TestRepresentationTransitions documents the promote/demote contract at
// the API level: results that fit int64 are always small, results that do
// not are big, independent of operand representations.
func TestRepresentationTransitions(t *testing.T) {
	big62 := FromInt(1 << 62)
	promoted := big62.Add(big62) // 2^63 overflows int64
	if promoted.br == nil {
		t.Fatalf("2^62 + 2^62 should promote to big form")
	}
	demoted := promoted.Sub(big62) // back to 2^62
	if demoted.br != nil {
		t.Fatalf("2^63 − 2^62 should demote to small form, got %v", demoted)
	}
	if !demoted.Equal(big62) {
		t.Fatalf("2^63 − 2^62 = %v, want %v", demoted, big62)
	}
	for _, s := range []string{"1/3", "-9223372036854775807", "9223372036854775807"} {
		if r := MustParse(s); r.br != nil {
			t.Errorf("Parse(%q) should demote to small form", s)
		}
	}
	var _ fmt.Stringer = promoted // Rat must satisfy fmt.Stringer in both forms
}
