package check

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/rat"
)

// TestNextAboveBruteForce checks the Farey step of the critical-ratio
// search against a scan of every candidate: for each n/d in lowest terms
// with 1 <= d < n <= k <= 40, nextAbove must return the smallest fraction
// above n/d with numerator and denominator at most k, and report none
// exactly when n/d = k/1.
func TestNextAboveBruteForce(t *testing.T) {
	for k := int64(2); k <= 40; k++ {
		for n := int64(2); n <= k; n++ {
			for d := int64(1); d < n; d++ {
				if gcd(n, d) != 1 {
					continue
				}
				want, found := rat.Zero, false
				for y := int64(1); y <= k; y++ {
					for x := int64(1); x <= k; x++ {
						if c := rat.New(x, y); c.Greater(rat.New(n, d)) && (!found || c.Less(want)) {
							want, found = c, true
						}
					}
				}
				num, den, ok := nextAbove(n, d, k)
				if ok != found || (ok && !rat.New(num, den).Equal(want)) {
					t.Fatalf("nextAbove(%d/%d, k=%d) = %d/%d (ok=%v), want %v (found=%v)", n, d, k, num, den, ok, want, found)
				}
				if ok && (num > k || den > k || gcd(num, den) != 1) {
					t.Fatalf("nextAbove(%d/%d, k=%d) = %d/%d: not a reduced fraction within k", n, d, k, num, den)
				}
			}
		}
	}
}

// TestMaxRelevantRatioMatchesExhaustive compares the witness-jump search
// with cycle enumeration on randomTrace's broadcasts cut to two steps
// (three are past enumeration), under delays in [1, 2] and [1, 10]:
// wherever enumeration completes, the ratios must be equal exactly, not
// just bracketed as TestCriticalRatioThresholdProperty does.
func TestMaxRelevantRatioMatchesExhaustive(t *testing.T) {
	const seeds, limit = 40, 20_000
	compared, constrained := 0, 0
	for _, maxDelay := range []rat.Rat{rat.FromInt(2), rat.FromInt(10)} {
		for seed := int64(0); seed < seeds; seed++ {
			g := causality.Build(randomBroadcastTrace(seed, 2, maxDelay), causality.Options{})
			exR, exFound, complete := MaxRelevantRatioExhaustive(g, limit)
			if !complete {
				continue
			}
			compared++
			ratio, found, err := MaxRelevantRatio(g)
			if err != nil {
				t.Fatalf("seed %d, delays [1, %v]: %v", seed, maxDelay, err)
			}
			want := exFound && exR.Greater(rat.One)
			if found != want || (found && !ratio.Equal(exR)) {
				t.Fatalf("seed %d, delays [1, %v]: MaxRelevantRatio = %v (found=%v), exhaustive %v (found=%v)",
					seed, maxDelay, ratio, found, exR, exFound)
			}
			if found {
				constrained++
			}
		}
	}
	t.Logf("%d of %d traces enumerated, %d with a critical ratio", compared, 2*seeds, constrained)
	if compared < seeds/2 || constrained < compared/4 {
		t.Fatalf("degenerate sweep: %d traces enumerated, %d constrained", compared, constrained)
	}
}
