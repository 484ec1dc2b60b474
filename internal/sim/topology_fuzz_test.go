package sim

import (
	"strings"
	"testing"
)

// FuzzParseTopology drives the topology spec grammar with arbitrary specs,
// system sizes in [1, 4096] and seeds: ParseTopology must never panic, and
// every accepted spec must yield nil (fully connected) only for "full",
// and otherwise links spanning exactly n processes. The seed corpus covers
// every generator and the two specs whose arithmetic once overflowed.
func FuzzParseTopology(f *testing.F) {
	for _, tc := range []struct {
		spec string
		n    uint16
	}{
		{"full", 4},
		{"", 4},
		{"ring", 9},
		{"torus", 12},
		{"torus/3x4", 12},
		{"torus/4611686018427387905x4", 4},
		{"regular/2", 9},
		{"regular/0", 1},
		{"scalefree/1", 9},
		{"scalefree/9", 5},
		{"scalefree/9223372036854775807", 4},
		{"islands/2", 7},
		{"islands/7", 7},
		{"torus/x", 4},
		{"mesh", 4},
		{"//", 4},
		{"scalefree/9223372036854775807", 4096}, // m >= n-1: the complete graph at the largest n
	} {
		f.Add(tc.spec, tc.n, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, rawN uint16, seed int64) {
		n := int(rawN) % 4096
		if n == 0 {
			n = 4096
		}
		topo, err := ParseTopology(spec, n, seed)
		if err != nil {
			return
		}
		if topo == nil {
			if name, _, _ := strings.Cut(spec, "/"); name != "full" {
				t.Fatalf("ParseTopology(%q, %d) = nil, only full is fully connected", spec, n)
			}
			return
		}
		if topo.N() != n {
			t.Fatalf("ParseTopology(%q, %d) spans %d processes", spec, n, topo.N())
		}
	})
}
