package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Links is a directed communication graph in compressed sparse row form:
// one sorted out-neighbor slice per process, following the CSR layout of
// causality.Graph. It is the engine's only topology representation; a nil
// *Links in Config means fully connected. Linked answers by binary search,
// and Out exposes the neighbor slice Env.Broadcast iterates directly, which
// is what makes N ≈ 10^5 sparse systems tractable. The engine treats
// self-delivery as always available regardless of the links: a process can
// deliver to itself without a network link (see Env.Broadcast and
// Env.Send).
type Links struct {
	n      int
	off    []int32
	to     []ProcessID
	maxOut int
}

// NewLinks builds a Links topology for n processes from per-process
// out-neighbor lists. adj may be shorter than n (missing rows mean no out
// links); rows are copied, sorted, and deduplicated, so the caller's slices
// are not retained. Neighbors outside [0, n) panic: topologies are built by
// generators at configuration time, where a stray ID is a programming
// error.
func NewLinks(n int, adj [][]ProcessID) *Links {
	if n <= 0 {
		panic(fmt.Sprintf("sim: NewLinks(%d)", n))
	}
	if len(adj) > n {
		panic(fmt.Sprintf("sim: NewLinks with %d rows for %d processes", len(adj), n))
	}
	l := &Links{n: n, off: make([]int32, n+1)}
	total := 0
	for _, row := range adj {
		total += len(row)
	}
	l.to = make([]ProcessID, 0, total)
	scratch := make([]ProcessID, 0, 8)
	for p := 0; p < n; p++ {
		var row []ProcessID
		if p < len(adj) {
			row = adj[p]
		}
		scratch = append(scratch[:0], row...)
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		prev := ProcessID(-1)
		for _, q := range scratch {
			if q < 0 || int(q) >= n {
				panic(fmt.Sprintf("sim: NewLinks: neighbor %d of %d out of range", q, p))
			}
			if q == prev {
				continue
			}
			l.to = append(l.to, q)
			prev = q
		}
		l.off[p+1] = int32(len(l.to))
		if d := int(l.off[p+1] - l.off[p]); d > l.maxOut {
			l.maxOut = d
		}
	}
	return l
}

// N returns the number of processes the topology spans.
func (l *Links) N() int { return l.n }

// NumLinks returns the number of directed links.
func (l *Links) NumLinks() int { return len(l.to) }

// Out returns the sorted out-neighbors of p. The slice aliases the
// topology's storage and must not be mutated.
func (l *Links) Out(p ProcessID) []ProcessID { return l.to[l.off[p]:l.off[p+1]] }

// MaxOutDegree returns the largest out-degree.
func (l *Links) MaxOutDegree() int { return l.maxOut }

// Linked reports whether the directed link from → to exists, by binary
// search over the sorted neighbor slice.
func (l *Links) Linked(from, to ProcessID) bool {
	if from < 0 || int(from) >= l.n {
		return false
	}
	nb := l.Out(from)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= to })
	return i < len(nb) && nb[i] == to
}

// Ring returns the directed cycle 0 → 1 → ... → n-1 → 0.
func Ring(n int) *Links {
	adj := make([][]ProcessID, n)
	for i := 0; i < n; i++ {
		adj[i] = []ProcessID{ProcessID((i + 1) % n)}
	}
	return NewLinks(n, adj)
}

// Torus returns the rows×cols wraparound grid with bidirectional links to
// the four axis neighbors — the canonical chip-interconnect layout of the
// VLSI application (Section 5.3). Degenerate dimensions (a 1×c or r×1
// torus) collapse duplicate neighbors.
func Torus(rows, cols int) *Links {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sim: Torus(%d, %d)", rows, cols))
	}
	n := rows * cols
	adj := make([][]ProcessID, n)
	at := func(r, c int) ProcessID {
		return ProcessID(((r+rows)%rows)*cols + (c+cols)%cols)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := at(r, c)
			for _, q := range [4]ProcessID{at(r-1, c), at(r+1, c), at(r, c-1), at(r, c+1)} {
				if q != p { // a degenerate dimension folds onto itself
					adj[p] = append(adj[p], q)
				}
			}
		}
	}
	return NewLinks(n, adj)
}

// nearSquare factors n as rows×cols with rows the largest divisor of n not
// exceeding √n, so a bare "torus" spec gets the squarest possible grid.
func nearSquare(n int) (rows, cols int) {
	rows = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	return rows, n / rows
}

// RandomRegular returns a random directed graph where every process has
// out-degree d: each picks d distinct targets other than itself, uniformly,
// from a deterministic seed. It requires 0 <= d <= n-1. This is the
// out-regular digraph family of the asynchronous maximum/minimum diffusion
// literature; in-degrees vary.
func RandomRegular(n, d int, seed int64) *Links {
	if d < 0 || d > n-1 {
		panic(fmt.Sprintf("sim: RandomRegular(n=%d, d=%d) needs 0 <= d <= n-1", n, d))
	}
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]ProcessID, n)
	// Partial Fisher–Yates over the n-1 candidate targets of each process:
	// d draws without replacement, O(n·d) total.
	pool := make([]ProcessID, n-1)
	for p := 0; p < n; p++ {
		pool = pool[:0]
		for q := 0; q < n; q++ {
			if q != p {
				pool = append(pool, ProcessID(q))
			}
		}
		row := make([]ProcessID, d)
		for i := 0; i < d; i++ {
			j := i + rng.Intn(len(pool)-i)
			pool[i], pool[j] = pool[j], pool[i]
			row[i] = pool[i]
		}
		adj[p] = row
	}
	return NewLinks(n, adj)
}

// ScaleFree returns an undirected (bidirectional-link) Barabási–Albert
// preferential-attachment graph: nodes join one at a time, each attaching
// to min(m, #existing) distinct earlier nodes chosen proportionally to
// their current degree. Hub degrees follow the power law that models
// irregular fabrics and router-dominated interconnects.
func ScaleFree(n, m int, seed int64) *Links {
	if m < 1 {
		panic(fmt.Sprintf("sim: ScaleFree(n=%d, m=%d) needs m >= 1", n, m))
	}
	if m >= n-1 {
		// Every node attaches to all earlier ones whatever the draws: the
		// complete graph. Rejection sampling would take Θ(n² log n) draws
		// to collect every earlier node (about 10 s at n = 4096).
		return Islands(n, 1)
	}
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]ProcessID, n)
	// repeated lists every endpoint once per incident edge; sampling from
	// it is degree-proportional selection.
	repeated := make([]ProcessID, 0, 2*m*n)
	for v := 1; v < n; v++ {
		k := m
		if v < m {
			k = v
		}
		targets := make(map[ProcessID]bool, k)
		for len(targets) < k {
			var t ProcessID
			if len(repeated) == 0 {
				t = ProcessID(rng.Intn(v))
			} else if rng.Intn(2) == 0 {
				// Mix in a uniform draw so early graphs stay connected and
				// sampling cannot stall on a degenerate repeated list.
				t = ProcessID(rng.Intn(v))
			} else {
				t = repeated[rng.Intn(len(repeated))]
			}
			if int(t) >= v || targets[t] {
				continue
			}
			targets[t] = true
		}
		for t := range targets {
			adj[v] = append(adj[v], t)
		}
		// Map iteration order is randomized; canonicalize before touching
		// the rng-independent repeated list so generation is deterministic.
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		for _, t := range adj[v] {
			adj[t] = append(adj[t], ProcessID(v))
			repeated = append(repeated, ProcessID(v), t)
		}
	}
	return NewLinks(n, adj)
}

// Islands returns k disjoint fully-connected components ("islands") of as
// equal size as possible — the canonical disconnected topology for
// partition experiments. Processes in different islands share no link.
func Islands(n, k int) *Links {
	if k < 1 || k > n {
		panic(fmt.Sprintf("sim: Islands(n=%d, k=%d) needs 1 <= k <= n", n, k))
	}
	adj := make([][]ProcessID, n)
	start := 0
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		for p := start; p < start+size; p++ {
			row := make([]ProcessID, 0, size-1)
			for q := start; q < start+size; q++ {
				if q != p {
					row = append(row, ProcessID(q))
				}
			}
			adj[p] = row
		}
		start += size
	}
	return NewLinks(n, adj)
}

// IslandOf returns the component index of p under the Islands(n, k)
// layout, for tests pinning that traffic never crosses a partition.
func IslandOf(n, k int, p ProcessID) int {
	start := 0
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		if int(p) < start+size {
			return i
		}
		start += size
	}
	return k - 1
}

// ParseTopology builds a topology from its textual spec — the declared
// workload-parameter syntax shared by the registry sources and swept with
// `abcsim -sweep topology=...`:
//
//	full          fully connected (returns nil, the engine's default)
//	ring          directed cycle
//	torus         wraparound grid, squarest rows×cols factorization of n
//	torus/RxC     explicit rows×cols wraparound grid (R·C must equal n)
//	regular/D     random out-degree-D digraph (seeded)
//	scalefree/M   Barabási–Albert with M attachments per node (seeded)
//	islands/K     K disjoint fully-connected components (disconnected)
//
// Note that generated names contain '/' — axis labels must therefore use
// explicit key=value segments (as workload.Source.Grid keys do).
func ParseTopology(spec string, n int, seed int64) (*Links, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: topology %q needs n > 0, got %d", spec, n)
	}
	name, arg, _ := strings.Cut(spec, "/")
	switch name {
	case "full":
		if arg != "" {
			return nil, fmt.Errorf("sim: topology full takes no argument, got %q", spec)
		}
		return nil, nil
	case "ring":
		if arg != "" {
			return nil, fmt.Errorf("sim: topology ring takes no argument, got %q", spec)
		}
		return Ring(n), nil
	case "torus":
		rows, cols := nearSquare(n)
		if arg != "" {
			rs, cs, ok := strings.Cut(arg, "x")
			if !ok {
				return nil, fmt.Errorf("sim: topology %q: want torus/RxC", spec)
			}
			var err1, err2 error
			rows, err1 = parseCount(rs)
			cols, err2 = parseCount(cs)
			if err1 != nil || err2 != nil || rows <= 0 || cols <= 0 {
				return nil, fmt.Errorf("sim: topology %q: bad dimensions", spec)
			}
			// Bound each factor before multiplying: rows·cols could
			// otherwise wrap around to n.
			if rows > n || cols > n {
				return nil, fmt.Errorf("sim: topology %q: dimension exceeds n=%d", spec, n)
			}
		}
		if n%rows != 0 || n/rows != cols {
			return nil, fmt.Errorf("sim: topology %q: %d×%d != n=%d", spec, rows, cols, n)
		}
		return Torus(rows, cols), nil
	case "regular":
		d, err := parseCount(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("sim: topology %q: want regular/D with D >= 0", spec)
		}
		if d > n-1 {
			return nil, fmt.Errorf("sim: topology %q: degree %d exceeds n-1=%d", spec, d, n-1)
		}
		return RandomRegular(n, d, seed), nil
	case "scalefree":
		m, err := parseCount(arg)
		if err != nil || m < 1 {
			return nil, fmt.Errorf("sim: topology %q: want scalefree/M with M >= 1", spec)
		}
		return ScaleFree(n, m, seed), nil
	case "islands":
		k, err := parseCount(arg)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("sim: topology %q: want islands/K with K >= 1", spec)
		}
		if k > n {
			return nil, fmt.Errorf("sim: topology %q: %d islands exceed n=%d", spec, k, n)
		}
		return Islands(n, k), nil
	default:
		return nil, fmt.Errorf("sim: unknown topology %q (want full, ring, torus[/RxC], regular/D, scalefree/M, islands/K)", spec)
	}
}

// parseCount parses a spec's decimal argument as an int64 and clamps it
// into the int range, so that a 32-bit platform accepts and rejects the
// same specs as a 64-bit one: every count is either bounded by the system
// size before use or, past it, means the same as any larger count.
func parseCount(s string) (int, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	return int(max(min(v, math.MaxInt), math.MinInt)), err
}
