package cycles

import (
	"repro/internal/causality"
)

// Enumerate lists every simple cycle of the undirected shadow graph of g,
// each exactly once (up to rotation and reversal), stopping after limit
// cycles. The second return value is false when the limit truncated the
// enumeration. Cycle counts grow exponentially with graph size, so this is
// a ground-truth oracle for small graphs and figure scenarios; the scalable
// admissibility checker lives in internal/check.
func Enumerate(g *causality.Graph, limit int) ([]Cycle, bool) {
	e := &enumerator{g: g, limit: limit}
	e.buildAdjacency()
	for v := 0; v < g.NumNodes(); v++ {
		if !e.dfsFrom(causality.NodeID(v)) {
			return e.found, false
		}
	}
	return e.found, true
}

// halfEdge is an undirected view of one execution-graph edge as seen from
// one endpoint.
type halfEdge struct {
	edge causality.EdgeID
	to   causality.NodeID
	// forward is true when leaving this endpoint follows the edge's
	// direction.
	forward bool
}

type enumerator struct {
	g     *causality.Graph
	limit int
	adj   [][]halfEdge
	found []Cycle

	// DFS state.
	root    causality.NodeID
	inPath  []bool
	path    []Step
	usedEdg map[causality.EdgeID]bool
}

func (e *enumerator) buildAdjacency() {
	n := e.g.NumNodes()
	e.adj = make([][]halfEdge, n)
	for i, edge := range e.g.Edges() {
		id := causality.EdgeID(i)
		e.adj[edge.From] = append(e.adj[edge.From], halfEdge{edge: id, to: edge.To, forward: true})
		e.adj[edge.To] = append(e.adj[edge.To], halfEdge{edge: id, to: edge.From, forward: false})
	}
	e.inPath = make([]bool, n)
	e.usedEdg = make(map[causality.EdgeID]bool)
}

// dfsFrom enumerates all simple cycles whose minimum vertex is root.
// Intermediate vertices must exceed root; the duplicate traversal direction
// is suppressed by requiring the first step's edge ID to be smaller than
// the closing step's edge ID. It returns false when the limit was hit.
func (e *enumerator) dfsFrom(root causality.NodeID) bool {
	e.root = root
	e.inPath[root] = true
	ok := e.extend(root)
	e.inPath[root] = false
	return ok
}

func (e *enumerator) extend(v causality.NodeID) bool {
	for _, he := range e.adj[v] {
		if e.usedEdg[he.edge] {
			continue
		}
		step := Step{Edge: he.edge, Forward: he.forward}
		if he.to == e.root {
			// Closing edge: record the cycle if this direction is the
			// canonical one (first edge ID < closing edge ID) and the
			// cycle has >= 2 edges.
			if len(e.path) >= 1 && e.path[0].Edge < he.edge {
				steps := make([]Step, len(e.path)+1)
				copy(steps, e.path)
				steps[len(e.path)] = step
				e.found = append(e.found, Cycle{g: e.g, steps: steps})
				if e.limit > 0 && len(e.found) >= e.limit {
					return false
				}
			}
			continue
		}
		if he.to < e.root || e.inPath[he.to] {
			continue
		}
		e.inPath[he.to] = true
		e.usedEdg[he.edge] = true
		e.path = append(e.path, step)
		ok := e.extend(he.to)
		e.path = e.path[:len(e.path)-1]
		e.usedEdg[he.edge] = false
		e.inPath[he.to] = false
		if !ok {
			return false
		}
	}
	return true
}
