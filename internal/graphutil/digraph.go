// Package graphutil provides the small set of generic directed-graph
// algorithms the ABC reproduction is built on: an edge-list digraph with
// parallel edges, Bellman–Ford shortest paths with negative-cycle
// extraction (the engine behind the difference-constraint ABC checker of
// internal/check), and DOT export for debugging space–time diagrams.
package graphutil

import "fmt"

// Edge is a weighted, labelled edge in a Digraph. Label is caller-defined
// and is preserved verbatim; internal/check uses it to map constraint edges
// back to messages and local edges of the execution graph.
type Edge struct {
	From, To int
	Weight   int64
	Label    int32
}

// Digraph is a directed multigraph over nodes 0..n-1 with int64 edge
// weights. Parallel edges and self-loops are allowed. The zero value is an
// empty graph with no nodes; use New to create a graph with nodes.
//
// A Digraph is not safe for concurrent use: BellmanFord caches its
// edge layout inside the graph on first use (SetWeight keeps the cache;
// AddEdge invalidates it).
type Digraph struct {
	n     int
	edges []Edge
	// plan is the cached Bellman–Ford edge layout; nil until first use,
	// reset by topology changes.
	plan *bfPlan
}

// New returns a digraph with n nodes and no edges.
// It panics if n is negative.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graphutil: negative node count %d", n))
	}
	return &Digraph{n: n}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// AddEdge appends an edge from -> to with the given weight and label.
// It panics if either endpoint is out of range.
func (g *Digraph) AddEdge(from, to int, weight int64, label int32) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graphutil: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Weight: weight, Label: label})
	g.plan = nil
}

// Edges returns the edge list. The caller must not modify the result.
func (g *Digraph) Edges() []Edge { return g.edges }

// SetWeight updates the weight of edge i (in insertion order). It allows
// callers that probe the same topology under many weightings — like the
// critical-ratio search — to reuse one graph instead of rebuilding it per
// probe.
func (g *Digraph) SetWeight(i int, weight int64) { g.edges[i].Weight = weight }
