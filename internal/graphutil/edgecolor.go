// Misra-Gries edge coloring. The stage scheduler partitions a CZ block
// into Rydberg stages by coloring the edges of the qubit interaction
// graph; Misra & Gries (1992) guarantees at most Delta+1 colors,
// keeping PowerMove's stage counts competitive with the baseline's
// iterated-MIS scheduling at a fraction of the cost.
package graphutil

import (
	"cmp"
	"fmt"
	"slices"
)

// edgeColorer carries the state of one Misra-Gries run. Edges are named
// by their index in the input; all state is flat arrays over edge and
// vertex indexes.
type edgeColorer struct {
	edges    [][2]int
	off, adj []int // the edges at v are adj[off[v]:off[v+1]], in input order
	k        int   // palette size: Delta+1
	at       []int // at[v*k+c] is the edge colored c at v, or -1
	col      []int // col[e] is edge e's color, or -1 while uncolored
	fan      []int // the current fan's edges; fan[0] is the edge being colored
	cand     []int // the edges that could still extend the current fan
}

// EdgeColoring colors the edges of the graph on vertices 0..n-1 with at
// most Delta+1 colors, Delta being its largest degree, so that edges
// sharing a vertex get distinct colors. It returns the color of each
// input edge, in input order. Edges are undirected and may be given in
// either orientation. It panics on a self-loop, an endpoint outside
// [0, n) or a repeated edge.
//
// This is the Misra-Gries procedure, which meets Vizing's bound
// constructively. Edges are colored in ascending (min, max) endpoint
// order, and each fan scans the edges of the lower endpoint in input
// order, so the input order of the edges is part of what decides the
// colors. Coloring one edge takes O(Delta^2 + n) time: up to Delta
// scans of Delta edges to build its fan, and an alternating path of at
// most n vertices to invert.
func EdgeColoring(n int, edges [][2]int) []int {
	ec := newEdgeColorer(n, edges)
	for _, e := range ec.order() {
		ec.colorEdge(e)
	}
	return ec.col
}

// newEdgeColorer checks the edges and builds the adjacency and the empty
// color tables.
func newEdgeColorer(n int, edges [][2]int) *edgeColorer {
	ec := &edgeColorer{edges: edges, off: make([]int, n+1), adj: make([]int, 2*len(edges))}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			panic(fmt.Sprintf("graphutil: self-loop on vertex %d", u))
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graphutil: edge (%d, %d) out of range for %d vertices", u, v, n))
		}
		ec.off[u+1]++
		ec.off[v+1]++
	}
	delta := 0
	for v := 0; v < n; v++ {
		delta = max(delta, ec.off[v+1])
		ec.off[v+1] += ec.off[v]
	}
	// Fill the rows in input order, advancing each row's start as its
	// cursor; afterwards off[v] holds the end of row v, so shift it back.
	for e, uv := range edges {
		for _, v := range uv {
			ec.adj[ec.off[v]] = e
			ec.off[v]++
		}
	}
	copy(ec.off[1:], ec.off[:n])
	ec.off[0] = 0
	ec.k = delta + 1
	// A fan and its candidates are edges at one vertex: Delta at most.
	ec.fan, ec.cand = make([]int, 0, delta), make([]int, 0, delta)
	ec.at = make([]int, n*ec.k)
	for i := range ec.at {
		ec.at[i] = -1
	}
	ec.col = make([]int, len(edges))
	for e := range ec.col {
		ec.col[e] = -1
	}
	return ec
}

// ends returns edge e's endpoints, lower first.
func (ec *edgeColorer) ends(e int) (lo, hi int) {
	u, v := ec.edges[e][0], ec.edges[e][1]
	return min(u, v), max(u, v)
}

// other returns the endpoint of edge e that is not v.
func (ec *edgeColorer) other(e, v int) int { return ec.edges[e][0] ^ ec.edges[e][1] ^ v }

// order returns the edges in ascending (min, max) endpoint order. Equal
// neighbors in that order are a repeated edge, which it rejects.
func (ec *edgeColorer) order() []int {
	ids := make([]int, len(ec.edges))
	for e := range ids {
		ids[e] = e
	}
	slices.SortFunc(ids, func(a, b int) int {
		alo, ahi := ec.ends(a)
		blo, bhi := ec.ends(b)
		return cmp.Or(cmp.Compare(alo, blo), cmp.Compare(ahi, bhi))
	})
	for i := 1; i < len(ids); i++ {
		plo, phi := ec.ends(ids[i-1])
		if lo, hi := ec.ends(ids[i]); lo == plo && hi == phi {
			panic(fmt.Sprintf("graphutil: repeated edge (%d, %d)", lo, hi))
		}
	}
	return ids
}

// set gives edge e color c, or uncolors it when c is -1, keeping both
// endpoints' rows of the color table in step.
func (ec *edgeColorer) set(e, c int) {
	u, v := ec.edges[e][0], ec.edges[e][1]
	if old := ec.col[e]; old >= 0 {
		ec.at[u*ec.k+old] = -1
		ec.at[v*ec.k+old] = -1
	}
	ec.col[e] = c
	if c >= 0 {
		ec.at[u*ec.k+c] = e
		ec.at[v*ec.k+c] = e
	}
}

// free reports whether color c is unused at v.
func (ec *edgeColorer) free(v, c int) bool { return ec.at[v*ec.k+c] < 0 }

// freeColor returns the smallest color unused at v.
func (ec *edgeColorer) freeColor(v int) int {
	for c, e := range ec.at[v*ec.k : (v+1)*ec.k] {
		if e < 0 {
			return c
		}
	}
	panic(fmt.Sprintf("graphutil: vertex %d has no free color among %d", v, ec.k))
}

// colorEdge colors the uncolored edge e0 by the Misra-Gries step: build a
// maximal fan of its lower endpoint u, invert the cd-path at u, and
// rotate a prefix of the fan.
func (ec *edgeColorer) colorEdge(e0 int) {
	u, _ := ec.ends(e0)
	fan := ec.maximalFan(u, e0)
	c := ec.freeColor(u)
	d := ec.freeColor(ec.other(fan[len(fan)-1], u))
	ec.invertPath(u, c, d)
	// After inversion d is free at u. Pick the shortest fan prefix that
	// is still a valid fan under the updated colors and whose end
	// vertex has d free; Misra & Gries prove such a prefix exists. A
	// prefix is a fan only if every shorter one is, so the scan stops
	// at the first fan edge whose color is no longer free at the
	// vertex before it.
	w := -1
	for i, e := range fan {
		if i > 0 {
			if cw := ec.col[e]; cw < 0 || !ec.free(ec.other(fan[i-1], u), cw) {
				break
			}
		}
		if ec.free(ec.other(e, u), d) {
			w = i
			break
		}
	}
	if w < 0 {
		lo, hi := ec.ends(e0)
		panic(fmt.Sprintf("graphutil: no rotatable fan prefix for edge (%d, %d)", lo, hi))
	}
	// Rotate: each fan edge takes the color of the next one, which is
	// free at its far end by the fan property; the last edge of the
	// prefix takes d.
	for i := 0; i < w; i++ {
		cw := ec.col[fan[i+1]]
		ec.set(fan[i+1], -1)
		ec.set(fan[i], cw)
	}
	ec.set(fan[w], d)
}

// maximalFan builds a maximal fan of u starting with the uncolored edge
// e0: a sequence of edges at u to distinct vertices x_0, x_1, ... where
// the edge to x_{i+1} is colored with a color free at x_i. Each step
// takes the first such edge in u's input order. Only colored edges not
// yet in the fan can extend it, and no color changes while the fan is
// built, so each step scans just those candidates.
func (ec *edgeColorer) maximalFan(u, e0 int) []int {
	cand := ec.cand[:0]
	for _, e := range ec.adj[ec.off[u]:ec.off[u+1]] {
		if ec.col[e] >= 0 {
			cand = append(cand, e)
		}
	}
	ec.cand = cand
	fan := append(ec.fan[:0], e0)
	for last := ec.other(e0, u); ; {
		j := 0
		for j < len(cand) && !ec.free(last, ec.col[cand[j]]) {
			j++
		}
		if j == len(cand) {
			break
		}
		e := cand[j]
		fan = append(fan, e)
		last = ec.other(e, u)
		if j == 0 { // the common case: every candidate fits, as in a star
			cand = cand[1:]
		} else {
			cand = append(cand[:j], cand[j+1:]...)
		}
	}
	ec.fan = fan
	return fan
}

// invertPath swaps colors c and d along the maximal path starting at u
// whose edges alternate between them (the first edge, if any, is colored
// d, because c is free at u). Each vertex on the path swaps its c and d
// entries of the color table, which flips the path edges at both ends;
// the walk reads a vertex's entry before swapping it.
func (ec *edgeColorer) invertPath(u, c, d int) {
	if c == d {
		return
	}
	x, along := u, d // along is the color of the path edge leaving x
	for steps := 0; ; steps++ {
		if steps > len(ec.col) {
			panic("graphutil: cd-path exceeds edge count; coloring state corrupted")
		}
		e := ec.at[x*ec.k+along]
		ec.at[x*ec.k+c], ec.at[x*ec.k+d] = ec.at[x*ec.k+d], ec.at[x*ec.k+c]
		if e < 0 {
			return
		}
		along = c + d - along // the other one of c and d
		ec.col[e] = along
		x = ec.other(e, x)
	}
}
