package graphutil

import "fmt"

// This file freezes the map-based Misra-Gries colorer that EdgeColoring
// replaced, verbatim but for its names. EdgeColoring must make exactly
// its decisions: TestEdgeColoringMatchesReference and FuzzEdgeColoring
// compare the two color for color.

// RefEdgeColoring runs the frozen colorer on the graph whose edges are
// added in input order, and returns the color of each input edge. It is
// exported for the external test package, which reaches the suite's
// blocks through internal/experiments.
func RefEdgeColoring(n int, edges [][2]int) []int {
	g := NewGraph(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	coloring := g.refEdgeColoring()
	out := make([]int, len(edges))
	for i, e := range edges {
		out[i] = coloring[normEdge(e[0], e[1])]
	}
	return out
}

// refEdgeColorer carries the mutable state of one Misra-Gries run.
type refEdgeColorer struct {
	g      *Graph
	colors int     // palette size: maxDegree + 1
	at     [][]int // at[v][c] = neighbor joined to v by color c, or -1
	color  map[[2]int]int
}

// refEdgeColoring colors the edges of g with at most MaxDegree()+1 colors so
// that edges sharing a vertex receive distinct colors. It returns a map
// from normalized edge (u < v) to color. The classic bound chi' <= Delta+1
// (Vizing) is achieved constructively by the Misra-Gries procedure.
func (g *Graph) refEdgeColoring() map[[2]int]int {
	ec := &refEdgeColorer{
		g:      g,
		colors: g.MaxDegree() + 1,
		at:     make([][]int, g.N()),
		color:  make(map[[2]int]int, g.EdgeCount()),
	}
	for v := range ec.at {
		ec.at[v] = make([]int, ec.colors)
		for c := range ec.at[v] {
			ec.at[v][c] = -1
		}
	}
	for _, e := range g.Edges() {
		ec.colorEdge(e[0], e[1])
	}
	return ec.color
}

func normEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (ec *refEdgeColorer) getColor(u, v int) int {
	if c, ok := ec.color[normEdge(u, v)]; ok {
		return c
	}
	return -1
}

func (ec *refEdgeColorer) setColor(u, v, c int) {
	if old := ec.getColor(u, v); old >= 0 {
		ec.at[u][old] = -1
		ec.at[v][old] = -1
	}
	ec.color[normEdge(u, v)] = c
	ec.at[u][c] = v
	ec.at[v][c] = u
}

// freeColor returns the smallest color unused at v.
func (ec *refEdgeColorer) freeColor(v int) int {
	for c := 0; c < ec.colors; c++ {
		if ec.at[v][c] < 0 {
			return c
		}
	}
	panic(fmt.Sprintf("graphutil: vertex %d has no free color among %d", v, ec.colors))
}

func (ec *refEdgeColorer) isFree(v, c int) bool { return ec.at[v][c] < 0 }

// colorEdge colors the uncolored edge (u, v) by the Misra-Gries step:
// build a maximal fan of u from v, invert the cd-path at u, and rotate a
// prefix of the fan.
func (ec *refEdgeColorer) colorEdge(u, v int) {
	fan := ec.maximalFan(u, v)
	c := ec.freeColor(u)
	d := ec.freeColor(fan[len(fan)-1])
	ec.invertPath(u, c, d)
	// After inversion d is free at u. Pick the shortest fan prefix that
	// is still a valid fan under the updated colors and whose end
	// vertex has d free; Misra & Gries prove such a prefix exists.
	w := -1
	for i := range fan {
		if ec.isFree(fan[i], d) && ec.isFan(u, fan[:i+1]) {
			w = i
			break
		}
	}
	if w < 0 {
		panic(fmt.Sprintf("graphutil: no rotatable fan prefix for edge (%d, %d)", u, v))
	}
	ec.rotateFan(u, fan[:w+1])
	ec.setColor(u, fan[w], d)
}

// isFan reports whether the sequence is a valid fan of u under the current
// coloring: every edge (u, fan[i+1]) is colored with a color free at
// fan[i]. fan[0]'s edge is the uncolored edge being processed.
func (ec *refEdgeColorer) isFan(u int, fan []int) bool {
	for i := 0; i+1 < len(fan); i++ {
		cw := ec.getColor(u, fan[i+1])
		if cw < 0 || !ec.isFree(fan[i], cw) {
			return false
		}
	}
	return true
}

// maximalFan builds a maximal fan of u starting at v: a sequence of
// distinct neighbors x_0 = v, x_1, ... where the edge (u, x_{i+1}) is
// colored with a color free at x_i.
func (ec *refEdgeColorer) maximalFan(u, v int) []int {
	fan := []int{v}
	used := map[int]bool{v: true}
	for {
		last := fan[len(fan)-1]
		extended := false
		for _, w := range ec.g.Adjacent(u) {
			if used[w] {
				continue
			}
			cw := ec.getColor(u, w)
			if cw >= 0 && ec.isFree(last, cw) {
				fan = append(fan, w)
				used[w] = true
				extended = true
				break
			}
		}
		if !extended {
			return fan
		}
	}
}

// invertPath swaps colors c and d along the maximal path starting at u
// whose edges alternate between them (the first edge, if any, is colored
// d, because c is free at u). The path is collected first and re-colored
// afterwards: flipping in place would transiently corrupt the per-vertex
// color table that the walk itself reads.
func (ec *refEdgeColorer) invertPath(u, c, d int) {
	if c == d {
		return
	}
	type pathEdge struct{ a, b, col int }
	var path []pathEdge
	prev, cur, col := u, ec.at[u][d], d
	for cur >= 0 {
		if len(path) > ec.g.EdgeCount() {
			panic("graphutil: cd-path exceeds edge count; coloring state corrupted")
		}
		path = append(path, pathEdge{a: prev, b: cur, col: col})
		nextCol := opposite(col, c, d)
		next := ec.at[cur][nextCol]
		prev, cur, col = cur, next, nextCol
	}
	for _, e := range path {
		ec.clearColor(e.a, e.b)
	}
	for _, e := range path {
		ec.setColor(e.a, e.b, opposite(e.col, c, d))
	}
}

// clearColor removes the color of edge (u, v) from both the edge map and
// the per-vertex tables.
func (ec *refEdgeColorer) clearColor(u, v int) {
	if old := ec.getColor(u, v); old >= 0 {
		ec.at[u][old] = -1
		ec.at[v][old] = -1
		delete(ec.color, normEdge(u, v))
	}
}

func opposite(x, c, d int) int {
	if x == c {
		return d
	}
	return c
}

// rotateFan shifts the colors of the fan edges down: edge (u, fan[i])
// takes the color of edge (u, fan[i+1]); the final fan edge is left for
// the caller to color. Colors are captured before any mutation — shifting
// in place would clear entries of the per-vertex table that later shifts
// still need.
func (ec *refEdgeColorer) rotateFan(u int, fan []int) {
	shifted := make([]int, 0, len(fan)-1)
	for i := 0; i+1 < len(fan); i++ {
		shifted = append(shifted, ec.getColor(u, fan[i+1]))
	}
	for i := 1; i < len(fan); i++ {
		ec.clearColor(u, fan[i])
	}
	for i, c := range shifted {
		ec.setColor(u, fan[i], c)
	}
}
