package graphutil

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func star(n int) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

func complete(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// colorGraph colors g's edges, given in sorted order.
func colorGraph(g *Graph) (edges [][2]int, col []int) {
	edges = g.Edges()
	return edges, EdgeColoring(g.N(), edges)
}

// maxColor returns the largest color used, or -1 for no edges.
func maxColor(col []int) int {
	if len(col) == 0 {
		return -1
	}
	return slices.Max(col)
}

// validEdgeColoring reports whether col gives each of the edges of the
// graph on n vertices a non-negative color distinct from the colors of
// every edge it shares a vertex with.
func validEdgeColoring(n int, edges [][2]int, col []int) bool {
	if len(col) != len(edges) {
		return false
	}
	seen := make([]map[int]bool, n)
	for i, e := range edges {
		if col[i] < 0 {
			return false
		}
		for _, v := range e {
			if seen[v] == nil {
				seen[v] = make(map[int]bool)
			}
			if seen[v][col[i]] {
				return false
			}
			seen[v][col[i]] = true
		}
	}
	return true
}

// maxDegree returns the largest vertex degree of the edge list.
func maxDegree(n int, edges [][2]int) int {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return slices.Max(append(deg, 0))
}

// TestEdgeColoringStructuredGraphs checks validity and the Vizing bound on
// the graph families that appear as interaction graphs in the benchmark
// suite: paths (VQE chains), stars (QFT blocks, BV), cycles, and cliques.
func TestEdgeColoringStructuredGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
	}{
		{"path10", path(10)},
		{"path2", path(2)},
		{"cycle5", cycle(5)},
		{"cycle6", cycle(6)},
		{"star8", star(8)},
		{"K4", complete(4)},
		{"K5", complete(5)},
		{"K7", complete(7)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			edges, col := colorGraph(tt.g)
			if !validEdgeColoring(tt.g.N(), edges, col) {
				t.Fatal("invalid edge coloring")
			}
			if got, bound := maxColor(col), tt.g.MaxDegree(); got > bound {
				t.Errorf("used color %d, Vizing bound is %d (Delta+1 colors)", got, bound)
			}
		})
	}
}

// TestEdgeColoringStarIsTight: stars are class-1 graphs where even greedy
// achieves Delta; Misra-Gries must not exceed it (Delta colors = indices
// 0..Delta-1).
func TestEdgeColoringStarIsTight(t *testing.T) {
	g := star(9)
	edges, col := colorGraph(g)
	if !validEdgeColoring(g.N(), edges, col) {
		t.Fatal("invalid coloring")
	}
	if got := maxColor(col); got != g.MaxDegree()-1 {
		t.Errorf("star used max color %d, want %d", got, g.MaxDegree()-1)
	}
}

func TestEdgeColoringEmptyAndSingle(t *testing.T) {
	if col := EdgeColoring(5, nil); len(col) != 0 {
		t.Errorf("empty graph colored %d edges", len(col))
	}
	if col := EdgeColoring(0, nil); len(col) != 0 {
		t.Errorf("graph without vertices colored %d edges", len(col))
	}
	col := EdgeColoring(2, [][2]int{{1, 0}})
	if len(col) != 1 || col[0] != 0 {
		t.Errorf("single edge coloring = %v", col)
	}
}

// TestEdgeColoringPanics: a self-loop, an endpoint out of range and a
// repeated edge, in either orientation, are rejected.
func TestEdgeColoringPanics(t *testing.T) {
	for _, edges := range [][][2]int{
		{{1, 1}},
		{{0, 3}},
		{{-1, 0}},
		{{0, 1}, {1, 2}, {0, 1}},
		{{0, 1}, {1, 2}, {1, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EdgeColoring(3, %v) did not panic", edges)
				}
			}()
			EdgeColoring(3, edges)
		}()
	}
}

// TestEdgeColoringRandom is the main correctness property: on arbitrary
// random graphs the coloring is proper and within Delta+1 colors.
func TestEdgeColoringRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(40)
		p := rng.Float64()
		g := RandomGNP(n, p, rng)
		edges, col := colorGraph(g)
		if !validEdgeColoring(n, edges, col) {
			t.Fatalf("trial %d: invalid coloring n=%d p=%.2f edges=%d", trial, n, p, g.EdgeCount())
		}
		if c := maxColor(col); c > g.MaxDegree() {
			t.Fatalf("trial %d: color %d exceeds Delta+1 = %d", trial, c, g.MaxDegree()+1)
		}
	}
}

// TestEdgeColoringQuick drives the same invariant through testing/quick.
func TestEdgeColoringQuick(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8) bool {
		n := 2 + int(nRaw%25)
		p := float64(pRaw) / 255
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(n, p, rng)
		edges, col := colorGraph(g)
		return validEdgeColoring(n, edges, col) && maxColor(col) <= g.MaxDegree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidEdgeColoringRejects(t *testing.T) {
	edges := path(3).Edges() // edges (0,1), (1,2) share vertex 1
	if validEdgeColoring(3, edges, []int{0, 0}) {
		t.Error("adjacent edges with equal colors accepted")
	}
	if validEdgeColoring(3, edges, []int{0}) {
		t.Error("missing edge accepted")
	}
	if validEdgeColoring(3, edges, []int{0, -1}) {
		t.Error("negative color accepted")
	}
	if !validEdgeColoring(3, edges, []int{0, 1}) {
		t.Error("proper coloring rejected")
	}
}

// TestEdgeColoringRegularGraphs exercises the benchmark-relevant case of
// random 3- and 4-regular interaction graphs.
func TestEdgeColoringRegularGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{3, 4} {
		for _, n := range []int{10, 20, 30, 50} {
			if n*d%2 != 0 {
				continue
			}
			g := RandomRegular(n, d, rng)
			edges, col := colorGraph(g)
			if !validEdgeColoring(n, edges, col) {
				t.Fatalf("d=%d n=%d: invalid coloring", d, n)
			}
			if c := maxColor(col); c > d {
				t.Errorf("d=%d n=%d: used %d colors, Vizing bound %d", d, n, c+1, d+1)
			}
		}
	}
}

// FuzzEdgeColoring decodes a graph of at most 24 vertices from bytes: the
// first byte picks the vertex count and each following pair of bytes an
// edge, in that orientation and order (pairs naming one vertex twice, or
// an edge already taken, are dropped). The coloring must be proper, use
// at most Delta+1 colors and equal the frozen map-based colorer's. The
// committed seed corpus (testdata/fuzz/FuzzEdgeColoring) holds a star, a
// path, K5 and the Petersen graph (both need Delta+1 colors), and the
// three-edge star (1,2), (0,1), (1,3), whose last edge is colored only
// after inverting the path of colors 1 and 2 at vertex 1.
func FuzzEdgeColoring(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		var edges [][2]int
		taken := make(map[[2]int]bool)
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v || taken[[2]int{min(u, v), max(u, v)}] {
				continue
			}
			taken[[2]int{min(u, v), max(u, v)}] = true
			edges = append(edges, [2]int{u, v})
		}
		col := EdgeColoring(n, edges)
		if !validEdgeColoring(n, edges, col) {
			t.Fatalf("invalid coloring %v of %v", col, edges)
		}
		if c, delta := maxColor(col), maxDegree(n, edges); c > delta {
			t.Fatalf("color %d exceeds Delta+1 = %d on %v", c, delta+1, edges)
		}
		if ref := RefEdgeColoring(n, edges); !slices.Equal(col, ref) {
			t.Fatalf("coloring %v, frozen reference %v, of %v", col, ref, edges)
		}
	})
}
