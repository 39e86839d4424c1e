package graphutil_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"powermove/internal/experiments"
	"powermove/internal/graphutil"
)

// suiteSpecs returns every instance of Table 3, the Fig. 6 panels and
// Fig. 7 once, plus QAOA-random-100, the largest block BenchmarkPartition
// times.
func suiteSpecs() []experiments.Spec {
	specs := experiments.Table2Specs()
	for _, f := range experiments.Figure6Families() {
		for _, n := range experiments.Figure6Sizes(f) {
			specs = append(specs, experiments.Spec{Family: f, Qubits: n})
		}
	}
	specs = append(specs, experiments.Figure7Specs()...)
	specs = append(specs, experiments.Spec{Family: experiments.QAOARandom, Qubits: 100})
	slices.SortFunc(specs, func(a, b experiments.Spec) int {
		return cmp.Or(cmp.Compare(a.Family, b.Family), cmp.Compare(a.Qubits, b.Qubits))
	})
	return slices.Compact(specs)
}

// TestEdgeColoringMatchesReference pins the flat colorer to the frozen
// map-based one, color for color: on 10,000 random graphs of 2-25
// vertices with their edges in random order and orientation, and on
// every block of every evaluated instance, its edges in gate order as
// stage.Partition passes them.
func TestEdgeColoringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10000; trial++ {
		n := 2 + rng.Intn(24)
		p := rng.Float64()
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i := range edges {
			if rng.Intn(2) == 0 {
				edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
			}
		}
		got, want := graphutil.EdgeColoring(n, edges), graphutil.RefEdgeColoring(n, edges)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: coloring %v, frozen reference %v, of %d-vertex %v", trial, got, want, n, edges)
		}
	}
	blocks := 0
	for _, spec := range suiteSpecs() {
		circ, err := spec.Circuit()
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range circ.Blocks {
			edges := make([][2]int, len(b.Gates))
			for i, g := range b.Gates {
				edges[i] = [2]int{g.A, g.B}
			}
			got, want := graphutil.EdgeColoring(circ.Qubits, edges), graphutil.RefEdgeColoring(circ.Qubits, edges)
			if !slices.Equal(got, want) {
				t.Fatalf("%s block %d: coloring differs from the frozen reference\n got %v\nwant %v", spec, bi, got, want)
			}
			blocks++
		}
	}
	t.Logf("%d suite blocks match", blocks)
}
