package graphutil

import (
	"math/bits"
	"math/rand"
	"testing"
)

// bruteMatching returns the size of a maximum matching of a graph of at
// most 16 vertices by exhaustive search over vertex subsets: the lowest
// vertex of a subset either stays unmatched or is matched to each of its
// neighbors in the subset.
func bruteMatching(n int, edges [][2]int) int {
	adj := make([]uint32, n)
	for _, e := range edges {
		adj[e[0]] |= 1 << e[1]
		adj[e[1]] |= 1 << e[0]
	}
	memo := make([]int, 1<<n)
	for i := range memo {
		memo[i] = -1
	}
	var best func(set uint32) int
	best = func(set uint32) int {
		if set == 0 {
			return 0
		}
		if memo[set] >= 0 {
			return memo[set]
		}
		v := bits.TrailingZeros32(set)
		rest := set &^ (1 << v)
		size := best(rest)
		for nb := adj[v] & rest; nb != 0; nb &= nb - 1 {
			size = max(size, 1+best(rest&^(1<<bits.TrailingZeros32(nb))))
		}
		memo[set] = size
		return size
	}
	return best(1<<n - 1)
}

// checkMatching runs m on the graph and fails unless the size it reports
// is the brute-force maximum and its mates form a matching of that size
// over the graph's edges.
func checkMatching(t *testing.T, m *Matcher, label string, n int, edges [][2]int) {
	t.Helper()
	got := m.MaxMatching(n, edges)
	if want := bruteMatching(n, edges); got != want {
		t.Fatalf("%s: MaxMatching = %d, brute force = %d (n=%d, edges %v)", label, got, want, n, edges)
	}
	isEdge := make(map[[2]int]bool, 2*len(edges))
	for _, e := range edges {
		isEdge[e] = true
		isEdge[[2]int{e[1], e[0]}] = true
	}
	matched := 0
	for v := 0; v < n; v++ {
		u := m.mate[v]
		if u < 0 {
			continue
		}
		if m.mate[u] != v || !isEdge[[2]int{v, u}] {
			t.Fatalf("%s: mate[%d] = %d is not a matched edge (n=%d, edges %v)", label, v, u, n, edges)
		}
		matched++
	}
	if matched != 2*got {
		t.Fatalf("%s: mates cover %d vertices, want %d", label, matched, 2*got)
	}
}

// TestMaxMatchingBlossoms pins the matcher on graphs whose maximum
// matching needs blossom contraction.
func TestMaxMatchingBlossoms(t *testing.T) {
	petersen := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, // outer cycle
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, // spokes
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}, // inner pentagram
	}
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		want  int
	}{
		{"C5", 5, cycle(5).Edges(), 2},
		{"C7", 7, cycle(7).Edges(), 3},
		{"two triangles joined by an edge", 6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}}, 3},
		{"Petersen", 10, petersen, 5},
		// The greedy start takes the first six edges, leaving 0 and 13
		// free. The augmenting path 0-1=2-6=5-4=3-7=8-9=10-11=12-13
		// enters the blossom 2-3-4-5-6 at its base and leaves it at 3,
		// then enters the blossom 7-8-9-10-11 at 7 and leaves it at its
		// base. Searched from either end, it leaves a blossom at a
		// vertex the search first labels odd, and only contracting that
		// blossom makes the vertex even.
		{"augmenting path through contracted blossoms", 14, [][2]int{
			{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12},
			{0, 1}, {2, 3}, {4, 5}, {6, 2}, {3, 7}, {8, 9}, {10, 11}, {11, 7}, {12, 13},
		}, 7},
		{"empty", 3, nil, 0},
		{"no vertices", 0, nil, 0},
	}
	var m Matcher
	for _, tc := range cases {
		if got := m.MaxMatching(tc.n, tc.edges); got != tc.want {
			t.Errorf("%s: MaxMatching = %d, want %d", tc.name, got, tc.want)
		}
		checkMatching(t, &m, tc.name, tc.n, tc.edges)
	}
}

// TestMaxMatchingAgreesWithBruteForce compares the matcher with an
// exhaustive search on random graphs of up to 10 vertices, with parallel
// edges mixed in. One Matcher serves every graph, so scratch left by a
// larger graph must not leak into a smaller one.
func TestMaxMatchingAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var m Matcher
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(10)
		p := rng.Float64()
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		if len(edges) > 0 && rng.Intn(4) == 0 {
			e := edges[rng.Intn(len(edges))]
			edges = append(edges, [2]int{e[1], e[0]})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		checkMatching(t, &m, "random", n, edges)
	}
}

func TestMaxMatchingPanics(t *testing.T) {
	for _, e := range [][2]int{{1, 1}, {0, 3}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaxMatching with edge %v did not panic", e)
				}
			}()
			new(Matcher).MaxMatching(3, [][2]int{e})
		}()
	}
}

// FuzzMaxMatching checks the matcher against brute force on graphs of up
// to 16 vertices decoded from bytes: the first byte picks the vertex
// count and each following pair of bytes an edge (pairs naming one
// vertex twice are dropped). The committed seed corpus
// (testdata/fuzz/FuzzMaxMatching) holds C5, two triangles joined by an
// edge, the Petersen graph and the augmenting path through contracted
// blossoms.
func FuzzMaxMatching(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%16
		var edges [][2]int
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		var m Matcher
		checkMatching(t, &m, "fuzz", n, edges)
		// A second graph on the same Matcher must not see the first's
		// scratch.
		checkMatching(t, &m, "fuzz, reused", n, edges[:len(edges)/2])
	})
}
