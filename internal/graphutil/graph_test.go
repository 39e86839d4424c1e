package graphutil

import (
	"math/rand"
	"testing"
)

func TestAddEdgeAndQueries(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate collapses
	if got := g.EdgeCount(); got != 2 {
		t.Errorf("EdgeCount = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge must be orientation-independent")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 9) || g.HasEdge(-1, 0) {
		t.Error("HasEdge reports phantom edges")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("Degree wrong")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(3)
	for _, e := range [][2]int{{1, 1}, {0, 3}, {-1, 0}} {
		e := e
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d, %d) did not panic", e[0], e[1])
				}
			}()
			g.AddEdge(e[0], e[1])
		}()
	}
}

func TestNewGraphPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGraph(-1) did not panic")
		}
	}()
	NewGraph(-1)
}

func TestEdgesSortedAndNormalized(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(4, 0)
	g.AddEdge(2, 1)
	g.AddEdge(3, 2)
	edges := g.Edges()
	want := [][2]int{{0, 4}, {1, 2}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

// TestMISIndependentAndMaximal: every extracted set is independent, and no
// unremoved vertex outside the set could be added (maximality).
func TestMISIndependentAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(25)
		g := RandomGNP(n, rng.Float64(), rng)
		removed := make([]bool, n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.3 {
				removed[v] = true
			}
		}
		mis := g.MaximalIndependentSet(removed)
		if !g.IsIndependent(mis) {
			t.Fatalf("trial %d: set %v not independent", trial, mis)
		}
		in := make(map[int]bool)
		for _, v := range mis {
			if removed[v] {
				t.Fatalf("trial %d: removed vertex %d in set", trial, v)
			}
			in[v] = true
		}
		for v := 0; v < n; v++ {
			if removed[v] || in[v] {
				continue
			}
			conflict := false
			for _, u := range g.Adjacent(v) {
				if in[u] {
					conflict = true
					break
				}
			}
			if !conflict {
				t.Fatalf("trial %d: vertex %d could extend the set — not maximal", trial, v)
			}
		}
	}
}

func TestMISPanicsOnBadMask(t *testing.T) {
	g := NewGraph(3)
	defer func() {
		if recover() == nil {
			t.Fatal("MaximalIndependentSet with short mask did not panic")
		}
	}()
	g.MaximalIndependentSet(make([]bool, 2))
}

func TestIsIndependent(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if !g.IsIndependent([]int{0, 2}) {
		t.Error("independent set rejected")
	}
	if g.IsIndependent([]int{0, 1}) {
		t.Error("edge endpoints accepted as independent")
	}
	if !g.IsIndependent(nil) {
		t.Error("empty set must be independent")
	}
}
