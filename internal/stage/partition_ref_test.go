package stage

import (
	"fmt"

	"powermove/internal/bitset"
	"powermove/internal/circuit"
	"powermove/internal/graphutil"
)

// This file freezes Partition, matchingPartition and compact as they were
// before the colorer moved to flat arrays, verbatim but for their names
// and for where the coloring comes from: refColoring puts
// graphutil.EdgeColoring's colors in the map the map-based colorer
// returned. TestEdgeColoringMatchesReference (internal/graphutil) pins
// those colors to the frozen map-based colorer, so together with
// TestPartitionMatchesReference the stages are pinned to the old code.

// RefPartition is refPartition, exported for the external test package,
// which reaches the suite's blocks through internal/experiments.
var RefPartition = refPartition

// refColoring returns the gates' colors keyed by normalized edge.
func refColoring(gates []circuit.CZ) map[[2]int]int {
	edges := make([][2]int, len(gates))
	maxQ := 0
	for i, g := range gates {
		edges[i] = [2]int{g.A, g.B}
		maxQ = max(maxQ, g.B)
	}
	coloring := make(map[[2]int]int, len(gates))
	for i, c := range graphutil.EdgeColoring(maxQ+1, edges) {
		coloring[edges[i]] = c
	}
	return coloring
}

// refPartition splits the commutable gates of one CZ block into stages: the
// optimized edge coloring of Sec. 4.1. Gates are edges of the qubit
// interaction graph, and a proper edge coloring is exactly a partition
// into stages of qubit-disjoint gates; the Misra-Gries procedure bounds
// the stage count by MaxDegree+1 (Vizing's bound) in O(V*E) time. A
// linear compaction pass then retries gates of the later, smaller stages
// against the earlier ones, absorbing stages the coloring fragmented.
// Together these keep stage counts competitive with the baseline's far
// more expensive iterated-MIS scheduling while preserving the near-linear
// compilation cost the paper claims.
//
// The gates of one block must be distinct (circuit.Validate enforces
// this); Partition panics on duplicates, which could not be scheduled
// into disjoint stages of the same block anyway.
func refPartition(gates []circuit.CZ) []Stage {
	if len(gates) == 0 {
		return nil
	}
	maxQ := 0
	for _, gate := range gates {
		if gate.B > maxQ {
			maxQ = gate.B
		}
	}
	g := graphutil.NewGraph(maxQ + 1)
	for _, gate := range gates {
		if g.HasEdge(gate.A, gate.B) {
			panic(fmt.Sprintf("stage: duplicate gate %v in one block", gate))
		}
		g.AddEdge(gate.A, gate.B)
	}
	coloring := refColoring(gates)
	byColor := make(map[int][]circuit.CZ)
	maxColor := 0
	for _, gate := range gates {
		c := coloring[[2]int{gate.A, gate.B}]
		byColor[c] = append(byColor[c], gate)
		if c > maxColor {
			maxColor = c
		}
	}
	stages := make([]Stage, 0, maxColor+1)
	for c := 0; c <= maxColor; c++ {
		if len(byColor[c]) > 0 {
			stages = append(stages, Stage{Gates: byColor[c]})
		}
	}
	stages = refCompact(stages)

	// Misra-Gries attains Vizing's Delta+1 bound but can miss the
	// optimum Delta on class-1 graphs (a 30-qubit VQE chain is a path:
	// chromatic index 2, Misra-Gries may use 3). Iterated greedy
	// matching exploits exactly such structure. Both run in near-linear
	// time; keep whichever partition uses fewer Rydberg stages.
	if alt := refMatchingPartition(gates); len(alt) < len(stages) {
		return alt
	}
	return stages
}

// refMatchingPartition repeatedly extracts a maximal matching from the
// remaining gates, scanning them in input order. Each matching is one
// stage.
func refMatchingPartition(gates []circuit.CZ) []Stage {
	maxQ := Stage{Gates: gates}.maxQubit()
	used := bitset.New(maxQ + 1)
	remaining := gates
	var stages []Stage
	for len(remaining) > 0 {
		used.Reset(maxQ + 1)
		var cur, rest []circuit.CZ
		for _, g := range remaining {
			if used.Contains(g.A) || used.Contains(g.B) {
				rest = append(rest, g)
				continue
			}
			used.Add(g.A)
			used.Add(g.B)
			cur = append(cur, g)
		}
		stages = append(stages, Stage{Gates: cur})
		remaining = rest
	}
	return stages
}

// refCompact greedily re-homes gates from the last stages into the earliest
// stage whose qubit set they do not intersect, dropping stages that empty
// out. One pass suffices: a gate that cannot move earlier now will not be
// unblocked by removing gates from strictly later stages.
func refCompact(stages []Stage) []Stage {
	maxQ := -1
	for _, s := range stages {
		if m := s.maxQubit(); m > maxQ {
			maxQ = m
		}
	}
	sets := make([]*bitset.Set, len(stages))
	for i, s := range stages {
		sets[i] = bitset.New(maxQ + 1)
		s.qubitBits(sets[i])
	}
	for i := len(stages) - 1; i > 0; i-- {
		var kept []circuit.CZ
		for _, gate := range stages[i].Gates {
			placed := false
			for j := 0; j < i; j++ {
				if !sets[j].Contains(gate.A) && !sets[j].Contains(gate.B) {
					stages[j].Gates = append(stages[j].Gates, gate)
					sets[j].Add(gate.A)
					sets[j].Add(gate.B)
					sets[i].Remove(gate.A)
					sets[i].Remove(gate.B)
					placed = true
					break
				}
			}
			if !placed {
				kept = append(kept, gate)
			}
		}
		stages[i].Gates = kept
	}
	out := stages[:0]
	for _, s := range stages {
		if len(s.Gates) > 0 {
			out = append(out, s)
		}
	}
	return out
}
