// Package stage implements the Stage Scheduler (Sec. 4 of the paper): it
// partitions each commutable CZ block into Rydberg stages of disjoint
// gates (a Misra-Gries edge coloring of the block's interaction graph,
// compacted, or iterated greedy matching where that needs fewer stages),
// and orders the stages to minimize qubit interchange between the
// computation and storage zones.
package stage

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"powermove/internal/bitset"
	"powermove/internal/circuit"
	"powermove/internal/graphutil"
)

// Stage is one Rydberg stage: a set of CZ gates on pairwise-disjoint
// qubits, executable under a single global Rydberg pulse.
type Stage struct {
	Gates []circuit.CZ
}

// Qubits returns the sorted, deduplicated set of interacting qubits of the
// stage. For a well-formed (disjoint) stage no qubit repeats and the
// result has exactly 2*len(Gates) entries; for an arbitrary gate list the
// duplicates are removed, so the result is a set either way.
func (s Stage) Qubits() []int {
	out := make([]int, 0, 2*len(s.Gates))
	for _, g := range s.Gates {
		out = append(out, g.A, g.B)
	}
	sort.Ints(out)
	return slices.Compact(out)
}

// QubitSet returns the interacting qubits of the stage as a set.
func (s Stage) QubitSet() map[int]bool {
	set := make(map[int]bool, 2*len(s.Gates))
	for _, g := range s.Gates {
		set[g.A] = true
		set[g.B] = true
	}
	return set
}

// maxQubit returns the largest qubit index of the stage, or -1 for an
// empty stage. CZ normalizes A < B, so only B values need scanning.
func (s Stage) maxQubit() int {
	max := -1
	for _, g := range s.Gates {
		if g.B > max {
			max = g.B
		}
	}
	return max
}

// qubitBits fills set (sized for at least maxQubit+1) with the stage's
// interacting qubits.
func (s Stage) qubitBits(set *bitset.Set) {
	for _, g := range s.Gates {
		set.Add(g.A)
		set.Add(g.B)
	}
}

// disjointPool recycles the scratch bitset of Disjoint, which the router
// calls once per Rydberg stage.
var disjointPool = sync.Pool{New: func() any { return new(bitset.Set) }}

// Disjoint reports whether the stage's gates act on pairwise-disjoint
// qubits, the defining property of a stage.
func (s Stage) Disjoint() bool {
	if len(s.Gates) == 0 {
		return true
	}
	seen := disjointPool.Get().(*bitset.Set)
	defer disjointPool.Put(seen)
	seen.Reset(s.maxQubit() + 1)
	for _, g := range s.Gates {
		if seen.Contains(g.A) || seen.Contains(g.B) {
			return false
		}
		seen.Add(g.A)
		seen.Add(g.B)
	}
	return true
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	return fmt.Sprintf("stage(%d gates, %d qubits)", len(s.Gates), 2*len(s.Gates))
}

// ConflictGraph builds the gate conflict graph of a CZ block: one vertex
// per gate, with an edge between gates that share a qubit. Stages are
// exactly the independent sets of this graph, so partitioning a block into
// stages is vertex coloring of the conflict graph.
func ConflictGraph(gates []circuit.CZ) *graphutil.Graph {
	g := graphutil.NewGraph(len(gates))
	maxQ := Stage{Gates: gates}.maxQubit()
	byQubit := make([][]int, maxQ+1)
	for i, gate := range gates {
		byQubit[gate.A] = append(byQubit[gate.A], i)
		byQubit[gate.B] = append(byQubit[gate.B], i)
	}
	for _, members := range byQubit {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				g.AddEdge(members[i], members[j])
			}
		}
	}
	return g
}

// Partition splits the commutable gates of one CZ block into stages: the
// optimized edge coloring of Sec. 4.1. Gates are edges of the qubit
// interaction graph, and a proper edge coloring is exactly a partition
// into stages of qubit-disjoint gates; the Misra-Gries procedure bounds
// the stage count by MaxDegree+1 (Vizing's bound). A compaction pass
// then retries gates of the later, smaller stages against the earlier
// ones, absorbing stages the coloring fragmented. Iterated greedy
// matching partitions the block a second way, and Partition keeps
// whichever of the two uses fewer stages. For a block of E gates on V
// qubits with largest qubit degree D, the coloring takes O(E*(D^2+V))
// time, and compaction and matching O(E*D) each.
//
// The gates of one block must be distinct (circuit.Validate enforces
// this); Partition panics on duplicates, which could not be scheduled
// into disjoint stages of the same block anyway.
func Partition(gates []circuit.CZ) []Stage {
	if len(gates) == 0 {
		return nil
	}
	edges := make([][2]int, len(gates))
	for i, g := range gates {
		edges[i] = [2]int{g.A, g.B}
	}
	color := graphutil.EdgeColoring(Stage{Gates: gates}.maxQubit()+1, edges)
	byColor := make([][]circuit.CZ, slices.Max(color)+1)
	for i, g := range gates {
		byColor[color[i]] = append(byColor[color[i]], g)
	}
	stages := make([]Stage, 0, len(byColor))
	for _, class := range byColor {
		if len(class) > 0 {
			stages = append(stages, Stage{Gates: class})
		}
	}
	stages = compact(stages)

	// Misra-Gries attains Vizing's Delta+1 bound but can miss the
	// optimum Delta on class-1 graphs (a 30-qubit VQE chain is a path:
	// chromatic index 2, Misra-Gries may use 3). Iterated greedy
	// matching exploits exactly such structure; keep whichever
	// partition uses fewer Rydberg stages.
	if alt := matchingPartition(gates); len(alt) < len(stages) {
		return alt
	}
	return stages
}

// matchingPartition repeatedly extracts a maximal matching from the
// remaining gates, scanning them in input order. Each matching is one
// stage. The stages are capacity-clipped windows of one array, so an
// append to one stage cannot overwrite the next.
func matchingPartition(gates []circuit.CZ) []Stage {
	maxQ := Stage{Gates: gates}.maxQubit()
	used := bitset.New(maxQ + 1)
	placed := make([]circuit.CZ, 0, len(gates))
	remaining := slices.Clone(gates)
	var stages []Stage
	for len(remaining) > 0 {
		used.Reset(maxQ + 1)
		start, rest := len(placed), 0
		for _, g := range remaining {
			if used.Contains(g.A) || used.Contains(g.B) {
				remaining[rest] = g
				rest++
				continue
			}
			used.Add(g.A)
			used.Add(g.B)
			placed = append(placed, g)
		}
		stages = append(stages, Stage{Gates: placed[start:len(placed):len(placed)]})
		remaining = remaining[:rest]
	}
	return stages
}

// compact greedily re-homes gates from the last stages into the earliest
// stage whose qubit set they do not intersect, dropping stages that empty
// out. One pass suffices: a gate that cannot move earlier now will not be
// unblocked by removing gates from strictly later stages.
func compact(stages []Stage) []Stage {
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

// DefaultAlpha is the weight the stage-ordering objective assigns to
// qubits that must newly enter the computation zone. The paper requires
// alpha < 1 so that moving qubits *into* storage is preferred over keeping
// them out of it (Sec. 4.2).
const DefaultAlpha = 0.5

// Order schedules the stages of one commutable block (Sec. 4.2). The first
// stage is the one with the fewest interacting qubits, keeping as many
// qubits as possible in storage. Each subsequent stage is greedily chosen
// to minimize
//
//	|Q_i \ Q_{i+1}| + alpha * |Q_{i+1} \ Q_i|
//
// the weighted symmetric difference of interacting-qubit sets between the
// current stage and the candidate. Ties are broken toward the earlier
// stage index so the result is deterministic. The input slice is not
// modified; a reordered copy is returned.
func Order(stages []Stage, alpha float64) []Stage {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stage: alpha %v outside (0, 1)", alpha))
	}
	if len(stages) <= 1 {
		return append([]Stage(nil), stages...)
	}

	used := make([]bool, len(stages))
	maxQ := -1
	for _, s := range stages {
		if m := s.maxQubit(); m > maxQ {
			maxQ = m
		}
	}
	sets := make([]*bitset.Set, len(stages))
	sizes := make([]int, len(stages))
	for i, s := range stages {
		sets[i] = bitset.New(maxQ + 1)
		s.qubitBits(sets[i])
		sizes[i] = sets[i].Count()
	}

	// First stage: fewest interacting qubits.
	first := 0
	for i := 1; i < len(stages); i++ {
		if sizes[i] < sizes[first] {
			first = i
		}
	}
	order := []int{first}
	used[first] = true

	for len(order) < len(stages) {
		cur := sets[order[len(order)-1]]
		best, bestCost := -1, 0.0
		for i := range stages {
			if used[i] {
				continue
			}
			cost := transitionCost(cur, sets[i], alpha)
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		order = append(order, best)
		used[best] = true
	}

	out := make([]Stage, len(order))
	for i, idx := range order {
		out[i] = stages[idx]
	}
	return out
}

// transitionCost returns |cur \ next| + alpha * |next \ cur|, computed
// word-at-a-time on the stages' qubit bitsets.
func transitionCost(cur, next *bitset.Set, alpha float64) float64 {
	return float64(cur.AndNotCount(next)) + alpha*float64(next.AndNotCount(cur))
}

// TotalGates returns the number of gates across all stages.
func TotalGates(stages []Stage) int {
	n := 0
	for _, s := range stages {
		n += len(s.Gates)
	}
	return n
}
