package compiler_test

import (
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/experiments"
	"powermove/internal/graphutil"
	"powermove/internal/isa"
	"powermove/internal/stage"
)

// blockStages splits an Enola program's Rydberg pulses into the stages
// of each block of circ, in order.
func blockStages(t *testing.T, circ *circuit.Circuit, prog *isa.Program) [][][]circuit.CZ {
	t.Helper()
	var pulses [][]circuit.CZ
	for _, in := range prog.Instr {
		if r, ok := in.(isa.Rydberg); ok {
			pulses = append(pulses, r.Pairs)
		}
	}
	out := make([][][]circuit.CZ, len(circ.Blocks))
	for bi, b := range circ.Blocks {
		for covered := 0; covered < len(b.Gates); {
			if len(pulses) == 0 {
				t.Fatalf("%s: program ends inside block %d", circ.Name, bi)
			}
			out[bi] = append(out[bi], pulses[0])
			covered += len(pulses[0])
			pulses = pulses[1:]
		}
	}
	if len(pulses) != 0 {
		t.Fatalf("%s: %d pulses past the last block", circ.Name, len(pulses))
	}
	return out
}

// TestEnolaRestartsRunOnlyBelowTheBound is the regression guard for the
// restarts misStages skips, which leave every output byte unchanged and
// so cannot be seen by output comparisons. Across the Enola compiles of
// Table 3 and Fig. 6, restarts run in exactly the extractions whose
// greedy set is smaller than the maximum matching of the gates left,
// derived here from each compile's stages; every QFT and BV compile
// runs none.
func TestEnolaRestartsRunOnlyBelowTheBound(t *testing.T) {
	specs := experiments.Table2Specs()
	for _, f := range experiments.Figure6Families() {
		for _, n := range experiments.Figure6Sizes(f) {
			specs = append(specs, experiments.Spec{Family: f, Qubits: n})
		}
	}
	p, err := compiler.Enola(compiler.EnolaConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[experiments.Spec]bool{}
	var m graphutil.Matcher
	extractions, short, searched := 0, 0, 0
	for _, spec := range specs {
		if seen[spec] {
			continue
		}
		seen[spec] = true
		circ, err := spec.Circuit()
		if err != nil {
			t.Fatal(err)
		}
		res, ran, s, err := compiler.EnolaRestartsForTest(p, circ, spec.Arch(1))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if (spec.Family == experiments.QFT || spec.Family == experiments.BV) && ran != 0 {
			t.Errorf("%s: ran %d restarts, want 0", spec, ran)
		}
		searched += s
		for bi, stages := range blockStages(t, circ, res.Program) {
			gates := circ.Blocks[bi].Gates
			g := stage.ConflictGraph(gates)
			removed := make([]bool, len(gates))
			index := make(map[circuit.CZ]int, len(gates))
			for i, gate := range gates {
				index[gate] = i
			}
			for _, st := range stages {
				var edges [][2]int
				for i, gate := range gates {
					if !removed[i] {
						edges = append(edges, [2]int{gate.A, gate.B})
					}
				}
				extractions++
				if len(g.MaximalIndependentSet(removed)) < m.MaxMatching(circ.Qubits, edges) {
					short++
				}
				for _, gate := range st {
					removed[index[gate]] = true
				}
			}
		}
	}
	if searched != short {
		t.Errorf("restarts ran in %d of %d extractions; the greedy set falls short of the bound in %d", searched, extractions, short)
	}
	t.Logf("%d compiles, %d extractions, %d below the bound", len(seen), extractions, short)
}
