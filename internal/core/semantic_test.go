package core

import (
	"math/rand"
	"testing"

	"powermove"
	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/isa"
	"powermove/internal/statevec"
	"powermove/internal/workload"
)

// applyCZSequence applies a sequence of CZ gates to a state.
func applyCZSequence(s *statevec.State, gates []circuit.CZ) {
	for _, g := range gates {
		s.CZ(g.A, g.B)
	}
}

// compiledCZOrder extracts the CZ gates a compiled program executes, in
// Rydberg-pulse order.
func compiledCZOrder(p *isa.Program) []circuit.CZ {
	var out []circuit.CZ
	for _, in := range p.Instr {
		if r, ok := in.(isa.Rydberg); ok {
			out = append(out, r.Pairs...)
		}
	}
	return out
}

// originalCZOrder lists the circuit's CZ gates in source order.
func originalCZOrder(c *circuit.Circuit) []circuit.CZ {
	var out []circuit.CZ
	for _, b := range c.Blocks {
		out = append(out, b.Gates...)
	}
	return out
}

// TestCompiledProgramsAreSemanticallyEquivalent is the compiler's
// correctness theorem, checked numerically: the only reordering the
// pipeline performs is within commutable CZ blocks, and CZ gates commute,
// so applying the compiled gate order to a random state must reproduce the
// state the source circuit produces. (1Q layers are position-independent
// bookkeeping in the IR and are omitted from both sides.)
func TestCompiledProgramsAreSemanticallyEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	circs := []*circuit.Circuit{
		workload.QAOARegular(12, 3, 1),
		workload.QAOARandom(10, 2),
		workload.QFT(9),
		workload.BV(10, 3),
		workload.VQE(11),
		workload.QSim(10, 4),
	}
	for _, c := range circs {
		for _, storage := range []bool{false, true} {
			a := arch.New(arch.Config{Qubits: c.Qubits})
			res, err := powermove.Compile(c, a, powermove.Options{UseStorage: storage})
			if err != nil {
				t.Fatalf("%s storage=%v: %v", c.Name, storage, err)
			}
			ref := statevec.NewRandom(c.Qubits, rng)
			got := ref.Clone()
			applyCZSequence(ref, originalCZOrder(c))
			applyCZSequence(got, compiledCZOrder(res.Program))
			if !got.Equal(ref, 1e-9) {
				t.Errorf("%s storage=%v: compiled program is not unitarily equivalent to the source circuit",
					c.Name, storage)
			}
		}
	}
}

// TestBlockOrderIsPreserved: the compiler may reorder gates within a
// block, but blocks are dependent and must retain their relative order.
// Verified structurally: the compiled gate sequence, partitioned at block
// boundaries by gate membership, is a concatenation of per-block
// permutations.
func TestBlockOrderIsPreserved(t *testing.T) {
	c := workload.QSim(12, 8) // many small dependent blocks
	a := arch.New(arch.Config{Qubits: 12})
	res, err := powermove.Compile(c, a, powermove.Options{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	compiled := compiledCZOrder(res.Program)
	idx := 0
	for bi, b := range c.Blocks {
		want := make(map[circuit.CZ]int)
		for _, g := range b.Gates {
			want[g]++
		}
		for count := len(b.Gates); count > 0; count-- {
			if idx >= len(compiled) {
				t.Fatalf("compiled stream ended inside block %d", bi)
			}
			g := compiled[idx]
			if want[g] == 0 {
				t.Fatalf("block %d: gate %v executed out of block order", bi, g)
			}
			want[g]--
			idx++
		}
	}
	if idx != len(compiled) {
		t.Fatalf("compiled stream has %d extra gates", len(compiled)-idx)
	}
}
