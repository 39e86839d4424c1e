package verify

import (
	"math/rand"
	"slices"
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/isa"
	"powermove/internal/statevec"
	"powermove/internal/workload"
)

// maxReferenceQubits bounds the registers the naive state-vector
// reference simulates; 2^12 amplitudes per state keeps every check
// cheap.
const maxReferenceQubits = 12

// referenceAgrees runs circ's CZ stream and prog's, in pulse order, on
// one seeded random state through the naive reference and reports
// whether they land on the same state.
func referenceAgrees(circ *circuit.Circuit, prog *isa.Program, seed int64) bool {
	ref := statevec.NewRandom(circ.Qubits, rand.New(rand.NewSource(seed)))
	got := ref.Clone()
	for _, b := range circ.Blocks {
		for _, g := range b.Gates {
			ref.CZ(g.A, g.B)
		}
	}
	for _, in := range prog.Instr {
		if p, ok := in.(isa.Rydberg); ok {
			for _, g := range p.Pairs {
				got.CZ(g.A, g.B)
			}
		}
	}
	return got.Equal(ref, 1e-9)
}

// pulseAt locates one pulse of a clean compile: its instruction index
// and the block its gates belong to.
type pulseAt struct{ instr, block int }

// pulsesOf lists the pulses of prog, which must replay circ cleanly, so
// each pulse's first gate names its block.
func pulsesOf(circ *circuit.Circuit, prog *isa.Program) []pulseAt {
	var out []pulseAt
	bi, left := 0, 0
	for i, in := range prog.Instr {
		p, ok := in.(isa.Rydberg)
		if !ok {
			continue
		}
		for left == 0 {
			left = len(circ.Blocks[bi].Gates)
			bi++
		}
		out = append(out, pulseAt{i, bi - 1})
		left -= len(p.Pairs)
	}
	return out
}

// edit returns a copy of prog whose instruction slice may be rewritten.
func edit(prog *isa.Program) *isa.Program {
	return &isa.Program{Name: prog.Name, Qubits: prog.Qubits, Instr: append([]isa.Instruction(nil), prog.Instr...)}
}

// pairsOf returns a copy of the pairs of the pulse at instruction i.
func pairsOf(prog *isa.Program, i int) []circuit.CZ {
	return append([]circuit.CZ(nil), prog.Instr[i].(isa.Rydberg).Pairs...)
}

// setPairs replaces the pairs of the pulse at instruction i.
func setPairs(prog *isa.Program, i int, pairs []circuit.CZ) {
	p := prog.Instr[i].(isa.Rydberg)
	p.Pairs = pairs
	prog.Instr[i] = p
}

// acrossBlocks lists the pulse pairs (i < j, indexes into ps) whose
// pulses belong to different blocks and apply different pair sets.
func acrossBlocks(prog *isa.Program, ps []pulseAt) [][2]int {
	var out [][2]int
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if ps[i].block == ps[j].block {
				continue
			}
			a, b := prog.Instr[ps[i].instr].(isa.Rydberg).Pairs, prog.Instr[ps[j].instr].(isa.Rydberg).Pairs
			same := len(a) == len(b)
			for k := 0; same && k < len(a); k++ {
				same = slices.Contains(b, a[k])
			}
			if !same {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// mutations break a clean compile the ways a compiler bug could; each
// returns nil when the compile offers no place to apply it.
var mutations = []struct {
	name  string
	apply func(c *circuit.Circuit, p *isa.Program, ps []pulseAt, rng *rand.Rand) *isa.Program
}{
	{"drop a pair", func(c *circuit.Circuit, p *isa.Program, ps []pulseAt, rng *rand.Rand) *isa.Program {
		at := ps[rng.Intn(len(ps))].instr
		pairs := pairsOf(p, at)
		k := rng.Intn(len(pairs))
		m := edit(p)
		setPairs(m, at, append(pairs[:k], pairs[k+1:]...))
		return m
	}},
	{"retarget a pair", func(c *circuit.Circuit, p *isa.Program, ps []pulseAt, rng *rand.Rand) *isa.Program {
		if c.Qubits < 3 {
			return nil
		}
		at := ps[rng.Intn(len(ps))].instr
		pairs := pairsOf(p, at)
		k := rng.Intn(len(pairs))
		q := rng.Intn(c.Qubits)
		for pairs[k].Acts(q) {
			q = (q + 1) % c.Qubits
		}
		pairs[k] = circuit.NewCZ(q, pairs[k].B)
		m := edit(p)
		setPairs(m, at, pairs)
		return m
	}},
	{"copy a pair into another block", func(c *circuit.Circuit, p *isa.Program, ps []pulseAt, rng *rand.Rand) *isa.Program {
		cands := acrossBlocks(p, ps)
		if len(cands) == 0 {
			return nil
		}
		ij := cands[rng.Intn(len(cands))]
		src, dst := ps[ij[0]].instr, ps[ij[1]].instr
		pairs := pairsOf(p, src)
		m := edit(p)
		setPairs(m, dst, append(pairsOf(p, dst), pairs[rng.Intn(len(pairs))]))
		return m
	}},
	{"swap pulses across blocks", func(c *circuit.Circuit, p *isa.Program, ps []pulseAt, rng *rand.Rand) *isa.Program {
		cands := acrossBlocks(p, ps)
		if len(cands) == 0 {
			return nil
		}
		ij := cands[rng.Intn(len(cands))]
		a, b := ps[ij[0]].instr, ps[ij[1]].instr
		m := edit(p)
		m.Instr[a], m.Instr[b] = m.Instr[b], m.Instr[a]
		return m
	}},
	{"merge two pulses", func(c *circuit.Circuit, p *isa.Program, ps []pulseAt, rng *rand.Rand) *isa.Program {
		var cands []int
		for k := 0; k+1 < len(ps); k++ {
			if ps[k].block == ps[k+1].block {
				cands = append(cands, k)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		k := cands[rng.Intn(len(cands))]
		a, b := ps[k].instr, ps[k+1].instr
		m := edit(p)
		setPairs(m, a, append(pairsOf(p, a), pairsOf(p, b)...))
		m.Instr = append(m.Instr[:b], m.Instr[b+1:]...)
		return m
	}},
}

// TestDifferentialAgainstReference pins the equivalence walk to the
// naive state-vector reference on random circuits of at most
// maxReferenceQubits under all three pipelines, clean and mutated.
// Whenever the walk accepts a program, both CZ streams must leave a
// random state at the same point; and All must flag every mutant.
func TestDifferentialAgainstReference(t *testing.T) {
	applied := make(map[string]int)
	for seed := int64(0); seed < 16; seed++ {
		cfg := workload.RandomConfig{
			Qubits:  3 + int(seed)%(maxReferenceQubits-2),
			Blocks:  2 + int(seed)%4,
			Density: 0.15 + 0.05*float64(seed%8),
		}
		c := workload.Random(cfg, seed)
		for _, scheme := range []string{"enola", "non-storage", "with-storage"} {
			res := compile(t, c, scheme, 1)
			if r := All(c, res.Program, res.Initial); !r.OK() {
				t.Fatalf("seed %d %s: clean compile flagged: %s", seed, scheme, r)
			}
			if !referenceAgrees(c, res.Program, seed) {
				t.Fatalf("seed %d %s: the walk accepts a compile the reference tells apart", seed, scheme)
			}
			ps := pulsesOf(c, res.Program)
			if len(ps) == 0 {
				continue
			}
			rng := rand.New(rand.NewSource(seed))
			for _, mu := range mutations {
				m := mu.apply(c, res.Program, ps, rng)
				if m == nil {
					continue
				}
				applied[mu.name]++
				if CheckEquivalence(c, m).OK() && !referenceAgrees(c, m, seed) {
					t.Errorf("seed %d %s, %s: the walk accepts a program the reference tells apart", seed, scheme, mu.name)
				}
				if All(c, m, res.Initial).OK() {
					t.Errorf("seed %d %s: All missed %q", seed, scheme, mu.name)
				}
			}
		}
	}
	for _, mu := range mutations {
		if applied[mu.name] == 0 {
			t.Errorf("mutation %q never applied", mu.name)
		}
	}
}
