// Semantic equivalence. The IR (Sec. 2.2) is a sequence of dependent
// blocks, each a layer of single-qubit gates that the IR records only as
// a count, followed by a multiset of commuting CZ gates. The compilers'
// only liberty is reordering and parallelizing the gates of one block,
// so a compiled program means its source exactly when one walk over its
// instruction stream finds:
//
//   - the CZ gates of its Rydberg pulses, in pulse order, forming a
//     concatenation of per-block multiset permutations in block order
//     (GateLoss, BlockOrder);
//   - block bi's OneQLayer{Count: OneQ}, absent when OneQ is 0, after
//     block bi-1's last pulse and before block bi's first (OneQLoss for
//     a wrong count, OneQOrder for a wrong position).
//
// The walk is exact for every register size. A product of CZ gates is
// the diagonal (-1)^Σ x_a·x_b over the pairs applied an odd number of
// times, so two CZ streams act alike on every state exactly when those
// pair sets agree, which per-block multiset equality already implies. A
// state-vector simulation of the two CZ streams can only repeat the
// walk's verdict.
package verify

import (
	"powermove/internal/circuit"
	"powermove/internal/isa"
)

// OracleStats is what remains of the retired state-vector oracle's
// accounting. Equivalence is decided without simulation, so
// Report.Oracle is always nil; the type stays for readers that still
// consult Oracle.Amps.
type OracleStats struct {
	// Amps was the amplitude count the oracle simulated.
	Amps int64 `json:"amps"`
}

// CheckEquivalence verifies that prog means circ: its pulses replay
// circ's CZ blocks in order, each as a multiset permutation, and its 1Q
// layers sit on their blocks' boundaries. The walk is linear in the
// program for every register size.
func CheckEquivalence(circ *circuit.Circuit, prog *isa.Program) *Report {
	r := &Report{}
	switch {
	case circ == nil || prog == nil:
		r.add(GateLoss, -1, nil, "nil circuit or program")
	case circ.Qubits != prog.Qubits:
		r.add(GateLoss, -1, nil, "circuit has %d qubits, program has %d", circ.Qubits, prog.Qubits)
	default:
		walk(r, circ, prog)
	}
	return r
}

// layer1Q places one 1Q layer: its gate count, the number of CZ gates
// before it, and where it sits (the block it opens on the source side,
// its instruction index on the compiled side).
type layer1Q struct{ count, after, at int }

// walk replays prog's CZ gates against circ's blocks, then pairs the 1Q
// layers of both sides in order. The CZ replay stops at its first
// finding: later gates would be judged against a block the stream has
// already left, so they could only repeat it.
func walk(r *Report, circ *circuit.Circuit, prog *isa.Program) {
	var want []layer1Q
	total := 0
	for bi := range circ.Blocks {
		b := &circ.Blocks[bi]
		if b.OneQ > 0 {
			want = append(want, layer1Q{count: b.OneQ, after: total, at: bi})
		}
		total += len(b.Gates)
	}

	var got []layer1Q
	pending := make(map[circuit.CZ]int) // unmatched gates of the open block
	open, left := -1, 0                 // the open block and its unmatched gate count
	gates, extraAt, broken := 0, -1, false
	for idx, in := range prog.Instr {
		switch in := in.(type) {
		case isa.OneQLayer:
			got = append(got, layer1Q{count: in.Count, after: gates, at: idx})
		case isa.Rydberg:
			for _, g := range in.Pairs {
				gates++
				if broken {
					continue
				}
				for left == 0 && open+1 < len(circ.Blocks) {
					open++
					for _, h := range circ.Blocks[open].Gates {
						pending[h]++
					}
					left = len(circ.Blocks[open].Gates)
				}
				switch {
				case left == 0:
					extraAt, broken = idx, true
				case pending[g] == 0:
					r.add(BlockOrder, idx, []int{g.A, g.B}, "gate %v executed during block %d, which does not contain it", g, open)
					broken = true
				default:
					pending[g]--
					left--
				}
			}
		}
	}
	switch {
	case extraAt >= 0:
		r.add(GateLoss, extraAt, nil, "compiled stream has %d extra gate(s) after the last block", gates-total)
	case !broken && gates < total:
		bi := open
		for left == 0 {
			bi++
			left = len(circ.Blocks[bi].Gates)
		}
		r.add(GateLoss, -1, nil, "compiled stream ended inside block %d (%d of %d gate(s) missing)", bi, total-gates, total)
	}

	// A layer whose count differs from its counterpart's was lost,
	// invented or altered. Positions are judged only once every count
	// agrees and the CZ replay held: block boundaries in the compiled
	// stream are undefined otherwise.
	n := min(len(want), len(got))
	for k := 0; k < n; k++ {
		if got[k].count != want[k].count {
			r.add(OneQLoss, got[k].at, nil, "1Q layer applies %d gate(s), block %d's layer has %d", got[k].count, want[k].at, want[k].count)
			return
		}
	}
	switch {
	case len(got) < len(want):
		r.add(OneQLoss, -1, nil, "compiled stream lacks %d 1Q layer(s), the first block %d's of %d gate(s)",
			len(want)-n, want[n].at, want[n].count)
		return
	case len(got) > len(want):
		r.add(OneQLoss, got[n].at, nil, "compiled stream has %d 1Q layer(s) the circuit lacks, the first of %d gate(s)",
			len(got)-n, got[n].count)
		return
	}
	if broken || gates != total {
		return
	}
	for k := range want {
		if got[k].after != want[k].after {
			r.add(OneQOrder, got[k].at, nil, "block %d's 1Q layer follows %d CZ gate(s), want %d", want[k].at, got[k].after, want[k].after)
		}
	}
}
