// Package verify is the compiler's differential verification subsystem:
// it proves — independently of both the compiler and the executor — that
// a compiled program is *legal* for its target hardware and *means* the
// circuit it was compiled from.
//
// Two checkers cover the two halves of that claim:
//
//   - CheckPhysical replays the instruction stream against the arch
//     model and reports every physical-constraint violation as a
//     structured Violation: AOD row/column order inversions within a
//     collective move (Sec. 5.3 / Fig. 5), more simultaneous groups
//     than AOD arrays, trap double-occupancy and stray pairs at Rydberg
//     pulses (Sec. 5.1), interaction-zone spacing breaches (Rydberg
//     blockade, Table 1), and stage-transition inconsistencies (a move
//     departing from a site its qubit does not occupy).
//   - CheckEquivalence proves semantic equivalence with the source
//     circuit by one structural walk, exact at every register size:
//     each block's CZ gates must run in block order as a multiset
//     permutation of the block, and each block's 1Q layer must sit
//     between the previous block's last pulse and the block's first
//     (equivalence.go gives the reason no simulation is needed).
//
// Unlike internal/sim — which fail-stops on the first illegal
// instruction — the verifier is best-effort and exhaustive: it keeps
// replaying past violations and returns them all, which is what makes
// its reports useful as fuzzing oracles (FuzzCompileVerify) and as
// production diagnostics behind the daemon's verify mode.
package verify

import (
	"fmt"
	"strings"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/geom"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/phys"
)

// Code classifies one violation kind. Codes are stable strings so
// reports aggregate cleanly across runs and into /metrics counters.
type Code string

// The physical-constraint violation codes.
const (
	// AODConflict: two moves of one collective move invert or merge
	// their row/column order between start and end (Fig. 5).
	AODConflict Code = "aod-conflict"
	// AODOverflow: a move batch carries more groups than the
	// architecture has AOD arrays.
	AODOverflow Code = "aod-overflow"
	// DoubleMove: a qubit is relocated twice within one batch.
	DoubleMove Code = "double-move"
	// StaleSource: a move departs from a site its qubit does not occupy
	// at that point of the replay — a stage-transition inconsistency
	// between the router's layout bookkeeping and the emitted stream.
	StaleSource Code = "stale-source"
	// EndpointMismatch: a move's cached physical coordinates disagree
	// with its site endpoints, corrupting the conflict predicate.
	EndpointMismatch Code = "endpoint-mismatch"
	// OutOfBounds: a move references a qubit or site outside the
	// architecture.
	OutOfBounds Code = "out-of-bounds"
	// TrapOverflow: a site holds more than two qubits at a Rydberg
	// pulse.
	TrapOverflow Code = "trap-overflow"
	// StrayPair: a doubly-occupied site at a Rydberg pulse does not
	// hold exactly one scheduled CZ pair.
	StrayPair Code = "stray-pair"
	// StorageInteraction: a scheduled pair sits in the storage zone at
	// its pulse, where the Rydberg laser cannot reach it.
	StorageInteraction Code = "storage-interaction"
	// SplitPair: a scheduled pair is not co-located at its pulse.
	SplitPair Code = "split-pair"
	// SpacingBreach: a non-interacting qubit sits within
	// phys.MinSeparation of an interacting qubit during a pulse.
	SpacingBreach Code = "spacing-breach"
	// QubitReuse: a qubit appears in two gates of one pulse.
	QubitReuse Code = "qubit-reuse"
	// EmptyInstr: a move batch with no groups or a pulse with no gates.
	EmptyInstr Code = "empty-instr"
)

// The semantic-equivalence violation codes (see equivalence.go).
const (
	// GateLoss: the compiled stream's CZ multiset differs from the
	// circuit's (a gate dropped, duplicated, or invented).
	GateLoss Code = "gate-loss"
	// BlockOrder: a gate executed outside its dependent block's span —
	// commutation was assumed across a block boundary.
	BlockOrder Code = "block-order"
	// OneQLoss: a compiled 1Q layer's gate count differs from its
	// block's, or a layer is missing or invented.
	OneQLoss Code = "oneq-loss"
	// OneQOrder: a 1Q layer with the right count sits at the wrong
	// place — not between the previous block's last pulse and its own
	// block's first.
	OneQOrder Code = "oneq-order"
)

// Violation is one structured diagnostic.
type Violation struct {
	// Code classifies the violation.
	Code Code `json:"code"`
	// Instr is the offending instruction index, or -1 for program-level
	// findings.
	Instr int `json:"instr"`
	// Qubits lists the qubits involved, when meaningful.
	Qubits []int `json:"qubits,omitempty"`
	// Detail is the human-readable specifics.
	Detail string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Instr < 0 {
		return fmt.Sprintf("%s: %s", v.Code, v.Detail)
	}
	return fmt.Sprintf("%s @%d: %s", v.Code, v.Instr, v.Detail)
}

// Report collects every violation one verification found, with the
// replay accounting that scopes it.
type Report struct {
	// Violations are the findings, in replay order.
	Violations []Violation `json:"violations,omitempty"`
	// Instructions, Batches, and Pulses count the replayed stream.
	Instructions int `json:"instructions"`
	Batches      int `json:"batches"`
	Pulses       int `json:"pulses"`
	// Oracle is always nil: equivalence is decided without simulation
	// (see OracleStats).
	Oracle *OracleStats `json:"oracle,omitempty"`
}

// OK reports whether the verification found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) add(code Code, instr int, qubits []int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Code:   code,
		Instr:  instr,
		Qubits: qubits,
		Detail: fmt.Sprintf(format, args...),
	})
}

// String renders the report as one line per violation, or an all-clear.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("verify: OK (%d instructions, %d batches, %d pulses)",
			r.Instructions, r.Batches, r.Pulses)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d violation(s) in %d instructions\n", len(r.Violations), r.Instructions)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return strings.TrimRight(b.String(), "\n")
}

// MaxSummaryMessages bounds the violation messages a Summary carries;
// the full list stays on the Report.
const MaxSummaryMessages = 8

// Summary is the serializable digest of a Report that rides on service
// responses and batch outcomes: deterministic counts plus the first few
// rendered violations.
type Summary struct {
	// Violations is the total finding count (0 = verified clean).
	Violations int `json:"violations"`
	// Codes counts findings per violation code.
	Codes map[string]int `json:"codes,omitempty"`
	// Messages holds up to MaxSummaryMessages rendered violations.
	Messages []string `json:"messages,omitempty"`
}

// Summary digests the report.
func (r *Report) Summary() *Summary {
	s := &Summary{Violations: len(r.Violations)}
	if len(r.Violations) > 0 {
		s.Codes = make(map[string]int, 4)
		for _, v := range r.Violations {
			s.Codes[string(v.Code)]++
			if len(s.Messages) < MaxSummaryMessages {
				s.Messages = append(s.Messages, v.String())
			}
		}
	}
	return s
}

// All runs the full verification — the physical legality checker and the
// semantic equivalence walk — and returns the merged report. circ is the
// source circuit prog was compiled from.
func All(circ *circuit.Circuit, prog *isa.Program, initial *layout.Layout) *Report {
	r := CheckPhysical(prog, initial)
	r.Violations = append(r.Violations, CheckEquivalence(circ, prog).Violations...)
	return r
}

// CheckPhysical replays prog from initial against the architecture model
// and reports every physical-constraint violation. The replay is
// best-effort: a violating move is still applied when its target is
// representable, so one early inconsistency does not cascade into a
// avalanche of derived findings.
func CheckPhysical(prog *isa.Program, initial *layout.Layout) *Report {
	r := &Report{}
	if prog == nil || initial == nil {
		r.add(EmptyInstr, -1, nil, "nil program or initial layout")
		return r
	}
	if prog.Qubits != initial.Qubits() {
		r.add(OutOfBounds, -1, nil, "program has %d qubits, layout tracks %d", prog.Qubits, initial.Qubits())
		return r
	}
	for q := 0; q < initial.Qubits(); q++ {
		if !initial.Placed(q) {
			r.add(OutOfBounds, -1, []int{q}, "qubit %d unplaced in the initial layout", q)
			return r
		}
	}
	l := initial.Clone()
	a := l.Arch()
	moved := make([]int, l.Qubits()) // qubit -> last batch index that moved it, -1 sentinel
	for i := range moved {
		moved[i] = -1
	}

	for idx, in := range prog.Instr {
		r.Instructions++
		switch in := in.(type) {
		case isa.OneQLayer:
			if in.Count < 0 {
				r.add(EmptyInstr, idx, nil, "negative 1Q gate count %d", in.Count)
			}
		case isa.MoveBatch:
			r.Batches++
			checkBatch(r, idx, in, l, a, moved)
		case isa.Rydberg:
			r.Pulses++
			checkPulse(r, idx, in, l, a)
		default:
			r.add(EmptyInstr, idx, nil, "unknown instruction type %T", in)
		}
	}
	return r
}

// checkBatch verifies one collective-move batch — AOD capacity, per-group
// order preservation, per-batch exclusivity, and source/endpoint
// consistency — then applies the legal subset of moves to the replay
// layout.
func checkBatch(r *Report, idx int, in isa.MoveBatch, l *layout.Layout, a *arch.Arch, moved []int) {
	if len(in.Groups) == 0 {
		r.add(EmptyInstr, idx, nil, "move batch with no groups")
		return
	}
	if len(in.Groups) > a.AODs {
		r.add(AODOverflow, idx, nil, "batch uses %d groups, architecture has %d AOD array(s)", len(in.Groups), a.AODs)
	}
	for aod, g := range in.Groups {
		// The order-preservation predicate of Sec. 5.3, re-derived
		// pairwise from the emitted endpoint coordinates rather than
		// trusting the grouping pass.
		for i := range g.Moves {
			for j := i + 1; j < len(g.Moves); j++ {
				if move.Conflicts(g.Moves[i], g.Moves[j]) {
					r.add(AODConflict, idx, []int{g.Moves[i].Qubit, g.Moves[j].Qubit},
						"AOD %d: moves %v and %v invert row/column order", aod, g.Moves[i], g.Moves[j])
				}
			}
		}
		for _, m := range g.Moves {
			if m.Qubit < 0 || m.Qubit >= l.Qubits() {
				r.add(OutOfBounds, idx, []int{m.Qubit}, "AOD %d: move references qubit %d of %d", aod, m.Qubit, l.Qubits())
				continue
			}
			if !a.InBounds(m.FromSite) || !a.InBounds(m.ToSite) {
				r.add(OutOfBounds, idx, []int{m.Qubit}, "AOD %d: move %v has out-of-bounds endpoint", aod, m)
				continue
			}
			if a.Pos(m.FromSite) != m.From || a.Pos(m.ToSite) != m.To {
				r.add(EndpointMismatch, idx, []int{m.Qubit},
					"AOD %d: move %v carries coordinates %v->%v, sites resolve to %v->%v",
					aod, m, m.From, m.To, a.Pos(m.FromSite), a.Pos(m.ToSite))
			}
			if moved[m.Qubit] == idx {
				r.add(DoubleMove, idx, []int{m.Qubit}, "AOD %d: qubit %d moved twice in one batch", aod, m.Qubit)
			}
			moved[m.Qubit] = idx
			if got := l.SiteOf(m.Qubit); got != m.FromSite {
				r.add(StaleSource, idx, []int{m.Qubit},
					"AOD %d: qubit %d is at %v, move departs from %v", aod, m.Qubit, got, m.FromSite)
			}
			// Best-effort application: land the qubit where the move
			// says it goes, so later instructions are judged against
			// the stream's own intent.
			l.Move(m.Qubit, m.ToSite)
		}
	}
}

// checkPulse verifies the occupancy and spacing invariants of one global
// Rydberg pulse (Sec. 5.1 and the blockade geometry of Table 1).
func checkPulse(r *Report, idx int, in isa.Rydberg, l *layout.Layout, a *arch.Arch) {
	if len(in.Pairs) == 0 {
		r.add(EmptyInstr, idx, nil, "Rydberg pulse with no gates")
		return
	}
	interacting := make([]bool, l.Qubits())
	paired := make(map[int]int, 2*len(in.Pairs))
	for _, g := range in.Pairs {
		if g.A < 0 || g.B < 0 || g.A >= l.Qubits() || g.B >= l.Qubits() {
			r.add(OutOfBounds, idx, []int{g.A, g.B}, "pulse schedules %v outside the %d-qubit register", g, l.Qubits())
			continue
		}
		if interacting[g.A] || interacting[g.B] {
			r.add(QubitReuse, idx, []int{g.A, g.B}, "stage %d schedules a qubit of %v twice", in.Stage, g)
		}
		interacting[g.A], interacting[g.B] = true, true
		paired[g.A], paired[g.B] = g.B, g.A
		sa, sb := l.SiteOf(g.A), l.SiteOf(g.B)
		if sa != sb {
			r.add(SplitPair, idx, []int{g.A, g.B}, "pair %v split across %v and %v", g, sa, sb)
			continue
		}
		if sa.Zone != arch.Compute {
			r.add(StorageInteraction, idx, []int{g.A, g.B}, "pair %v scheduled at storage site %v", g, sa)
		}
	}

	// Site occupancy: at most two qubits anywhere, and exactly one
	// scheduled pair wherever there are two.
	for _, z := range []arch.Zone{arch.Compute, arch.Storage} {
		for _, s := range a.Sites(z) {
			qs := l.At(s)
			switch {
			case len(qs) > 2:
				r.add(TrapOverflow, idx, append([]int(nil), qs...), "site %v holds %d qubits %v", s, len(qs), qs)
			case len(qs) == 2:
				if p, ok := paired[qs[0]]; !ok || p != qs[1] {
					r.add(StrayPair, idx, append([]int(nil), qs...), "site %v holds non-interacting qubits %v", s, qs)
				}
			}
		}
	}

	// Blockade spacing: every non-interacting qubit must keep
	// phys.MinSeparation from every interacting one, or the pulse
	// entangles it by accident. Interacting partners are exempt from
	// each other (they are co-located by design).
	var iq []int
	var ipos []geom.Point
	for q := 0; q < l.Qubits(); q++ {
		if interacting[q] {
			iq = append(iq, q)
			ipos = append(ipos, l.PosOf(q))
		}
	}
	for q := 0; q < l.Qubits(); q++ {
		if interacting[q] || l.Zone(q) != arch.Compute {
			continue
		}
		p := l.PosOf(q)
		for i, other := range iq {
			if p.Dist(ipos[i]) < phys.MinSeparation {
				r.add(SpacingBreach, idx, []int{q, other},
					"idle qubit %d sits %.1f um from interacting qubit %d (min %.1f)",
					q, p.Dist(ipos[i]), other, phys.MinSeparation)
			}
		}
	}
}
