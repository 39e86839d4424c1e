// Package verify is the compiler's differential verification subsystem:
// it proves — independently of the compiler — that a compiled program is
// *legal* for its target hardware and *means* the circuit it was
// compiled from.
//
// Two checkers cover the two halves of that claim:
//
//   - CheckPhysical replays the instruction stream against the arch
//     model and reports every physical-constraint violation (AOD order
//     and capacity, move endpoints, trap occupancy, pairing and
//     blockade spacing at each pulse) as a structured Violation.
//   - CheckEquivalence proves semantic equivalence with the source
//     circuit by one structural walk, exact at every register size:
//     each block's CZ gates must run in block order as a multiset
//     permutation of the block, and each block's 1Q layer must sit
//     between the previous block's last pulse and the block's first
//     (equivalence.go gives the reason no simulation is needed).
//
// The physical rules exist once, in Replay (replay.go): one replay, two
// sinks. CheckPhysical's sink collects every violation and the replay
// goes on past each one, which is what makes its reports useful as
// fuzzing oracles (FuzzCompileVerify) and as diagnostics. The executor,
// internal/sim, replays with a sink that stops at the first violation,
// so every fidelity and execution time it reports belongs to a program
// that passed the same rules.
package verify

import (
	"fmt"
	"strings"

	"powermove/internal/circuit"
	"powermove/internal/isa"
	"powermove/internal/layout"
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

// Error implements error, so a Violation can be wrapped and recovered
// with errors.As.
func (v Violation) Error() string { return v.String() }

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
// and reports every physical-constraint violation, in replay order. The
// replay is best-effort: a violating move is still applied when its
// endpoints are in bounds, so one early inconsistency does not cascade
// into an avalanche of derived findings.
func CheckPhysical(prog *isa.Program, initial *layout.Layout) *Report {
	r := &Report{}
	rp := NewReplay(prog, initial, func(v Violation) bool {
		r.Violations = append(r.Violations, v)
		return true
	})
	if rp == nil {
		return r
	}
	for idx, in := range prog.Instr {
		r.Instructions++
		switch in.(type) {
		case isa.MoveBatch:
			r.Batches++
		case isa.Rydberg:
			r.Pulses++
		}
		rp.Step(idx, in)
	}
	return r
}
