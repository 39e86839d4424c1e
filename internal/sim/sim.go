// Package sim executes compiled programs against the zoned-architecture
// hardware model and produces the paper's three evaluation metrics
// (Sec. 2.2 and Sec. 7): output fidelity (Equation 1), execution time,
// and the raw event counts behind both. The executor re-checks every
// hardware constraint independently of the compiler: it walks the
// program with internal/verify's Replay, the one implementation of the
// physical rules that CheckPhysical also runs, and fails on the first
// violation. A compiler bug that emits an illegal program therefore
// fails execution instead of producing flattering numbers.
package sim

import (
	"fmt"

	"powermove/internal/arch"
	"powermove/internal/fidelity"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/phys"
	"powermove/internal/trace"
	"powermove/internal/verify"
)

// Breakdown decomposes execution time by activity, in microseconds.
type Breakdown struct {
	OneQ     float64 // parallel single-qubit layers
	Move     float64 // collective movement
	Transfer float64 // SLM<->AOD pickup/dropoff intervals
	Rydberg  float64 // global Rydberg pulses
}

// Total returns the summed execution time.
func (b Breakdown) Total() float64 { return b.OneQ + b.Move + b.Transfer + b.Rydberg }

// Result is the outcome of executing one program.
type Result struct {
	// Time is the total execution time T_exe in microseconds.
	Time float64
	// Breakdown splits Time by activity.
	Breakdown Breakdown
	// Counts are the raw fidelity-relevant event counts.
	Counts fidelity.Counts
	// Components are the evaluated fidelity factors.
	Components fidelity.Components
	// Fidelity is Components.Total(): the paper's headline metric,
	// excluding the single-qubit term per Sec. 2.2.
	Fidelity float64
	// MoveBatches and Stages count executed batches and Rydberg pulses.
	MoveBatches, Stages int
	// Final is the layout after the last instruction.
	Final *layout.Layout
}

// Execute runs prog starting from the given initial layout. The layout is
// cloned; the caller's copy is not modified. Execution fails on the first
// constraint violation; the error wraps that verify.Violation, which
// errors.As recovers.
func Execute(prog *isa.Program, initial *layout.Layout) (*Result, error) {
	return run(prog, initial, nil)
}

// ExecuteWithTrace runs prog like Execute and additionally records the
// execution timeline: one trace event per instruction with its start
// time, duration, and involved qubits.
func ExecuteWithTrace(prog *isa.Program, initial *layout.Layout) (*Result, *trace.Trace, error) {
	tr := &trace.Trace{}
	res, err := run(prog, initial, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.Program, tr.Qubits = prog.Name, prog.Qubits
	return res, tr, nil
}

func run(prog *isa.Program, initial *layout.Layout, tr *trace.Trace) (*Result, error) {
	var first verify.Violation
	rp := verify.NewReplay(prog, initial, func(v verify.Violation) bool {
		first = v
		return false
	})
	if rp == nil {
		return nil, fmt.Errorf("sim: %w", first)
	}
	l := rp.Layout()
	res := &Result{Final: l}
	res.Counts.IdleTime = make([]float64, l.Qubits())

	for idx, in := range prog.Instr {
		if !rp.Step(idx, in) {
			mnemonic := "nil"
			if in != nil {
				mnemonic = in.Mnemonic()
			}
			return nil, fmt.Errorf("sim: instruction %d (%s): %w", idx, mnemonic, first)
		}
		before := res.Breakdown.Total()
		var kind trace.Kind
		var qubits []int
		switch in := in.(type) {
		case isa.OneQLayer:
			execOneQ(in, res)
			kind = trace.KindOneQ
		case isa.MoveBatch:
			execMoveBatch(in, rp, res)
			kind = trace.KindMove
			if tr != nil {
				for _, g := range in.Groups {
					for _, m := range g.Moves {
						qubits = append(qubits, m.Qubit)
					}
				}
			}
		case isa.Rydberg:
			execRydberg(in, rp, res)
			kind = trace.KindRydberg
			if tr != nil {
				for _, p := range in.Pairs {
					qubits = append(qubits, p.A, p.B)
				}
			}
		}
		if tr != nil {
			tr.Add(trace.Event{
				Index:    idx,
				Kind:     kind,
				Start:    before,
				Duration: res.Breakdown.Total() - before,
				Qubits:   qubits,
				Detail:   in.Mnemonic(),
			})
		}
	}

	res.Components = fidelity.Compute(res.Counts)
	res.Fidelity = res.Components.Total()
	res.Time = res.Breakdown.Total()
	return res, nil
}

// execOneQ advances time by one parallel Raman layer. Qubits in the
// computation zone are being driven (or are addressable and idle for only
// the layer's 1 us), so the layer contributes gate count but no idle time;
// storage-zone qubits are shielded as always.
func execOneQ(in isa.OneQLayer, res *Result) {
	res.Counts.OneQGates += in.Count
	res.Breakdown.OneQ += phys.DurationOneQubit
}

// execMoveBatch accounts for one replayed movement batch: storage-resident
// qubits that do not move are shielded for the whole batch; everyone else
// (movers in transit, computation-zone residents) idles for its duration.
// A non-mover sits in the same zone before and after the batch, so the
// replay layout after the batch decides it.
func execMoveBatch(in isa.MoveBatch, rp *verify.Replay, res *Result) {
	dur := in.Duration()
	l := rp.Layout()
	for q := 0; q < l.Qubits(); q++ {
		if !rp.Touched(q) && l.Zone(q) == arch.Storage {
			continue
		}
		res.Counts.IdleTime[q] += dur
	}
	res.Counts.Transfers += 2 * in.MovedQubits()
	res.Breakdown.Move += dur - 2*phys.DurationTransfer
	res.Breakdown.Transfer += 2 * phys.DurationTransfer
	res.MoveBatches++
}

// execRydberg fires one replayed global pulse: scheduled pairs gain a CZ
// each, idle computation-zone qubits gain one excitation-error event
// each, and storage-zone qubits are untouched.
func execRydberg(in isa.Rydberg, rp *verify.Replay, res *Result) {
	l := rp.Layout()
	for q := 0; q < l.Qubits(); q++ {
		if rp.Touched(q) {
			continue // being operated on: no idle, no excitation error
		}
		if l.Zone(q) == arch.Compute {
			res.Counts.ExcitedIdle++
			res.Counts.IdleTime[q] += phys.DurationCZ
		}
	}
	res.Counts.CZGates += len(in.Pairs)
	res.Counts.Excitations++
	res.Breakdown.Rydberg += phys.DurationCZ
	res.Stages++
}
