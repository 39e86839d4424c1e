package sim

import (
	"errors"
	"math"
	"testing"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/phys"
	"powermove/internal/verify"
)

// fixture builds a 4-qubit machine with everyone home in the compute zone.
func fixture() (*arch.Arch, *layout.Layout) {
	a := arch.New(arch.Config{Qubits: 4})
	l := layout.New(a, 4)
	l.PlaceAll(arch.Compute)
	return a, l
}

func computeSite(r, c int) arch.Site { return arch.Site{Zone: arch.Compute, Row: r, Col: c} }
func storageSite(r, c int) arch.Site { return arch.Site{Zone: arch.Storage, Row: r, Col: c} }

func batchOf(moves ...move.Move) isa.MoveBatch {
	return isa.MoveBatch{Groups: []move.CollMove{{Moves: moves}}}
}

// TestExecuteHandCheckedProgram walks a small program and verifies every
// metric against hand-computed values: qubit 1 moves next to qubit 0
// (one 15 um hop), a Rydberg pulse fires CZ(0,1) with qubits 2 and 3 idle
// in the computation zone.
func TestExecuteHandCheckedProgram(t *testing.T) {
	a, l := fixture()
	// Home layout (2x2 grid): q0 (0,0), q1 (0,1), q2 (1,0), q3 (1,1).
	m := move.New(a, 1, computeSite(0, 1), computeSite(0, 0))
	prog := &isa.Program{Name: "hand", Qubits: 4, Instr: []isa.Instruction{
		isa.OneQLayer{Count: 4},
		batchOf(m),
		isa.Rydberg{Stage: 0, Pairs: []circuit.CZ{circuit.NewCZ(0, 1)}},
	}}
	res, err := Execute(prog, l)
	if err != nil {
		t.Fatal(err)
	}

	moveDur := phys.MoveTime(15)
	wantTime := phys.DurationOneQubit + 2*phys.DurationTransfer + moveDur + phys.DurationCZ
	if math.Abs(res.Time-wantTime) > 1e-9 {
		t.Errorf("Time = %v, want %v", res.Time, wantTime)
	}
	if res.Counts.OneQGates != 4 || res.Counts.CZGates != 1 {
		t.Errorf("gate counts = %d/%d, want 4/1", res.Counts.OneQGates, res.Counts.CZGates)
	}
	if res.Counts.Transfers != 2 {
		t.Errorf("Transfers = %d, want 2 (pickup + dropoff)", res.Counts.Transfers)
	}
	if res.Counts.Excitations != 1 || res.Counts.ExcitedIdle != 2 {
		t.Errorf("excitation counts = %d pulses, %d idle, want 1/2", res.Counts.Excitations, res.Counts.ExcitedIdle)
	}
	// All four qubits idle through the move batch (all in compute);
	// during the pulse only the idle pair 2,3 accrues idle time.
	batchDur := 2*phys.DurationTransfer + moveDur
	for q, wantIdle := range []float64{batchDur, batchDur, batchDur + phys.DurationCZ, batchDur + phys.DurationCZ} {
		if got := res.Counts.IdleTime[q]; math.Abs(got-wantIdle) > 1e-9 {
			t.Errorf("IdleTime[%d] = %v, want %v", q, got, wantIdle)
		}
	}
	wantFid := phys.FidelityCZ * math.Pow(phys.FidelityExcitation, 2) * math.Pow(phys.FidelityTransfer, 2) *
		math.Pow(1-batchDur/phys.CoherenceTime, 2) * math.Pow(1-(batchDur+phys.DurationCZ)/phys.CoherenceTime, 2)
	if math.Abs(res.Fidelity-wantFid) > 1e-12 {
		t.Errorf("Fidelity = %v, want %v", res.Fidelity, wantFid)
	}
	if res.Stages != 1 || res.MoveBatches != 1 {
		t.Errorf("Stages/MoveBatches = %d/%d, want 1/1", res.Stages, res.MoveBatches)
	}
	if res.Final.SiteOf(0) != res.Final.SiteOf(1) {
		t.Error("final layout lost the move")
	}
	if l.SiteOf(1) != computeSite(0, 1) {
		t.Error("Execute mutated the caller's initial layout")
	}
}

// TestStorageShieldsFromEverything: a qubit parked in storage accrues no
// idle time and no excitation error.
func TestStorageShields(t *testing.T) {
	a, l := fixture()
	l.Move(3, storageSite(0, 0))
	m := move.New(a, 1, computeSite(0, 1), computeSite(0, 0))
	prog := &isa.Program{Name: "shield", Qubits: 4, Instr: []isa.Instruction{
		batchOf(m),
		isa.Rydberg{Stage: 0, Pairs: []circuit.CZ{circuit.NewCZ(0, 1)}},
	}}
	res, err := Execute(prog, l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.IdleTime[3] != 0 {
		t.Errorf("storage qubit accrued idle time %v", res.Counts.IdleTime[3])
	}
	if res.Counts.ExcitedIdle != 1 {
		t.Errorf("ExcitedIdle = %d, want 1 (only qubit 2)", res.Counts.ExcitedIdle)
	}
}

// TestMoverInTransitIdles: a qubit moving into storage pays idle time for
// its own batch but is shielded afterwards.
func TestMoverInTransitIdles(t *testing.T) {
	a, l := fixture()
	in := move.New(a, 3, computeSite(1, 1), storageSite(0, 1))
	later := move.New(a, 1, computeSite(0, 1), computeSite(0, 0))
	prog := &isa.Program{Name: "transit", Qubits: 4, Instr: []isa.Instruction{
		batchOf(in),
		batchOf(later),
	}}
	res, err := Execute(prog, l)
	if err != nil {
		t.Fatal(err)
	}
	firstDur := isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{in}}}}.Duration()
	if got := res.Counts.IdleTime[3]; math.Abs(got-firstDur) > 1e-9 {
		t.Errorf("IdleTime[3] = %v, want %v (its own batch only)", got, firstDur)
	}
}

// TestIntraStageOrderingMatters: executing the move-in before an unrelated
// slow batch shields the parked qubit during that batch; the reverse order
// does not. This is the mechanism the Sec. 6.1 scheduler exploits.
func TestIntraStageOrderingMatters(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 9})
	mkLayout := func() *layout.Layout {
		l := layout.New(a, 9)
		l.PlaceAll(arch.Compute)
		return l
	}
	parkQ3 := move.New(a, 3, computeSite(1, 0), storageSite(0, 0))
	slow := move.New(a, 8, computeSite(2, 2), storageSite(0, 2))

	run := func(first, second isa.MoveBatch) float64 {
		prog := &isa.Program{Name: "order", Qubits: 9, Instr: []isa.Instruction{first, second}}
		res, err := Execute(prog, mkLayout())
		if err != nil {
			t.Fatal(err)
		}
		return res.Counts.IdleTime[3]
	}
	parkFirst := run(batchOf(parkQ3), batchOf(slow))
	parkLast := run(batchOf(slow), batchOf(parkQ3))
	if parkFirst >= parkLast {
		t.Errorf("park-first idle %v not less than park-last idle %v", parkFirst, parkLast)
	}
}

// mustFail runs prog and requires execution to fail with a wrapped
// verify.Violation of the given code.
func mustFail(t *testing.T, prog *isa.Program, l *layout.Layout, want verify.Code) {
	t.Helper()
	_, err := Execute(prog, l)
	if err == nil {
		t.Fatalf("program accepted, want %s", want)
	}
	var v verify.Violation
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, wraps no verify.Violation", err)
	}
	if v.Code != want {
		t.Fatalf("err = %v, want code %s", err, want)
	}
}

func TestExecuteRejectsQubitCountMismatch(t *testing.T) {
	_, l := fixture()
	mustFail(t, &isa.Program{Name: "bad", Qubits: 5}, l, verify.OutOfBounds)
}

func TestExecuteRejectsConflictingGroup(t *testing.T) {
	a, l := fixture()
	cross1 := move.New(a, 0, computeSite(0, 0), computeSite(0, 1))
	cross2 := move.New(a, 1, computeSite(0, 1), computeSite(0, 0))
	prog := &isa.Program{Name: "conflict", Qubits: 4, Instr: []isa.Instruction{
		batchOf(cross1, cross2),
	}}
	mustFail(t, prog, l, verify.AODConflict)
}

func TestExecuteRejectsStaleSource(t *testing.T) {
	a, l := fixture()
	wrong := move.New(a, 0, computeSite(1, 1), computeSite(0, 1)) // q0 is at (0,0)
	prog := &isa.Program{Name: "stale", Qubits: 4, Instr: []isa.Instruction{batchOf(wrong)}}
	mustFail(t, prog, l, verify.StaleSource)
}

func TestExecuteRejectsDoubleMove(t *testing.T) {
	// Two AOD arrays, so the two groups themselves are legal.
	a := arch.New(arch.Config{Qubits: 4, AODs: 2})
	l := layout.New(a, 4)
	l.PlaceAll(arch.Compute)
	m1 := move.New(a, 0, computeSite(0, 0), computeSite(1, 0))
	m2 := move.New(a, 0, computeSite(0, 0), computeSite(0, 1))
	p := &isa.Program{Name: "twice", Qubits: 4, Instr: []isa.Instruction{
		isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{m1}}, {Moves: []move.Move{m2}}}},
	}}
	mustFail(t, p, l, verify.DoubleMove)
}

func TestExecuteRejectsBadQubitInMove(t *testing.T) {
	a, l := fixture()
	m := move.New(a, 9, computeSite(0, 0), computeSite(0, 1))
	prog := &isa.Program{Name: "ghost", Qubits: 4, Instr: []isa.Instruction{batchOf(m)}}
	mustFail(t, prog, l, verify.OutOfBounds)
}

func TestExecuteRejectsEmptyBatch(t *testing.T) {
	_, l := fixture()
	prog := &isa.Program{Name: "empty", Qubits: 4, Instr: []isa.Instruction{isa.MoveBatch{}}}
	mustFail(t, prog, l, verify.EmptyInstr)
}

func TestExecuteRejectsEmptyPulse(t *testing.T) {
	_, l := fixture()
	prog := &isa.Program{Name: "nopulse", Qubits: 4, Instr: []isa.Instruction{isa.Rydberg{}}}
	mustFail(t, prog, l, verify.EmptyInstr)
}

func TestExecuteRejectsSplitPair(t *testing.T) {
	_, l := fixture()
	prog := &isa.Program{Name: "split", Qubits: 4, Instr: []isa.Instruction{
		isa.Rydberg{Pairs: []circuit.CZ{circuit.NewCZ(0, 1)}},
	}}
	mustFail(t, prog, l, verify.SplitPair)
}

func TestExecuteRejectsClustering(t *testing.T) {
	a, l := fixture()
	// Move q2 onto q0's site and q1 onto q3's.
	m := move.New(a, 2, computeSite(1, 0), computeSite(0, 0))
	m2 := move.New(a, 1, computeSite(0, 1), computeSite(1, 1))
	prog := &isa.Program{Name: "cluster", Qubits: 4, Instr: []isa.Instruction{
		batchOf(m), batchOf(m2),
		isa.Rydberg{Pairs: []circuit.CZ{circuit.NewCZ(0, 2), circuit.NewCZ(1, 3)}},
	}}
	// This one is legal (pairs co-located); now make it illegal by
	// pulsing only (1, 3): site (0,0) holds the non-interacting
	// cohabitants 0 and 2.
	if _, err := Execute(prog, l); err != nil {
		t.Fatalf("setup program rejected: %v", err)
	}
	bad := &isa.Program{Name: "cluster-bad", Qubits: 4, Instr: []isa.Instruction{
		batchOf(m), batchOf(m2),
		isa.Rydberg{Pairs: []circuit.CZ{circuit.NewCZ(1, 3)}},
	}}
	mustFail(t, bad, l, verify.StrayPair)
}

func TestExecuteRejectsQubitReuseInStage(t *testing.T) {
	// The only qubit reuse that survives the occupancy rules is a
	// duplicated pair (a qubit cannot co-locate with two partners at
	// once); the executor must still reject it.
	a, l := fixture()
	m := move.New(a, 1, computeSite(0, 1), computeSite(0, 0))
	prog := &isa.Program{Name: "reuse", Qubits: 4, Instr: []isa.Instruction{
		batchOf(m),
		isa.Rydberg{Pairs: []circuit.CZ{circuit.NewCZ(0, 1), circuit.NewCZ(0, 1)}},
	}}
	mustFail(t, prog, l, verify.QubitReuse)
}

func TestExecuteRejectsNegativeOneQ(t *testing.T) {
	_, l := fixture()
	prog := &isa.Program{Name: "neg", Qubits: 4, Instr: []isa.Instruction{isa.OneQLayer{Count: -1}}}
	mustFail(t, prog, l, verify.EmptyInstr)
}

func TestExecuteRejectsPairInStorage(t *testing.T) {
	a, l := fixture()
	m0 := move.New(a, 0, computeSite(0, 0), storageSite(0, 0))
	m1 := move.New(a, 1, computeSite(0, 1), storageSite(0, 0))
	prog := &isa.Program{Name: "storage-pair", Qubits: 4, Instr: []isa.Instruction{
		batchOf(m0), batchOf(m1),
		isa.Rydberg{Pairs: []circuit.CZ{circuit.NewCZ(0, 1)}},
	}}
	mustFail(t, prog, l, verify.StorageInteraction)
}

func TestBreakdownSumsToTotal(t *testing.T) {
	a, l := fixture()
	m := move.New(a, 1, computeSite(0, 1), computeSite(0, 0))
	prog := &isa.Program{Name: "sum", Qubits: 4, Instr: []isa.Instruction{
		isa.OneQLayer{Count: 4},
		batchOf(m),
		isa.Rydberg{Pairs: []circuit.CZ{circuit.NewCZ(0, 1)}},
	}}
	res, err := Execute(prog, l)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Breakdown.OneQ + res.Breakdown.Move + res.Breakdown.Transfer + res.Breakdown.Rydberg
	if math.Abs(sum-res.Time) > 1e-9 {
		t.Errorf("breakdown sums to %v, Time = %v", sum, res.Time)
	}
}
