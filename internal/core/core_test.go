package core

import (
	"strings"
	"testing"

	"powermove"
	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/isa"
	"powermove/internal/sim"
	"powermove/internal/workload"
)

func allWorkloads() []*circuit.Circuit {
	return []*circuit.Circuit{
		workload.QAOARegular(20, 3, 1),
		workload.QAOARegular(16, 4, 2),
		workload.QAOARandom(14, 3),
		workload.QFT(10),
		workload.BV(12, 4),
		workload.VQE(15),
		workload.QSim(12, 5),
	}
}

// TestCompileAndExecuteAllWorkloads is the pipeline's integration test:
// every benchmark family compiles in both modes and executes without any
// constraint violation, with every source CZ gate accounted for.
func TestCompileAndExecuteAllWorkloads(t *testing.T) {
	for _, c := range allWorkloads() {
		for _, storage := range []bool{false, true} {
			a := arch.New(arch.Config{Qubits: c.Qubits})
			res, err := powermove.Compile(c, a, powermove.Options{UseStorage: storage})
			if err != nil {
				t.Fatalf("%s storage=%v: compile: %v", c.Name, storage, err)
			}
			exec, err := sim.Execute(res.Program, res.Initial)
			if err != nil {
				t.Fatalf("%s storage=%v: execute: %v", c.Name, storage, err)
			}
			if exec.Counts.CZGates != c.CZCount() {
				t.Errorf("%s storage=%v: executed %d CZ, circuit has %d",
					c.Name, storage, exec.Counts.CZGates, c.CZCount())
			}
			if exec.Counts.OneQGates != c.OneQCount() {
				t.Errorf("%s storage=%v: executed %d 1Q, circuit has %d",
					c.Name, storage, exec.Counts.OneQGates, c.OneQCount())
			}
			if exec.Fidelity <= 0 || exec.Fidelity > 1 {
				t.Errorf("%s storage=%v: fidelity %v out of (0, 1]", c.Name, storage, exec.Fidelity)
			}
			if storage && exec.Counts.ExcitedIdle != 0 {
				t.Errorf("%s: storage mode exposed %d idle qubits to excitation",
					c.Name, exec.Counts.ExcitedIdle)
			}
		}
	}
}

// TestStorageEliminatesExcitationError is the paper's headline mechanism:
// with the storage zone, the excitation fidelity component is exactly 1.
func TestStorageEliminatesExcitationError(t *testing.T) {
	c := workload.BV(20, 1)
	a := arch.New(arch.Config{Qubits: 20})
	res, err := powermove.Compile(c, a, powermove.Options{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.Execute(res.Program, res.Initial)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Components.Excitation != 1 {
		t.Errorf("excitation component = %v, want exactly 1", exec.Components.Excitation)
	}

	flat, err := powermove.Compile(c, a, powermove.Options{UseStorage: false})
	if err != nil {
		t.Fatal(err)
	}
	flatExec, err := sim.Execute(flat.Program, flat.Initial)
	if err != nil {
		t.Fatal(err)
	}
	if flatExec.Components.Excitation >= 1 {
		t.Error("non-storage mode shows no excitation error on BV — suspicious")
	}
	if exec.Fidelity <= flatExec.Fidelity {
		t.Errorf("with-storage fidelity %v not above non-storage %v", exec.Fidelity, flatExec.Fidelity)
	}
}

// TestDeterminism: the compiler is a pure function of (circuit, arch,
// options).
func TestDeterminism(t *testing.T) {
	c := workload.QAOARegular(30, 3, 8)
	a := arch.New(arch.Config{Qubits: 30})
	for _, opts := range []powermove.Options{
		{UseStorage: true},
		{UseStorage: false},
		{UseStorage: true, RandomMover: true, Seed: 7},
	} {
		r1, err := powermove.Compile(c, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := powermove.Compile(c, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Program.Instr) != len(r2.Program.Instr) {
			t.Fatalf("opts %+v: instruction counts differ", opts)
		}
		e1, err := sim.Execute(r1.Program, r1.Initial)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := sim.Execute(r2.Program, r2.Initial)
		if err != nil {
			t.Fatal(err)
		}
		if e1.Fidelity != e2.Fidelity || e1.Time != e2.Time {
			t.Fatalf("opts %+v: executions differ", opts)
		}
	}
}

// TestInitialLayoutPerMode: with storage everything starts in the storage
// zone (Sec. 4.2); without, in the computation zone.
func TestInitialLayoutPerMode(t *testing.T) {
	c := workload.VQE(9)
	a := arch.New(arch.Config{Qubits: 9})
	zoned, err := powermove.Compile(c, a, powermove.Options{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 9; q++ {
		if zoned.Initial.Zone(q) != arch.Storage {
			t.Fatalf("zoned initial layout has qubit %d in %v", q, zoned.Initial.Zone(q))
		}
	}
	flat, err := powermove.Compile(c, a, powermove.Options{UseStorage: false})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 9; q++ {
		if flat.Initial.Zone(q) != arch.Compute {
			t.Fatalf("flat initial layout has qubit %d in %v", q, flat.Initial.Zone(q))
		}
	}
}

func TestCompileRejections(t *testing.T) {
	c := workload.VQE(10)
	a := arch.New(arch.Config{Qubits: 10})
	if _, err := powermove.Compile(c, a, powermove.Options{Alpha: 1.5}); err == nil {
		t.Error("alpha out of range accepted")
	}
	// Unknown grouping names used to silently select the default; the
	// pipeline registry rejects them with a descriptive error.
	if _, err := powermove.Compile(c, a, powermove.Options{Grouping: "nearest"}); err == nil {
		t.Error("unknown grouping accepted")
	} else if !strings.Contains(err.Error(), `"nearest"`) {
		t.Errorf("grouping error %q does not name the bad value", err)
	}
	small := arch.New(arch.Config{Qubits: 4})
	if _, err := powermove.Compile(c, small, powermove.Options{}); err == nil {
		t.Error("circuit larger than compute zone accepted")
	}
	bad := circuit.New("bad", 4)
	bad.AddBlock(-1)
	if _, err := powermove.Compile(bad, small, powermove.Options{}); err == nil {
		t.Error("invalid circuit accepted")
	}
}

// TestAODBatching: with k AODs, no batch carries more than k groups, and
// more AODs never slow execution down.
func TestAODBatching(t *testing.T) {
	c := workload.QAOARegular(30, 3, 13)
	prev := 0.0
	for aods := 1; aods <= 4; aods++ {
		a := arch.New(arch.Config{Qubits: 30, AODs: aods})
		res, err := powermove.Compile(c, a, powermove.Options{UseStorage: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range res.Program.Instr {
			if mb, ok := in.(isa.MoveBatch); ok && len(mb.Groups) > aods {
				t.Fatalf("aods=%d: batch with %d groups", aods, len(mb.Groups))
			}
		}
		exec, err := sim.Execute(res.Program, res.Initial)
		if err != nil {
			t.Fatal(err)
		}
		if aods > 1 && exec.Time > prev {
			t.Errorf("aods=%d slower (%v) than aods=%d (%v)", aods, exec.Time, aods-1, prev)
		}
		prev = exec.Time
	}
}

// TestAblationOptionsCompile: every ablation switch still yields a valid
// executable program.
func TestAblationOptionsCompile(t *testing.T) {
	c := workload.QAOARegular(20, 3, 21)
	a := arch.New(arch.Config{Qubits: 20})
	for name, opts := range map[string]powermove.Options{
		"no stage order":       {UseStorage: true, DisableStageOrder: true},
		"no intra-stage order": {UseStorage: true, DisableIntraStageOrder: true},
		"distance grouping":    {UseStorage: true, Grouping: compiler.GroupingDistance},
		"in-order grouping":    {UseStorage: true, Grouping: compiler.GroupingInOrder},
		"random mover":         {UseStorage: true, RandomMover: true, Seed: 3},
	} {
		res, err := powermove.Compile(c, a, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sim.Execute(res.Program, res.Initial); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestStatsConsistency: compiler statistics agree with the emitted
// program.
func TestStatsConsistency(t *testing.T) {
	c := workload.QAOARegular(20, 3, 34)
	a := arch.New(arch.Config{Qubits: 20})
	res, err := powermove.Compile(c, a, powermove.Options{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	count := res.Program.Count()
	if res.Stats.Stages != count.Rydbergs {
		t.Errorf("Stats.Stages = %d, program has %d Rydberg pulses", res.Stats.Stages, count.Rydbergs)
	}
	if res.Stats.Batches != count.MoveBatches {
		t.Errorf("Stats.Batches = %d, program has %d move batches", res.Stats.Batches, count.MoveBatches)
	}
	if res.Stats.Moves != count.MovedQubits {
		t.Errorf("Stats.Moves = %d, program moves %d qubits", res.Stats.Moves, count.MovedQubits)
	}
	if res.Stats.Blocks != len(c.Blocks) {
		t.Errorf("Stats.Blocks = %d, want %d", res.Stats.Blocks, len(c.Blocks))
	}
	if res.Stats.CompileTime <= 0 {
		t.Error("CompileTime not recorded")
	}
}

// TestEmptyCircuit: a circuit with only 1Q layers compiles to 1Q
// instructions and nothing else.
func TestOneQOnlyCircuit(t *testing.T) {
	c := circuit.New("only1q", 4)
	c.AddBlock(4)
	c.AddBlock(2)
	a := arch.New(arch.Config{Qubits: 4})
	res, err := powermove.Compile(c, a, powermove.Options{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	count := res.Program.Count()
	if count.Rydbergs != 0 || count.MoveBatches != 0 || count.OneQLayers != 2 {
		t.Errorf("instruction mix = %+v", count)
	}
	exec, err := sim.Execute(res.Program, res.Initial)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Fidelity != 1 {
		t.Errorf("1Q-only headline fidelity = %v, want 1 (1Q term excluded)", exec.Fidelity)
	}
}

// TestFullComputeZoneCapacity: n equal to the compute-site count compiles
// in both modes (the tightest Table-2 configuration, QAOA-regular3-100).
func TestFullComputeZoneCapacity(t *testing.T) {
	c := workload.QAOARegular(100, 3, 55)
	a := arch.New(arch.Config{Qubits: 100})
	for _, storage := range []bool{false, true} {
		res, err := powermove.Compile(c, a, powermove.Options{UseStorage: storage})
		if err != nil {
			t.Fatalf("storage=%v: %v", storage, err)
		}
		if _, err := sim.Execute(res.Program, res.Initial); err != nil {
			t.Fatalf("storage=%v: %v", storage, err)
		}
	}
}

// TestFuseBlocksOption: fusion reduces Rydberg stages on QSim while the
// executed gate set stays identical. The structural fidelity win shows in
// non-storage mode, where every eliminated pulse removes excitation error
// from all idle qubits (with storage, excitation is already zero and the
// fidelity effect is workload-dependent movement noise).
func TestFuseBlocksOption(t *testing.T) {
	c := workload.QSim(20, 9)
	a := arch.New(arch.Config{Qubits: 20})
	plain, err := powermove.Compile(c, a, powermove.Options{UseStorage: false})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := powermove.Compile(c, a, powermove.Options{UseStorage: false, FuseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Stats.Stages >= plain.Stats.Stages {
		t.Errorf("fusion did not reduce stages: %d vs %d", fused.Stats.Stages, plain.Stats.Stages)
	}
	pe, err := sim.Execute(plain.Program, plain.Initial)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := sim.Execute(fused.Program, fused.Initial)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Counts.CZGates != fe.Counts.CZGates {
		t.Error("fusion changed executed gate count")
	}
	if fe.Counts.Excitations >= pe.Counts.Excitations {
		t.Errorf("fusion did not reduce Rydberg pulses: %d vs %d",
			fe.Counts.Excitations, pe.Counts.Excitations)
	}
	if fe.Counts.ExcitedIdle >= pe.Counts.ExcitedIdle {
		t.Errorf("fusion did not reduce excitation exposure: %d vs %d",
			fe.Counts.ExcitedIdle, pe.Counts.ExcitedIdle)
	}
}
