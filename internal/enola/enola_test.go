package enola

import (
	"testing"

	"powermove"
	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/sim"
	"powermove/internal/workload"
)

func TestCompileExecutesCleanly(t *testing.T) {
	circs := []*circuit.Circuit{
		workload.QAOARegular(20, 3, 1),
		workload.QFT(10),
		workload.BV(12, 2),
		workload.VQE(15),
		workload.QSim(12, 3),
	}
	for _, c := range circs {
		a := arch.New(arch.Config{Qubits: c.Qubits})
		res, err := powermove.CompileEnola(c, a, powermove.EnolaOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: compile: %v", c.Name, err)
		}
		exec, err := sim.Execute(res.Program, res.Initial)
		if err != nil {
			t.Fatalf("%s: execute: %v", c.Name, err)
		}
		if exec.Fidelity <= 0 || exec.Fidelity > 1 {
			t.Errorf("%s: fidelity %v out of (0, 1]", c.Name, exec.Fidelity)
		}
		if got := exec.Counts.CZGates; got != c.CZCount() {
			t.Errorf("%s: executed %d CZ gates, circuit has %d", c.Name, got, c.CZCount())
		}
	}
}

// TestRevertsToHome: after execution, every qubit is back at its home
// site — the defining behaviour of the baseline's movement scheme.
func TestRevertsToHome(t *testing.T) {
	c := workload.QAOARegular(16, 3, 5)
	a := arch.New(arch.Config{Qubits: 16})
	res, err := powermove.CompileEnola(c, a, powermove.EnolaOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.Execute(res.Program, res.Initial)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 16; q++ {
		if exec.Final.SiteOf(q) != res.Initial.SiteOf(q) {
			t.Fatalf("qubit %d ended at %v, home is %v", q, exec.Final.SiteOf(q), res.Initial.SiteOf(q))
		}
	}
}

// TestNeverUsesStorage: the baseline is confined to the computation zone.
func TestNeverUsesStorage(t *testing.T) {
	c := workload.BV(12, 7)
	a := arch.New(arch.Config{Qubits: 12})
	res, err := powermove.CompileEnola(c, a, powermove.EnolaOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	count := res.Program.Count()
	if count.MovedQubits == 0 {
		t.Fatal("baseline moved nothing")
	}
	exec, err := sim.Execute(res.Program, res.Initial)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 12; q++ {
		if exec.Final.Zone(q) != arch.Compute {
			t.Fatalf("qubit %d in storage under the baseline", q)
		}
	}
}

// TestDoubleMovementVolume: the revert scheme moves exactly twice per
// forward relocation.
func TestDoubleMovementVolume(t *testing.T) {
	c := workload.QAOARegular(20, 3, 9)
	a := arch.New(arch.Config{Qubits: 20})
	res, err := powermove.CompileEnola(c, a, powermove.EnolaOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One forward move per gate, one revert per gate.
	if want := 2 * c.CZCount(); res.Stats.Moves != want {
		t.Errorf("Moves = %d, want %d (out and back per gate)", res.Stats.Moves, want)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	c := workload.QAOARegular(20, 3, 11)
	a := arch.New(arch.Config{Qubits: 20})
	r1, err := powermove.CompileEnola(c, a, powermove.EnolaOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := powermove.CompileEnola(c, a, powermove.EnolaOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Program.Instr) != len(r2.Program.Instr) {
		t.Fatal("same seed produced different programs")
	}
	c1, c2 := r1.Program.Count(), r2.Program.Count()
	if c1 != c2 {
		t.Fatalf("same seed produced different instruction mixes: %+v vs %+v", c1, c2)
	}
}

func TestCompileRejections(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 4})
	big := workload.VQE(10) // 10 qubits > 4 compute sites? 4 -> 2x2 grid
	if _, err := powermove.CompileEnola(big, a, powermove.EnolaOptions{}); err == nil {
		t.Error("oversized circuit accepted")
	}
	bad := circuit.New("bad", 4)
	bad.AddBlock(0, circuit.NewCZ(0, 9))
	if _, err := powermove.CompileEnola(bad, arch.New(arch.Config{Qubits: 4}), powermove.EnolaOptions{}); err == nil {
		t.Error("invalid circuit accepted")
	}
	good := workload.VQE(4)
	if _, err := powermove.CompileEnola(good, arch.New(arch.Config{Qubits: 4}), powermove.EnolaOptions{Restarts: -1}); err == nil {
		t.Error("negative restarts accepted")
	}
}

// TestPassBreakdown: the baseline reports through the shared compiler
// stats type, including a per-pass breakdown whose counters agree with
// the aggregate Stats.
func TestPassBreakdown(t *testing.T) {
	c := workload.QAOARegular(16, 3, 5)
	a := arch.New(arch.Config{Qubits: 16})
	res, err := powermove.CompileEnola(c, a, powermove.EnolaOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var moves int64
	for _, p := range res.Stats.Passes {
		moves += p.Counters["moves"]
	}
	if moves != int64(res.Stats.Moves) {
		t.Errorf("per-pass move counters sum to %d, Stats.Moves = %d", moves, res.Stats.Moves)
	}
}
