package compiler

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/layout"
	"powermove/internal/stage"
	"powermove/internal/workload"
)

// TestPipelineValidation: New rejects malformed compositions before any
// work happens.
func TestPipelineValidation(t *testing.T) {
	ok := NewPass("ok", func(*Context) error { return nil })
	cases := []struct {
		name   string
		pname  string
		passes []Pass
	}{
		{"empty name", "", []Pass{ok}},
		{"no passes", "p", nil},
		{"nil pass", "p", []Pass{ok, nil}},
		{"unnamed pass", "p", []Pass{NewPass("", nil)}},
		{"duplicate pass", "p", []Pass{ok, ok}},
	}
	for _, tc := range cases {
		if _, err := New(tc.pname, tc.passes...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New("p", ok); err != nil {
		t.Errorf("valid pipeline rejected: %v", err)
	}
}

// TestConfigValidation: the pipeline constructors reject bad
// configurations with descriptive errors — the grouping registry is the
// one place unknown names fail.
func TestConfigValidation(t *testing.T) {
	if _, err := Zoned(ZonedConfig{Grouping: "grouping(7)"}); err == nil {
		t.Error("unknown grouping accepted")
	} else if !strings.Contains(err.Error(), "grouping(7)") || !strings.Contains(err.Error(), GroupingMerged) {
		t.Errorf("grouping error %q names neither the bad value nor the valid names", err)
	}
	if _, err := Zoned(ZonedConfig{Alpha: 1.5}); err == nil {
		t.Error("alpha out of range accepted")
	}
	if _, err := Enola(EnolaConfig{Restarts: -1}); err == nil {
		t.Error("negative restarts accepted")
	}
	for _, name := range GroupingNames() {
		if err := ValidateGrouping(name); err != nil {
			t.Errorf("registry name %q rejected: %v", name, err)
		}
		if _, err := Zoned(ZonedConfig{Grouping: name}); err != nil {
			t.Errorf("Zoned rejected registry name %q: %v", name, err)
		}
	}
	if err := ValidateGrouping("nope"); err == nil {
		t.Error("ValidateGrouping accepted an unknown name")
	}
}

// TestPipelinePassLists pins the pass compositions the ARCHITECTURE
// docs describe, including ablation-driven substitution.
func TestPipelinePassLists(t *testing.T) {
	cases := []struct {
		name string
		p    func() (*Pipeline, error)
		want string
	}{
		{"zoned", func() (*Pipeline, error) { return Zoned(ZonedConfig{UseStorage: true}) },
			"validate place lower"},
		{"zoned-fuse", func() (*Pipeline, error) { return Zoned(ZonedConfig{FuseBlocks: true}) },
			"validate fuse place lower"},
		{"enola", func() (*Pipeline, error) { return Enola(EnolaConfig{}) },
			"validate place lower"},
	}
	for _, tc := range cases {
		p, err := tc.p()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := strings.Join(p.Passes(), " "); got != tc.want {
			t.Errorf("%s passes = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRunRejections: run-time validation still catches what only the
// circuit/architecture pair can reveal.
func TestRunRejections(t *testing.T) {
	small := arch.New(arch.Config{Qubits: 4})
	big := workload.VQE(10)
	for _, build := range []func() (*Pipeline, error){
		func() (*Pipeline, error) { return Zoned(ZonedConfig{}) },
		func() (*Pipeline, error) { return Enola(EnolaConfig{}) },
	} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(big, small); err == nil {
			t.Errorf("%s: oversized circuit accepted", p.Name())
		}
		bad := circuit.New("bad", 4)
		bad.AddBlock(-1)
		if _, err := p.Run(bad, small); err == nil {
			t.Errorf("%s: invalid circuit accepted", p.Name())
		}
		if _, err := p.Run(nil, small); err == nil {
			t.Errorf("%s: nil circuit accepted", p.Name())
		}
	}
}

// TestPassErrorsCarryNames: a failing pass surfaces its pipeline and
// pass name in the error chain.
func TestPassErrorsCarryNames(t *testing.T) {
	sentinel := errors.New("boom")
	p, err := New("demo", NewPass("explode", func(*Context) error { return sentinel }))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(circuit.New("c", 2), arch.New(arch.Config{Qubits: 2}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("sentinel lost: %v", err)
	}
	if !strings.Contains(err.Error(), "demo") || !strings.Contains(err.Error(), "explode") {
		t.Errorf("error %q does not name the pipeline and pass", err)
	}
}

// TestNestedPassAccounting: a composite pass's recorded self-time and
// counters exclude its children's, so breakdowns sum without double
// counting.
func TestNestedPassAccounting(t *testing.T) {
	child := NewPass("child", func(ctx *Context) error {
		ctx.Stats.Moves += 3
		return nil
	})
	parent := NewPass("parent", func(ctx *Context) error {
		ctx.Stats.Blocks++
		for i := 0; i < 2; i++ {
			if err := ctx.RunPass(child); err != nil {
				return err
			}
		}
		return nil
	})
	p, err := New("demo", parent)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(circuit.New("c", 2), arch.New(arch.Config{Qubits: 2}))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PassStat{}
	for _, st := range res.Stats.Passes {
		byName[st.Pass] = st
	}
	if got := byName["child"]; got.Calls != 2 || got.Counters["moves"] != 6 {
		t.Errorf("child accounting = %+v", got)
	}
	pa := byName["parent"]
	if pa.Calls != 1 || pa.Counters["blocks"] != 1 {
		t.Errorf("parent accounting = %+v", pa)
	}
	if _, leaked := pa.Counters["moves"]; leaked {
		t.Error("parent was charged its child's counters")
	}
	if res.Stats.Moves != 6 || res.Stats.Blocks != 1 {
		t.Errorf("aggregate stats = %+v", res.Stats)
	}
	if res.Stats.Passes[0].Pass != "parent" {
		t.Errorf("breakdown order starts with %q, want the composite first", res.Stats.Passes[0].Pass)
	}
}

// TestPipelineReuse: a Pipeline holds no per-run state — repeated runs
// (the daemon reuses validated pipelines across requests) produce
// identical programs.
func TestPipelineReuse(t *testing.T) {
	c := workload.QAOARegular(20, 3, 8)
	a := arch.New(arch.Config{Qubits: 20})
	p, err := Zoned(ZonedConfig{UseStorage: true, RandomMover: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.Run(c, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(c, a)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Program.Disassemble() != r2.Program.Disassemble() {
		t.Error("reusing a pipeline changed its output")
	}
}

// TestMISStagesDisjointAndComplete validates the baseline's scheduler on
// random commutable blocks (moved from internal/enola with the pass
// logic).
func TestMISStagesDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(20)
		var gates []circuit.CZ
		seen := make(map[circuit.CZ]bool)
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			g := circuit.NewCZ(a, b)
			if !seen[g] {
				seen[g] = true
				gates = append(gates, g)
			}
		}
		if len(gates) == 0 {
			continue
		}
		stages := misStages(gates, 4, rng, new(restartLedger))
		total := 0
		for _, st := range stages {
			if !st.Disjoint() {
				t.Fatalf("trial %d: stage not disjoint", trial)
			}
			total += len(st.Gates)
		}
		if total != len(gates) {
			t.Fatalf("trial %d: stages cover %d gates, want %d", trial, total, len(gates))
		}
	}
}

// TestMISFindsPerfectMatchingOnChain: with restarts, the baseline finds
// the 2-stage schedule of a linear chain, matching its near-optimal
// scheduling claim.
func TestMISFindsPerfectMatchingOnChain(t *testing.T) {
	var gates []circuit.CZ
	for i := 0; i+1 < 20; i++ {
		gates = append(gates, circuit.NewCZ(i, i+1))
	}
	stages := misStages(gates, 64, rand.New(rand.NewSource(1)), new(restartLedger))
	if len(stages) > 3 {
		t.Errorf("chain scheduled into %d stages, want <= 3", len(stages))
	}
}

// TestRestartLedgerSettleMatchesPerm: settling a ledger leaves the RNG
// exactly where one rng.Perm(n) call per skipped restart would, across
// runs of different n, a zero-vertex run and a merged run.
func TestRestartLedgerSettleMatchesPerm(t *testing.T) {
	runs := []owedPerms{{1, 3}, {7, 2}, {0, 4}, {40, 1}, {7, 5}, {7, 1}}
	perm := rand.New(rand.NewSource(99))
	settled := rand.New(rand.NewSource(99))
	var l restartLedger
	for _, o := range runs {
		for range o.count {
			perm.Perm(o.n)
		}
		l.skip(o.n, o.count)
	}
	l.settle(settled)
	if len(l.owed) != 0 {
		t.Fatalf("settle left %d runs owed", len(l.owed))
	}
	if got, want := settled.Int63(), perm.Int63(); got != want {
		t.Fatalf("next Int63 after settle = %d, after Perm calls = %d", got, want)
	}
}

// TestStageMoves: the lower-indexed qubit travels to its partner's home.
func TestStageMoves(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 4})
	l := layout.New(a, 4)
	l.PlaceAll(arch.Compute)
	st := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(2, 0)}}
	moves := stageMoves(l, st)
	if len(moves) != 1 {
		t.Fatalf("%d moves, want 1", len(moves))
	}
	if moves[0].Qubit != 0 || moves[0].ToSite != l.SiteOf(2) {
		t.Errorf("move = %v, want q0 -> site of q2", moves[0])
	}
	rev := reverseMoves(moves)
	if rev[0].FromSite != moves[0].ToSite || rev[0].ToSite != moves[0].FromSite {
		t.Error("reverse did not invert endpoints")
	}
}

// TestCounterDeltaNames pins the counter naming shared by JSON
// consumers (CLI breakdowns, daemon /metrics).
func TestCounterDeltaNames(t *testing.T) {
	d := Stats{Blocks: 1, Stages: 2, Moves: 3, CollMoves: 4, Batches: 5}.counterDelta(Stats{})
	for _, k := range []string{"blocks", "stages", "moves", "coll_moves", "batches"} {
		if _, ok := d[k]; !ok {
			t.Errorf("counter %q missing from delta %v", k, d)
		}
	}
	if d := (Stats{}).counterDelta(Stats{}); d != nil {
		t.Errorf("zero delta allocated %v", d)
	}
}
