package compiler_test

// Differential golden tests: the pass-manager pipelines must be
// byte-identical to the monolithic compile loops they replaced. The
// legacy loops are preserved verbatim below (from internal/core and
// internal/enola before the pass refactor) and every workload family is
// compiled by both implementations across the full option matrix —
// storage on/off, every grouping, every ablation, fusion, the random
// mover — comparing program disassembly, initial layout, and the
// aggregate statistics counters.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/collsched"
	"powermove/internal/compiler"
	"powermove/internal/fuse"
	"powermove/internal/graphutil"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/router"
	"powermove/internal/stage"
	"powermove/internal/viz"
	"powermove/internal/workload"
)

// legacyZonedOptions mirrors the pre-refactor core.Options.
type legacyZonedOptions struct {
	UseStorage             bool
	Alpha                  float64
	RandomMover            bool
	Seed                   int64
	DisableStageOrder      bool
	DisableIntraStageOrder bool
	Grouping               int // 0 merged, 1 distance, 2 in-order
	FuseBlocks             bool
}

type legacyStats struct {
	Blocks, Stages, Moves, CollMoves, Batches int
}

// legacyZonedCompile is the pre-refactor core.Compile loop, verbatim
// except for returning the bare counters instead of a Stats struct.
func legacyZonedCompile(t *testing.T, circ *circuit.Circuit, a *arch.Arch, opts legacyZonedOptions) (*isa.Program, *layout.Layout, legacyStats) {
	t.Helper()
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = stage.DefaultAlpha
	}
	if opts.FuseBlocks {
		circ = fuse.Circuit(circ, fuse.Options{})
	}

	initial := layout.New(a, circ.Qubits)
	if opts.UseStorage {
		initial.PlaceAll(arch.Storage)
	} else {
		initial.PlaceAll(arch.Compute)
	}

	l := initial.Clone()
	var rng *rand.Rand
	if opts.RandomMover {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	prog := &isa.Program{Name: circ.Name, Qubits: circ.Qubits}
	var stats legacyStats

	stageID := 0
	for bi := range circ.Blocks {
		b := &circ.Blocks[bi]
		stats.Blocks++
		if b.OneQ > 0 {
			prog.Instr = append(prog.Instr, isa.OneQLayer{Count: b.OneQ})
		}
		stages := stage.Partition(b.Gates)
		if opts.UseStorage && !opts.DisableStageOrder {
			stages = stage.Order(stages, alpha)
		}
		for _, st := range stages {
			moves, err := router.Route(l, st, opts.UseStorage, rng)
			if err != nil {
				t.Fatalf("legacy route: block %d stage %d: %v", bi, stageID, err)
			}
			var groups []move.CollMove
			switch opts.Grouping {
			case 1:
				groups = move.GroupByDistance(moves)
			case 2:
				groups = move.GroupInOrder(moves)
			default:
				groups = move.Group(moves)
			}
			if opts.UseStorage && !opts.DisableIntraStageOrder {
				groups = collsched.OrderByStorageFlow(groups)
			}
			batches := collsched.Batch(groups, a.AODs)
			for _, batch := range batches {
				prog.Instr = append(prog.Instr, batch)
			}
			prog.Instr = append(prog.Instr, isa.Rydberg{Stage: stageID, Pairs: st.Gates})

			stats.Stages++
			stats.Moves += len(moves)
			stats.CollMoves += len(groups)
			stats.Batches += len(batches)
			stageID++
		}
	}
	return prog, initial, stats
}

// refMISStages and refRandomMIS are the eager Enola staging kernel,
// frozen: every restart scans its permutation, whether or not it can
// still beat the best set. The compiler skips the restarts that cannot;
// the tests below pin its stages to this reference.
func refMISStages(gates []circuit.CZ, restarts int, rng *rand.Rand) []stage.Stage {
	if len(gates) == 0 {
		return nil
	}
	g := stage.ConflictGraph(gates)
	removed := make([]bool, len(gates))
	remaining := len(gates)
	var stages []stage.Stage
	for remaining > 0 {
		best := g.MaximalIndependentSet(removed)
		for r := 0; r < restarts; r++ {
			if cand := refRandomMIS(g, removed, rng); len(cand) > len(best) {
				best = cand
			}
		}
		st := stage.Stage{Gates: make([]circuit.CZ, 0, len(best))}
		for _, gi := range best {
			st.Gates = append(st.Gates, gates[gi])
			removed[gi] = true
		}
		remaining -= len(best)
		stages = append(stages, st)
	}
	return stages
}

func refRandomMIS(g *graphutil.Graph, removed []bool, rng *rand.Rand) []int {
	order := rng.Perm(g.N())
	taken := make([]bool, g.N())
	var mis []int
	for _, v := range order {
		if removed[v] {
			continue
		}
		ok := true
		for _, u := range g.Adjacent(v) {
			if taken[u] {
				ok = false
				break
			}
		}
		if ok {
			taken[v] = true
			mis = append(mis, v)
		}
	}
	return mis
}

// legacyEnolaCompile is the pre-refactor enola.Compile loop, verbatim
// except that it stages through the frozen eager reference above.
func legacyEnolaCompile(t *testing.T, circ *circuit.Circuit, a *arch.Arch, restarts int, seed int64) (*isa.Program, *layout.Layout, legacyStats) {
	t.Helper()
	home := layout.New(a, circ.Qubits)
	home.PlaceAll(arch.Compute)
	rng := rand.New(rand.NewSource(seed))
	prog := &isa.Program{Name: circ.Name, Qubits: circ.Qubits}
	var stats legacyStats

	stageID := 0
	for bi := range circ.Blocks {
		b := &circ.Blocks[bi]
		stats.Blocks++
		if b.OneQ > 0 {
			prog.Instr = append(prog.Instr, isa.OneQLayer{Count: b.OneQ})
		}
		r := restarts
		if r == 0 {
			r = 2 * len(b.Gates)
			if r < compiler.MinRestarts {
				r = compiler.MinRestarts
			}
		}
		for _, st := range refMISStages(b.Gates, r, rng) {
			var forward []move.Move
			for _, g := range st.Gates {
				forward = append(forward, move.New(a, g.A, home.SiteOf(g.A), home.SiteOf(g.B)))
			}
			backward := make([]move.Move, len(forward))
			for i, m := range forward {
				backward[i] = move.Move{
					Qubit:    m.Qubit,
					FromSite: m.ToSite,
					ToSite:   m.FromSite,
					From:     m.To,
					To:       m.From,
				}
			}

			outBatches := collsched.Batch(move.GroupInOrder(forward), a.AODs)
			backBatches := collsched.Batch(move.GroupInOrder(backward), a.AODs)
			for _, batch := range outBatches {
				prog.Instr = append(prog.Instr, batch)
			}
			prog.Instr = append(prog.Instr, isa.Rydberg{Stage: stageID, Pairs: st.Gates})
			for _, batch := range backBatches {
				prog.Instr = append(prog.Instr, batch)
			}

			stats.Stages++
			stats.Moves += len(forward) + len(backward)
			stats.CollMoves += len(outBatches) + len(backBatches)
			stats.Batches += len(outBatches) + len(backBatches)
			stageID++
		}
	}

	initial := layout.New(a, circ.Qubits)
	initial.PlaceAll(arch.Compute)
	return prog, initial, stats
}

func diffWorkloads() []*circuit.Circuit {
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

// compare pins a pipeline result against a legacy compile: identical
// instruction stream (by disassembly), identical initial layout, and
// identical counters.
func compare(t *testing.T, label string, res *compiler.Result, prog *isa.Program, initial *layout.Layout, stats legacyStats) {
	t.Helper()
	if got, want := res.Program.Disassemble(), prog.Disassemble(); got != want {
		t.Errorf("%s: compiled program diverges from the legacy loop\ngot:\n%s\nwant:\n%s", label, got, want)
	}
	if got, want := viz.Layout(res.Initial), viz.Layout(initial); got != want {
		t.Errorf("%s: initial layout diverges\ngot:\n%s\nwant:\n%s", label, got, want)
	}
	got := legacyStats{
		Blocks:    res.Stats.Blocks,
		Stages:    res.Stats.Stages,
		Moves:     res.Stats.Moves,
		CollMoves: res.Stats.CollMoves,
		Batches:   res.Stats.Batches,
	}
	if got != stats {
		t.Errorf("%s: stats diverge: got %+v, want %+v", label, got, stats)
	}
	if res.Stats.CompileTime <= 0 {
		t.Errorf("%s: CompileTime not recorded", label)
	}
}

// TestZonedMatchesLegacyCompile sweeps the option matrix over every
// workload family: the zoned pipeline must reproduce the pre-refactor
// monolithic loop byte for byte.
func TestZonedMatchesLegacyCompile(t *testing.T) {
	cases := []struct {
		name string
		cfg  compiler.ZonedConfig
		old  legacyZonedOptions
	}{
		{"non-storage", compiler.ZonedConfig{}, legacyZonedOptions{}},
		{"with-storage", compiler.ZonedConfig{UseStorage: true}, legacyZonedOptions{UseStorage: true}},
		{"grouping-distance", compiler.ZonedConfig{UseStorage: true, Grouping: compiler.GroupingDistance},
			legacyZonedOptions{UseStorage: true, Grouping: 1}},
		{"grouping-in-order", compiler.ZonedConfig{UseStorage: true, Grouping: compiler.GroupingInOrder},
			legacyZonedOptions{UseStorage: true, Grouping: 2}},
		{"no-stage-order", compiler.ZonedConfig{UseStorage: true, DisableStageOrder: true},
			legacyZonedOptions{UseStorage: true, DisableStageOrder: true}},
		{"no-intra-stage-order", compiler.ZonedConfig{UseStorage: true, DisableIntraStageOrder: true},
			legacyZonedOptions{UseStorage: true, DisableIntraStageOrder: true}},
		{"both-ablations", compiler.ZonedConfig{UseStorage: true, DisableStageOrder: true, DisableIntraStageOrder: true},
			legacyZonedOptions{UseStorage: true, DisableStageOrder: true, DisableIntraStageOrder: true}},
		{"random-mover", compiler.ZonedConfig{UseStorage: true, RandomMover: true, Seed: 7},
			legacyZonedOptions{UseStorage: true, RandomMover: true, Seed: 7}},
		{"random-mover-non-storage", compiler.ZonedConfig{RandomMover: true, Seed: 11},
			legacyZonedOptions{RandomMover: true, Seed: 11}},
		{"fuse", compiler.ZonedConfig{UseStorage: true, FuseBlocks: true},
			legacyZonedOptions{UseStorage: true, FuseBlocks: true}},
		{"fuse-non-storage", compiler.ZonedConfig{FuseBlocks: true},
			legacyZonedOptions{FuseBlocks: true}},
		{"alpha", compiler.ZonedConfig{UseStorage: true, Alpha: 0.3},
			legacyZonedOptions{UseStorage: true, Alpha: 0.3}},
	}
	for _, tc := range cases {
		p, err := compiler.Zoned(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, c := range diffWorkloads() {
			a := arch.New(arch.Config{Qubits: c.Qubits})
			res, err := p.Run(c, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, c.Name, err)
			}
			prog, initial, stats := legacyZonedCompile(t, c, a, tc.old)
			compare(t, tc.name+"/"+c.Name, res, prog, initial, stats)
		}
	}
}

// TestZonedMatchesLegacyMultiAOD covers the AOD-count axis the batch
// sweep of Fig. 7 exercises.
func TestZonedMatchesLegacyMultiAOD(t *testing.T) {
	c := workload.QAOARegular(20, 3, 13)
	p, err := compiler.Zoned(compiler.ZonedConfig{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	for aods := 1; aods <= 4; aods++ {
		a := arch.New(arch.Config{Qubits: 20, AODs: aods})
		res, err := p.Run(c, a)
		if err != nil {
			t.Fatalf("aods=%d: %v", aods, err)
		}
		prog, initial, stats := legacyZonedCompile(t, c, a, legacyZonedOptions{UseStorage: true})
		compare(t, "aods", res, prog, initial, stats)
	}
}

// TestEnolaMatchesLegacyCompile: the enola pipeline must reproduce the
// pre-refactor baseline loop byte for byte, under both the default
// instance-scaled restarts and a fixed restart count.
func TestEnolaMatchesLegacyCompile(t *testing.T) {
	for _, restarts := range []int{0, 4} {
		p, err := compiler.Enola(compiler.EnolaConfig{Restarts: restarts, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range diffWorkloads() {
			a := arch.New(arch.Config{Qubits: c.Qubits})
			res, err := p.Run(c, a)
			if err != nil {
				t.Fatalf("restarts=%d/%s: %v", restarts, c.Name, err)
			}
			prog, initial, stats := legacyEnolaCompile(t, c, a, restarts, 1)
			compare(t, c.Name, res, prog, initial, stats)
		}
	}
}

// TestEnolaStagesMatchEagerReference: on random dense multi-block
// circuits, one compile's stages equal the eager reference's, block by
// block, when both start from the same seed. Dense blocks make
// extractions whose greedy set falls short of the matching bound
// common, so restarts run in later blocks too, and each must see the
// draws every earlier skipped restart owed.
func TestEnolaStagesMatchEagerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		cfg := workload.RandomConfig{
			Qubits:  4 + rng.Intn(10),
			Blocks:  2 + rng.Intn(5),
			Density: 0.5 + 0.5*rng.Float64(),
		}
		seed := rng.Int63()
		restarts := 1 + rng.Intn(4)
		circ := workload.Random(cfg, seed)
		p, err := compiler.Enola(compiler.EnolaConfig{Restarts: restarts, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(circ, arch.New(arch.Config{Qubits: cfg.Qubits}))
		if err != nil {
			t.Fatalf("%s: %v", circ.Name, err)
		}
		ref := rand.New(rand.NewSource(seed))
		for bi, got := range blockStages(t, circ, res.Program) {
			want := refMISStages(circ.Blocks[bi].Gates, restarts, ref)
			if len(got) != len(want) {
				t.Fatalf("%s, %d restarts: block %d has %d stages, reference %d", circ.Name, restarts, bi, len(got), len(want))
			}
			for si := range got {
				if !slices.Equal(got[si], want[si].Gates) {
					t.Fatalf("%s, %d restarts: block %d stage %d = %v, reference %v",
						circ.Name, restarts, bi, si, got[si], want[si].Gates)
				}
			}
		}
	}
}

// TestPassStatsConsistency: the per-pass breakdown must account for the
// compilation — durations sum to ~CompileTime (self-time accounting
// admits only driver overhead outside passes), counters sum to the
// aggregate Stats, and call counts match the schedule shape.
func TestPassStatsConsistency(t *testing.T) {
	c := workload.QAOARegular(60, 3, 8)
	a := arch.New(arch.Config{Qubits: 60})
	p, err := compiler.Zoned(compiler.ZonedConfig{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(c, a)
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Stats.Passes
	if len(ps) == 0 {
		t.Fatal("no pass breakdown recorded")
	}

	total := ps.Total()
	if total > res.Stats.CompileTime {
		t.Errorf("pass self-times sum to %v, exceeding CompileTime %v", total, res.Stats.CompileTime)
	}
	if total < res.Stats.CompileTime/2 {
		t.Errorf("pass self-times sum to %v, under half of CompileTime %v — breakdown is not accounting for the compile",
			total, res.Stats.CompileTime)
	}

	sums := map[string]int64{}
	byName := map[string]compiler.PassStat{}
	for _, st := range ps {
		byName[st.Pass] = st
		for k, v := range st.Counters {
			sums[k] += v
		}
	}
	want := map[string]int64{
		"blocks":     int64(res.Stats.Blocks),
		"stages":     int64(res.Stats.Stages),
		"moves":      int64(res.Stats.Moves),
		"coll_moves": int64(res.Stats.CollMoves),
		"batches":    int64(res.Stats.Batches),
	}
	for k, w := range want {
		if sums[k] != w {
			t.Errorf("per-pass %s counters sum to %d, Stats says %d", k, sums[k], w)
		}
	}

	if got := byName["route"].Calls; got != res.Stats.Stages {
		t.Errorf("route ran %d times, schedule has %d stages", got, res.Stats.Stages)
	}
	if got := byName["stage-partition"].Calls; got != res.Stats.Blocks {
		t.Errorf("stage-partition ran %d times, circuit has %d blocks", got, res.Stats.Blocks)
	}
	if got := byName["validate"].Calls; got != 1 {
		t.Errorf("validate ran %d times, want 1", got)
	}
}

// TestPassStatsStabilized: Stabilized zeroes durations without touching
// the deterministic calls/counters or the receiver.
func TestPassStatsStabilized(t *testing.T) {
	ps := compiler.PassStats{
		{Pass: "route", Calls: 3, Duration: 5 * time.Millisecond, Counters: map[string]int64{"moves": 7}},
	}
	st := ps.Stabilized()
	if st[0].Duration != 0 || st[0].Calls != 3 || st[0].Counters["moves"] != 7 {
		t.Errorf("Stabilized = %+v", st[0])
	}
	if ps[0].Duration != 5*time.Millisecond {
		t.Error("Stabilized mutated its receiver")
	}
	if compiler.PassStats(nil).Stabilized() != nil {
		t.Error("nil breakdown did not stabilize to nil")
	}
}
