package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/verify"
	"powermove/internal/workload"
)

// agree runs one program through both sinks of the verifier's replay —
// the executor, which stops at the first violation, and CheckPhysical,
// which collects them all — and requires the differential property:
// Execute fails exactly when CheckPhysical reports a violation, its
// error wraps CheckPhysical's first violation (same code, same
// instruction), and neither panics. It returns whether the program was
// rejected.
func agree(t *testing.T, name string, prog *isa.Program, initial *layout.Layout) bool {
	t.Helper()
	rep, panicked := func() (rep *verify.Report, p any) {
		defer func() { p = recover() }()
		return verify.CheckPhysical(prog, initial), nil
	}()
	if panicked != nil {
		t.Fatalf("%s: CheckPhysical panicked: %v", name, panicked)
	}
	err, panicked := func() (err error, p any) {
		defer func() { p = recover() }()
		_, err = Execute(prog, initial)
		return err, nil
	}()
	if panicked != nil {
		t.Fatalf("%s: Execute panicked: %v", name, panicked)
	}
	if rep.OK() {
		if err != nil {
			t.Fatalf("%s: CheckPhysical is clean, Execute failed: %v", name, err)
		}
		return false
	}
	if err == nil {
		t.Fatalf("%s: Execute accepted a program CheckPhysical rejects: %s", name, rep)
	}
	var v verify.Violation
	if !errors.As(err, &v) {
		t.Fatalf("%s: Execute's error wraps no violation: %v", name, err)
	}
	if first := rep.Violations[0]; v.Code != first.Code || v.Instr != first.Instr {
		t.Fatalf("%s: Execute failed with %s, CheckPhysical's first violation is %s", name, v, first)
	}
	return true
}

// crafted is one hand-built program with its initial layout and the code
// of the violation that should reject it first ("" for a legal program).
type crafted struct {
	name    string
	prog    *isa.Program
	initial *layout.Layout
	want    verify.Code
}

func progOf(n int, instr ...isa.Instruction) *isa.Program {
	return &isa.Program{Name: "crafted", Qubits: n, Instr: instr}
}

func pulseOf(pairs ...circuit.CZ) isa.Rydberg { return isa.Rydberg{Pairs: pairs} }

func groupsOf(groups ...[]move.Move) isa.MoveBatch {
	b := isa.MoveBatch{}
	for _, g := range groups {
		b.Groups = append(b.Groups, move.CollMove{Moves: g})
	}
	return b
}

// verifierCases rebuilds the programs of verify's TestCheckPhysicalDetects*
// tests: every qubit of a 4-qubit machine starts on its own storage site.
func verifierCases() []crafted {
	a := arch.New(arch.Config{Qubits: 4})
	board := func() *layout.Layout {
		l := layout.New(a, 4)
		l.PlaceAll(arch.Storage)
		return l
	}
	l := board()
	// pile moves qubits onto target one batch at a time, each from its
	// current site.
	pile := func(target arch.Site, qs ...int) []isa.Instruction {
		work := board()
		var out []isa.Instruction
		for _, q := range qs {
			out = append(out, batchOf(move.New(a, q, work.SiteOf(q), target)))
			work.Move(q, target)
		}
		return out
	}
	cz := circuit.NewCZ
	endpoint := move.New(a, 0, storageSite(0, 0), storageSite(2, 0))
	endpoint.From.X += 3
	ghost := move.New(a, 0, storageSite(0, 0), storageSite(2, 0))
	ghost.Qubit = 99
	offGrid := move.Move{Qubit: 0, FromSite: storageSite(0, 0), ToSite: storageSite(99, 0)}
	trap := append(pile(computeSite(0, 0), 0, 1, 2), pulseOf(cz(0, 1)))
	stray := append(pile(computeSite(1, 1), 0, 1), pile(computeSite(0, 0), 2, 3)...)
	// The second pile starts from the board, so its qubits' sources are
	// still right: qubits 2 and 3 never moved before it.
	stray = append(stray, pulseOf(cz(2, 3)))
	reuse := append(pile(computeSite(0, 0), 0, 1), pulseOf(cz(0, 1), cz(1, 2)))
	return []crafted{
		{"verify/aod-conflict", progOf(4, batchOf(
			move.New(a, 0, storageSite(0, 0), storageSite(1, 1)),
			move.New(a, 1, storageSite(0, 1), storageSite(1, 0)))), l, verify.AODConflict},
		{"verify/aod-overflow", progOf(4, groupsOf(
			[]move.Move{move.New(a, 0, storageSite(0, 0), storageSite(2, 0))},
			[]move.Move{move.New(a, 1, storageSite(0, 1), storageSite(2, 1))})), l, verify.AODOverflow},
		{"verify/double-move", progOf(4, batchOf(
			move.New(a, 0, storageSite(0, 0), storageSite(2, 0)),
			move.New(a, 0, storageSite(2, 0), storageSite(3, 0)))), l, verify.DoubleMove},
		{"verify/stale-source", progOf(4, batchOf(
			move.New(a, 0, storageSite(3, 1), storageSite(2, 1)))), l, verify.StaleSource},
		{"verify/endpoint-mismatch", progOf(4, batchOf(endpoint)), l, verify.EndpointMismatch},
		{"verify/out-of-range-qubit", progOf(4, batchOf(ghost)), l, verify.OutOfBounds},
		{"verify/out-of-bounds-site", progOf(4, batchOf(offGrid)), l, verify.OutOfBounds},
		{"verify/trap-overflow-and-spacing", progOf(4, trap...), l, verify.TrapOverflow},
		{"verify/stray-pair", progOf(4, stray...), l, verify.StrayPair},
		{"verify/storage-interaction", progOf(4,
			batchOf(move.New(a, 1, storageSite(0, 1), storageSite(0, 0))), pulseOf(cz(0, 1))), l, verify.StorageInteraction},
		{"verify/split-pair", progOf(4, pulseOf(cz(0, 1))), l, verify.SplitPair},
		{"verify/qubit-reuse", progOf(4, reuse...), l, verify.QubitReuse},
		{"verify/empty-instructions", progOf(4, isa.MoveBatch{}, isa.Rydberg{}), l, verify.EmptyInstr},
	}
}

// executorCases rebuilds the programs of this package's TestExecute*
// tests on the 4-qubit compute-zone fixture.
func executorCases() []crafted {
	a, l := fixture()
	a2 := arch.New(arch.Config{Qubits: 4, AODs: 2})
	l2 := layout.New(a2, 4)
	l2.PlaceAll(arch.Compute)
	cz := circuit.NewCZ
	hop := move.New(a, 1, computeSite(0, 1), computeSite(0, 0))
	q2on0 := move.New(a, 2, computeSite(1, 0), computeSite(0, 0))
	q1on3 := move.New(a, 1, computeSite(0, 1), computeSite(1, 1))
	shielded := l.Clone()
	shielded.Move(3, storageSite(0, 0))
	return []crafted{
		{"sim/hand-checked", progOf(4, isa.OneQLayer{Count: 4}, batchOf(hop), pulseOf(cz(0, 1))), l, ""},
		{"sim/storage-shields", progOf(4, batchOf(hop), pulseOf(cz(0, 1))), shielded, ""},
		{"sim/qubit-count-mismatch", &isa.Program{Name: "bad", Qubits: 5}, l, verify.OutOfBounds},
		{"sim/conflicting-group", progOf(4, batchOf(
			move.New(a, 0, computeSite(0, 0), computeSite(0, 1)),
			move.New(a, 1, computeSite(0, 1), computeSite(0, 0)))), l, verify.AODConflict},
		{"sim/stale-source", progOf(4, batchOf(move.New(a, 0, computeSite(1, 1), computeSite(0, 1)))), l, verify.StaleSource},
		{"sim/double-move", progOf(4, groupsOf(
			[]move.Move{move.New(a2, 0, computeSite(0, 0), computeSite(1, 0))},
			[]move.Move{move.New(a2, 0, computeSite(0, 0), computeSite(0, 1))})), l2, verify.DoubleMove},
		{"sim/bad-qubit-in-move", progOf(4, batchOf(move.New(a, 9, computeSite(0, 0), computeSite(0, 1)))), l, verify.OutOfBounds},
		{"sim/empty-batch", progOf(4, isa.MoveBatch{}), l, verify.EmptyInstr},
		{"sim/empty-pulse", progOf(4, isa.Rydberg{}), l, verify.EmptyInstr},
		{"sim/split-pair", progOf(4, pulseOf(cz(0, 1))), l, verify.SplitPair},
		{"sim/clustering-legal", progOf(4, batchOf(q2on0), batchOf(q1on3), pulseOf(cz(0, 2), cz(1, 3))), l, ""},
		{"sim/clustering", progOf(4, batchOf(q2on0), batchOf(q1on3), pulseOf(cz(1, 3))), l, verify.StrayPair},
		{"sim/qubit-reuse", progOf(4, batchOf(hop), pulseOf(cz(0, 1), cz(0, 1))), l, verify.QubitReuse},
		{"sim/negative-1q", progOf(4, isa.OneQLayer{Count: -1}), l, verify.EmptyInstr},
		{"sim/pair-in-storage", progOf(4,
			batchOf(move.New(a, 0, computeSite(0, 0), storageSite(0, 0))),
			batchOf(move.New(a, 1, computeSite(0, 1), storageSite(0, 0))),
			pulseOf(cz(0, 1))), l, verify.StorageInteraction},
	}
}

// occupancyCases replays the rejections the layout package's occupancy
// validator used to cover, as initial layouts followed by one pulse.
func occupancyCases() []crafted {
	a := arch.New(arch.Config{Qubits: 9})
	cz := circuit.NewCZ
	at := func(n int, sites ...arch.Site) *layout.Layout {
		l := layout.New(a, n)
		for q, s := range sites {
			l.Place(q, s)
		}
		return l
	}
	c00, c10, c11, s00 := computeSite(0, 0), computeSite(1, 0), computeSite(1, 1), storageSite(0, 0)
	home := layout.New(a, 2)
	home.PlaceAll(arch.Compute)
	return []crafted{
		{"layout/unplaced-initial-qubit", progOf(2, isa.OneQLayer{Count: 1}), at(2, c00), verify.OutOfBounds},
		{"layout/non-interacting-cohabitants", progOf(4, pulseOf(cz(2, 3))), at(4, c00, c00, c11, c11), verify.StrayPair},
		{"layout/pair-in-storage", progOf(2, pulseOf(cz(0, 1))), at(2, s00, s00), verify.StorageInteraction},
		{"layout/overfull-site", progOf(3, pulseOf(cz(0, 1))), at(3, c00, c00, c00), verify.TrapOverflow},
		{"layout/split-pair", progOf(2, pulseOf(cz(0, 1))), home, verify.SplitPair},
		// q3 leaves its crowded site and comes back: the replay's
		// occupied-site count must follow both moves, or the stray
		// cohabitants 2 and 3 slip past the pulse.
		{"layout/stray-after-round-trip", progOf(4,
			batchOf(move.New(a, 3, c10, c11)), batchOf(move.New(a, 3, c11, c10)),
			pulseOf(cz(0, 1))), at(4, c00, c00, c10, c10), verify.StrayPair},
	}
}

// gapCases are the three programs an executor with its own copy of the
// rules let through: a two-group batch on a one-AOD machine and a move
// whose coordinates disagree with its sites both executed and reported
// numbers, and a pulse naming qubit 9 of 4 panicked with an index out of
// range. Each now fails cleanly.
func gapCases() []crafted {
	a, l := fixture()
	cz := circuit.NewCZ
	corrupt := move.New(a, 1, computeSite(0, 1), computeSite(0, 0))
	corrupt.To.Y += 300
	return []crafted{
		{"gap/two-groups-one-aod", progOf(4, groupsOf(
			[]move.Move{move.New(a, 1, computeSite(0, 1), computeSite(0, 0))},
			[]move.Move{move.New(a, 3, computeSite(1, 1), computeSite(1, 0))}),
			pulseOf(cz(0, 1), cz(2, 3))), l, verify.AODOverflow},
		{"gap/endpoint-mismatch", progOf(4, batchOf(corrupt), pulseOf(cz(0, 1))), l, verify.EndpointMismatch},
		{"gap/out-of-range-pair", progOf(4, pulseOf(cz(0, 9))), l, verify.OutOfBounds},
	}
}

// hostileCases are malformed inputs no compiler emits; both sinks must
// reject them without panicking.
func hostileCases() []crafted {
	a, l := fixture()
	nan := move.New(a, 0, computeSite(0, 0), computeSite(0, 1))
	nan.From.X = math.NaN()
	offZone := move.New(a, 0, computeSite(0, 0), computeSite(0, 1))
	offZone.ToSite.Zone = 7
	return []crafted{
		{"hostile/nil-program", nil, l, verify.EmptyInstr},
		{"hostile/nil-layout", progOf(4), nil, verify.EmptyInstr},
		{"hostile/nil-instruction", progOf(4, nil), l, verify.EmptyInstr},
		{"hostile/nan-coordinate", progOf(4, batchOf(nan)), l, verify.EndpointMismatch},
		{"hostile/unknown-zone", progOf(4, batchOf(offZone)), l, verify.OutOfBounds},
		{"hostile/negative-qubit-pair", progOf(4, pulseOf(circuit.CZ{A: -1, B: 2})), l, verify.OutOfBounds},
	}
}

// TestExecuteAgreesWithCheckPhysicalOnCraftedPrograms holds the two
// sinks to the differential property on every hand-built program, and
// checks each is judged by the violation its case names.
func TestExecuteAgreesWithCheckPhysicalOnCraftedPrograms(t *testing.T) {
	var all []crafted
	for _, cs := range [][]crafted{verifierCases(), executorCases(), occupancyCases(), gapCases(), hostileCases()} {
		all = append(all, cs...)
	}
	for _, c := range all {
		t.Run(c.name, func(t *testing.T) {
			if rejected := agree(t, c.name, c.prog, c.initial); rejected != (c.want != "") {
				t.Fatalf("rejected = %v, want code %q", rejected, c.want)
			}
			if c.want == "" {
				return
			}
			_, err := Execute(c.prog, c.initial)
			var v verify.Violation
			if errors.As(err, &v); v.Code != c.want {
				t.Errorf("first violation %s, want %s", v, c.want)
			}
		})
	}
}

// mutations are the seeded physical corruptions of a compiled program.
// Each returns false when the program offers nothing to corrupt.
var mutations = []struct {
	name  string
	apply func(p *isa.Program, a *arch.Arch, rng *rand.Rand) bool
}{
	{"corrupt-coordinates", func(p *isa.Program, a *arch.Arch, rng *rand.Rand) bool {
		return mutateMove(p, rng, func(g *move.CollMove, i int) { g.Moves[i].To.X += 1 + float64(rng.Intn(20)) })
	}},
	{"group-beyond-aods", func(p *isa.Program, a *arch.Arch, rng *rand.Rand) bool {
		bi := pickBatch(p, rng)
		if bi < 0 {
			return false
		}
		b := cloneBatch(p.Instr[bi].(isa.MoveBatch))
		for len(b.Groups) <= a.AODs {
			b.Groups = append(b.Groups, move.CollMove{})
		}
		p.Instr[bi] = b
		return true
	}},
	{"retarget-source", func(p *isa.Program, a *arch.Arch, rng *rand.Rand) bool {
		sites := append(append([]arch.Site(nil), a.Sites(arch.Compute)...), a.Sites(arch.Storage)...)
		return mutateMove(p, rng, func(g *move.CollMove, i int) {
			m := &g.Moves[i]
			s := sites[rng.Intn(len(sites))]
			if s == m.FromSite {
				s = sites[(a.SiteIndex(s)+1)%len(sites)]
			}
			m.FromSite, m.From = s, a.Pos(s)
		})
	}},
	{"repeat-move", func(p *isa.Program, a *arch.Arch, rng *rand.Rand) bool {
		return mutateMove(p, rng, func(g *move.CollMove, i int) { g.Moves = append(g.Moves, g.Moves[i]) })
	}},
	{"drop-batch", func(p *isa.Program, a *arch.Arch, rng *rand.Rand) bool {
		bi := pickBatch(p, rng)
		if bi < 0 {
			return false
		}
		p.Instr = append(p.Instr[:bi:bi], p.Instr[bi+1:]...)
		return true
	}},
}

// pickBatch returns the index of a random non-empty move batch, or -1.
func pickBatch(p *isa.Program, rng *rand.Rand) int {
	var batches []int
	for i, in := range p.Instr {
		if b, ok := in.(isa.MoveBatch); ok && b.MovedQubits() > 0 {
			batches = append(batches, i)
		}
	}
	if len(batches) == 0 {
		return -1
	}
	return batches[rng.Intn(len(batches))]
}

// cloneBatch deep-copies a batch so a mutation never writes through to
// the compiled program it came from.
func cloneBatch(b isa.MoveBatch) isa.MoveBatch {
	out := isa.MoveBatch{Groups: make([]move.CollMove, len(b.Groups))}
	for i, g := range b.Groups {
		out.Groups[i].Moves = append([]move.Move(nil), g.Moves...)
	}
	return out
}

// mutateMove applies f to one random move of a random batch.
func mutateMove(p *isa.Program, rng *rand.Rand, f func(g *move.CollMove, i int)) bool {
	bi := pickBatch(p, rng)
	if bi < 0 {
		return false
	}
	b := cloneBatch(p.Instr[bi].(isa.MoveBatch))
	var groups []int
	for gi, g := range b.Groups {
		if len(g.Moves) > 0 {
			groups = append(groups, gi)
		}
	}
	g := &b.Groups[groups[rng.Intn(len(groups))]]
	f(g, rng.Intn(len(g.Moves)))
	p.Instr[bi] = b
	return true
}

// TestExecuteAgreesWithCheckPhysicalOnCompiles: every family, compiled by
// every pipeline at one AOD and by the zoned pipelines at two, executes
// clean; each of the five seeded mutations of each compile is judged
// the same way by both sinks.
func TestExecuteAgreesWithCheckPhysicalOnCompiles(t *testing.T) {
	circs := []*circuit.Circuit{
		workload.QAOARegular(12, 3, 7),
		workload.QAOARegular(12, 4, 7),
		workload.QAOARandom(10, 7),
		workload.QFT(9),
		workload.BV(10, 7),
		workload.VQE(11),
		workload.QSim(10, 7),
	}
	type pipe struct {
		name string
		aods int
		p    func() (*compiler.Pipeline, error)
	}
	zoned := func(storage bool) func() (*compiler.Pipeline, error) {
		return func() (*compiler.Pipeline, error) { return compiler.Zoned(compiler.ZonedConfig{UseStorage: storage}) }
	}
	pipes := []pipe{
		{"enola", 1, func() (*compiler.Pipeline, error) { return compiler.Enola(compiler.EnolaConfig{Seed: 1}) }},
		{"non-storage", 1, zoned(false)},
		{"with-storage", 1, zoned(true)},
		{"non-storage", 2, zoned(false)},
		{"with-storage", 2, zoned(true)},
	}
	rng := rand.New(rand.NewSource(14))
	rejected := map[string]int{}
	for _, c := range circs {
		for _, pp := range pipes {
			p, err := pp.p()
			if err != nil {
				t.Fatal(err)
			}
			hw := arch.New(arch.Config{Qubits: c.Qubits, AODs: pp.aods})
			res, err := p.Run(c, hw)
			if err != nil {
				t.Fatalf("%s/%s/%d: %v", c.Name, pp.name, pp.aods, err)
			}
			name := fmt.Sprintf("%s/%s/%daod", c.Name, pp.name, pp.aods)
			if agree(t, name, res.Program, res.Initial) {
				t.Fatalf("%s: clean compile rejected", name)
			}
			for _, mu := range mutations {
				mutant := &isa.Program{Name: res.Program.Name, Qubits: res.Program.Qubits,
					Instr: append([]isa.Instruction(nil), res.Program.Instr...)}
				if !mu.apply(mutant, hw, rng) {
					t.Fatalf("%s: mutation %s found nothing to corrupt", name, mu.name)
				}
				if agree(t, name+"/"+mu.name, mutant, res.Initial) {
					rejected[mu.name]++
				}
			}
		}
	}
	// Every mutation but dropping a batch breaks a rule by construction;
	// a dropped batch may be one the rest of the program does not need.
	for _, mu := range mutations[:4] {
		if want := len(circs) * len(pipes); rejected[mu.name] != want {
			t.Errorf("%s rejected %d of %d mutants", mu.name, rejected[mu.name], want)
		}
	}
	if rejected["drop-batch"] == 0 {
		t.Error("no dropped batch was rejected")
	}
}
