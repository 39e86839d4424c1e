package verify

import (
	"strings"
	"testing"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/workload"
)

// hasCode reports whether the report carries at least one violation of
// the given code.
func hasCode(r *Report, code Code) bool {
	for _, v := range r.Violations {
		if v.Code == code {
			return true
		}
	}
	return false
}

func codes(r *Report) string {
	var out []string
	for _, v := range r.Violations {
		out = append(out, string(v.Code))
	}
	return strings.Join(out, ",")
}

// compile lowers circ with the named scheme on its default architecture.
func compile(t *testing.T, circ *circuit.Circuit, scheme string, aods int) *compiler.Result {
	t.Helper()
	var (
		p   *compiler.Pipeline
		err error
	)
	switch scheme {
	case "enola":
		p, err = compiler.Enola(compiler.EnolaConfig{Seed: 1})
	case "non-storage":
		p, err = compiler.Zoned(compiler.ZonedConfig{UseStorage: false})
	case "with-storage":
		p, err = compiler.Zoned(compiler.ZonedConfig{UseStorage: true})
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(circ, arch.New(arch.Config{Qubits: circ.Qubits, AODs: aods}))
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	return res
}

// TestAllCleanOnEveryFamilyAndPipeline is the subsystem's base theorem:
// every workload family, compiled by every pipeline, verifies clean
// under both the physical checker and the equivalence walk.
func TestAllCleanOnEveryFamilyAndPipeline(t *testing.T) {
	circs := []*circuit.Circuit{
		workload.QAOARegular(12, 3, 7),
		workload.QAOARegular(12, 4, 7),
		workload.QAOARandom(10, 7),
		workload.QFT(9),
		workload.BV(10, 7),
		workload.VQE(11),
		workload.QSim(10, 7),
	}
	for _, c := range circs {
		for _, scheme := range []string{"enola", "non-storage", "with-storage"} {
			res := compile(t, c, scheme, 1)
			r := All(c, res.Program, res.Initial)
			if !r.OK() {
				t.Errorf("%s/%s: %s", c.Name, scheme, r)
			}
			if r.Pulses == 0 || r.Instructions == 0 {
				t.Errorf("%s/%s: replay saw %d instructions / %d pulses", c.Name, scheme, r.Instructions, r.Pulses)
			}
		}
	}
}

// TestAllCleanMultiAOD covers the AOD-batched multi-array schedules.
func TestAllCleanMultiAOD(t *testing.T) {
	c := workload.QAOARegular(12, 3, 3)
	for _, aods := range []int{2, 4} {
		res := compile(t, c, "with-storage", aods)
		if r := All(c, res.Program, res.Initial); !r.OK() {
			t.Errorf("%d AODs: %s", aods, r)
		}
	}
}

// TestAllCleanOnRandomCircuits drives the generator layer through both
// pipelines — the deterministic core of what FuzzCompileVerify explores.
func TestAllCleanOnRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		cfg := workload.RandomConfig{Qubits: 2 + int(seed), Blocks: 1 + int(seed)%5, Density: 0.1 + 0.08*float64(seed)}
		c := workload.Random(cfg, seed)
		hw := workload.RandomArch(c.Qubits, seed)
		for _, scheme := range []string{"enola", "non-storage", "with-storage"} {
			var p *compiler.Pipeline
			var err error
			if scheme == "enola" {
				if hw.AODs != 1 {
					continue // the baseline is single-AOD
				}
				p, err = compiler.Enola(compiler.EnolaConfig{Seed: 1})
			} else {
				p, err = compiler.Zoned(compiler.ZonedConfig{UseStorage: scheme == "with-storage"})
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(c, hw)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, scheme, err)
			}
			if r := All(c, res.Program, res.Initial); !r.OK() {
				t.Errorf("seed %d %s: %s", seed, scheme, r)
			}
		}
	}
}

// fourQubitBoard builds a 4-qubit arch and a layout with every qubit on
// its own storage site, for hand-crafted illegal programs.
func fourQubitBoard() (*arch.Arch, *layout.Layout) {
	a := arch.New(arch.Config{Qubits: 4})
	l := layout.New(a, 4)
	l.PlaceAll(arch.Storage)
	return a, l
}

func site(z arch.Zone, row, col int) arch.Site { return arch.Site{Zone: z, Row: row, Col: col} }

func prog(n int, instr ...isa.Instruction) *isa.Program {
	return &isa.Program{Name: "crafted", Qubits: n, Instr: instr}
}

func TestCheckPhysicalDetectsAODConflict(t *testing.T) {
	a, l := fourQubitBoard()
	// q0 and q1 swap column order between start and end: a Fig. 5
	// inversion inside one collective move.
	batch := isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{
		move.New(a, 0, site(arch.Storage, 0, 0), site(arch.Storage, 1, 1)),
		move.New(a, 1, site(arch.Storage, 0, 1), site(arch.Storage, 1, 0)),
	}}}}
	r := CheckPhysical(prog(4, batch), l)
	if !hasCode(r, AODConflict) {
		t.Fatalf("order inversion not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsAODOverflow(t *testing.T) {
	a, l := fourQubitBoard()
	batch := isa.MoveBatch{Groups: []move.CollMove{
		{Moves: []move.Move{move.New(a, 0, site(arch.Storage, 0, 0), site(arch.Storage, 2, 0))}},
		{Moves: []move.Move{move.New(a, 1, site(arch.Storage, 0, 1), site(arch.Storage, 2, 1))}},
	}}
	r := CheckPhysical(prog(4, batch), l)
	if !hasCode(r, AODOverflow) {
		t.Fatalf("2 groups on a 1-AOD machine not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsDoubleMove(t *testing.T) {
	a, l := fourQubitBoard()
	batch := isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{
		move.New(a, 0, site(arch.Storage, 0, 0), site(arch.Storage, 2, 0)),
		move.New(a, 0, site(arch.Storage, 2, 0), site(arch.Storage, 3, 0)),
	}}}}
	r := CheckPhysical(prog(4, batch), l)
	if !hasCode(r, DoubleMove) {
		t.Fatalf("double move not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsStaleSource(t *testing.T) {
	a, l := fourQubitBoard()
	// q0 lives at storage[0,0]; the move claims it departs from [3,1].
	batch := isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{
		move.New(a, 0, site(arch.Storage, 3, 1), site(arch.Storage, 2, 1)),
	}}}}
	r := CheckPhysical(prog(4, batch), l)
	if !hasCode(r, StaleSource) {
		t.Fatalf("stage-transition inconsistency not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsEndpointMismatch(t *testing.T) {
	a, l := fourQubitBoard()
	m := move.New(a, 0, site(arch.Storage, 0, 0), site(arch.Storage, 2, 0))
	m.From.X += 3 // corrupt the cached physical coordinate
	batch := isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{m}}}}
	r := CheckPhysical(prog(4, batch), l)
	if !hasCode(r, EndpointMismatch) {
		t.Fatalf("endpoint mismatch not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsOutOfBounds(t *testing.T) {
	a, l := fourQubitBoard()
	m := move.New(a, 0, site(arch.Storage, 0, 0), site(arch.Storage, 2, 0))
	m.Qubit = 99
	batch := isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{m}}}}
	r := CheckPhysical(prog(4, batch), l)
	if !hasCode(r, OutOfBounds) {
		t.Fatalf("out-of-range qubit not detected: %s", codes(r))
	}
	bad := move.Move{Qubit: 0, FromSite: site(arch.Storage, 0, 0), ToSite: site(arch.Storage, 99, 0)}
	r = CheckPhysical(prog(4, isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{bad}}}}), l)
	if !hasCode(r, OutOfBounds) {
		t.Fatalf("out-of-bounds site not detected: %s", codes(r))
	}
}

// moveTo relocates one qubit legally (matching the replay layout).
func moveTo(a *arch.Arch, l *layout.Layout, q int, to arch.Site) isa.MoveBatch {
	return isa.MoveBatch{Groups: []move.CollMove{{Moves: []move.Move{
		move.New(a, q, l.SiteOf(q), to),
	}}}}
}

func TestCheckPhysicalDetectsTrapOverflowAndSpacing(t *testing.T) {
	a, l := fourQubitBoard()
	target := site(arch.Compute, 0, 0)
	// Pile q0, q1, q2 onto one compute site, then pulse (0, 1): three
	// qubits in one trap, with the idle q2 zero micrometres from an
	// interacting pair.
	b0 := moveTo(a, l.Clone(), 0, target)
	work := l.Clone()
	work.Move(0, target)
	b1 := moveTo(a, work, 1, target)
	work.Move(1, target)
	b2 := moveTo(a, work, 2, target)
	pulse := isa.Rydberg{Stage: 0, Pairs: []circuit.CZ{circuit.NewCZ(0, 1)}}
	r := CheckPhysical(prog(4, b0, b1, b2, pulse), l)
	if !hasCode(r, TrapOverflow) {
		t.Fatalf("trap overflow not detected: %s", codes(r))
	}
	if !hasCode(r, SpacingBreach) {
		t.Fatalf("blockade spacing breach not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsStrayPair(t *testing.T) {
	a, l := fourQubitBoard()
	target := site(arch.Compute, 1, 1)
	b0 := moveTo(a, l.Clone(), 0, target)
	work := l.Clone()
	work.Move(0, target)
	b1 := moveTo(a, work, 1, target)
	work.Move(1, target)
	// Pair (2, 3) is scheduled, but the co-located pair is (0, 1).
	other := site(arch.Compute, 0, 0)
	b2 := moveTo(a, work, 2, other)
	work.Move(2, other)
	b3 := moveTo(a, work, 3, other)
	pulse := isa.Rydberg{Stage: 0, Pairs: []circuit.CZ{circuit.NewCZ(2, 3)}}
	r := CheckPhysical(prog(4, b0, b1, b2, b3, pulse), l)
	if !hasCode(r, StrayPair) {
		t.Fatalf("stray pair not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsStorageInteraction(t *testing.T) {
	a, l := fourQubitBoard()
	// Co-locate the scheduled pair, but in the storage zone.
	b0 := moveTo(a, l.Clone(), 1, site(arch.Storage, 0, 0))
	pulse := isa.Rydberg{Stage: 0, Pairs: []circuit.CZ{circuit.NewCZ(0, 1)}}
	r := CheckPhysical(prog(4, b0, pulse), l)
	if !hasCode(r, StorageInteraction) {
		t.Fatalf("storage-zone interaction not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsSplitPair(t *testing.T) {
	_, l := fourQubitBoard()
	pulse := isa.Rydberg{Stage: 0, Pairs: []circuit.CZ{circuit.NewCZ(0, 1)}}
	r := CheckPhysical(prog(4, pulse), l)
	if !hasCode(r, SplitPair) {
		t.Fatalf("split pair not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsQubitReuse(t *testing.T) {
	a, l := fourQubitBoard()
	s01 := site(arch.Compute, 0, 0)
	b0 := moveTo(a, l.Clone(), 0, s01)
	work := l.Clone()
	work.Move(0, s01)
	b1 := moveTo(a, work, 1, s01)
	pulse := isa.Rydberg{Stage: 0, Pairs: []circuit.CZ{circuit.NewCZ(0, 1), circuit.NewCZ(1, 2)}}
	r := CheckPhysical(prog(4, b0, b1, pulse), l)
	if !hasCode(r, QubitReuse) {
		t.Fatalf("qubit reuse within a stage not detected: %s", codes(r))
	}
}

func TestCheckPhysicalDetectsEmptyInstructions(t *testing.T) {
	_, l := fourQubitBoard()
	r := CheckPhysical(prog(4, isa.MoveBatch{}, isa.Rydberg{Stage: 0}), l)
	n := 0
	for _, v := range r.Violations {
		if v.Code == EmptyInstr {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d empty-instr violations, want 2: %s", n, codes(r))
	}
}

func TestCheckEquivalenceDetectsGateLoss(t *testing.T) {
	c := workload.QAOARegular(10, 3, 5)
	res := compile(t, c, "with-storage", 1)
	// Drop one pair from the first pulse.
	for i, in := range res.Program.Instr {
		if p, ok := in.(isa.Rydberg); ok && len(p.Pairs) > 0 {
			p.Pairs = p.Pairs[1:]
			res.Program.Instr[i] = p
			break
		}
	}
	r := CheckEquivalence(c, res.Program)
	if r.OK() {
		t.Fatal("dropped gate not detected")
	}
	if !hasCode(r, GateLoss) && !hasCode(r, BlockOrder) {
		t.Fatalf("dropped gate reported as %s, want gate accounting violation", codes(r))
	}
}

func TestCheckEquivalenceDetectsWrongGate(t *testing.T) {
	c := workload.BV(8, 5)
	res := compile(t, c, "non-storage", 1)
	for i, in := range res.Program.Instr {
		if p, ok := in.(isa.Rydberg); ok && len(p.Pairs) > 0 {
			g := p.Pairs[0]
			p.Pairs = append([]circuit.CZ(nil), p.Pairs...)
			p.Pairs[0] = circuit.NewCZ((g.A+1)%c.Qubits, g.B) // retarget the gate
			if p.Pairs[0] == g {
				t.Skip("retarget collided with the original gate")
			}
			res.Program.Instr[i] = p
			break
		}
	}
	r := CheckEquivalence(c, res.Program)
	if !hasCode(r, GateLoss) && !hasCode(r, BlockOrder) {
		t.Fatalf("retargeted gate reported as %s, want gate accounting violation", codes(r))
	}
}

func TestCheckEquivalenceDetectsBlockOrderViolation(t *testing.T) {
	c := workload.QSim(10, 6) // many dependent blocks
	res := compile(t, c, "with-storage", 1)
	// Swap the first two pulses that belong to different blocks: find
	// two Rydberg instructions with non-equal pair sets and exchange
	// them.
	var pulseIdx []int
	for i, in := range res.Program.Instr {
		if _, ok := in.(isa.Rydberg); ok {
			pulseIdx = append(pulseIdx, i)
		}
	}
	if len(pulseIdx) < 2 {
		t.Skip("not enough pulses to swap")
	}
	first, last := pulseIdx[0], pulseIdx[len(pulseIdx)-1]
	res.Program.Instr[first], res.Program.Instr[last] = res.Program.Instr[last], res.Program.Instr[first]
	r := CheckEquivalence(c, res.Program)
	if !hasCode(r, BlockOrder) && !hasCode(r, GateLoss) {
		t.Fatalf("cross-block reorder not detected: %s", codes(r))
	}
}

func TestCheckEquivalenceDetectsOneQLoss(t *testing.T) {
	c := workload.VQE(9)
	res := compile(t, c, "with-storage", 1)
	for i, in := range res.Program.Instr {
		if l, ok := in.(isa.OneQLayer); ok {
			l.Count++
			res.Program.Instr[i] = l
			break
		}
	}
	r := CheckEquivalence(c, res.Program)
	if !hasCode(r, OneQLoss) {
		t.Fatalf("1Q count drift not detected: %s", codes(r))
	}
}

// TestCheckEquivalenceDetectsMisplacedOneQLayer moves one 1Q layer back
// across the pulse before it. Every count and the CZ stream stay as
// they were, so only the layer's position can convict the program.
func TestCheckEquivalenceDetectsMisplacedOneQLayer(t *testing.T) {
	c := workload.VQE(9)
	res := compile(t, c, "with-storage", 1)
	instr := res.Program.Instr
	pulse, layer := -1, -1
	for i, in := range instr {
		if _, ok := in.(isa.Rydberg); ok {
			pulse = i
		} else if _, ok := in.(isa.OneQLayer); ok && pulse >= 0 {
			layer = i
			break
		}
	}
	if layer < 0 {
		t.Fatal("no 1Q layer follows a pulse")
	}
	moved := append([]isa.Instruction(nil), instr[:pulse]...)
	moved = append(moved, instr[layer])
	moved = append(moved, instr[pulse:layer]...)
	moved = append(moved, instr[layer+1:]...)
	tampered := &isa.Program{Name: res.Program.Name, Qubits: res.Program.Qubits, Instr: moved}
	r := All(c, tampered, res.Initial)
	if len(r.Violations) != 1 || !hasCode(r, OneQOrder) {
		t.Fatalf("misplaced 1Q layer reported as %q, want one %s", codes(r), OneQOrder)
	}
}

// TestCheckEquivalenceStructuralMode: the structural walk holds at any
// register size, and merging two pulses of one block leaves the CZ
// stream intact, so it is the physical checker that convicts the merge.
func TestCheckEquivalenceStructuralMode(t *testing.T) {
	c := workload.QFT(24) // serial stages, small blocks
	res := compile(t, c, "with-storage", 1)
	if r := All(c, res.Program, res.Initial); !r.OK() {
		t.Fatalf("clean large compile flagged: %s", r)
	}

	var pulses []int
	for i, in := range res.Program.Instr {
		if _, ok := in.(isa.Rydberg); ok {
			pulses = append(pulses, i)
		}
	}
	// QFT block 0 has n-1 gates all sharing qubit 0, one per pulse.
	// Merge its first two pulses.
	p0 := res.Program.Instr[pulses[0]].(isa.Rydberg)
	p1 := res.Program.Instr[pulses[1]].(isa.Rydberg)
	merged := isa.Rydberg{Stage: p0.Stage, Pairs: append(append([]circuit.CZ(nil), p0.Pairs...), p1.Pairs...)}
	instr := append([]isa.Instruction(nil), res.Program.Instr[:pulses[0]]...)
	instr = append(instr, merged)
	instr = append(instr, res.Program.Instr[pulses[0]+1:pulses[1]]...)
	instr = append(instr, res.Program.Instr[pulses[1]+1:]...)
	tampered := &isa.Program{Name: res.Program.Name, Qubits: res.Program.Qubits, Instr: instr}
	if r := CheckEquivalence(c, tampered); !r.OK() {
		t.Fatalf("merge kept the CZ stream, yet the walk reports %s", codes(r))
	}
	if r := All(c, tampered, res.Initial); !hasCode(r, QubitReuse) {
		t.Fatalf("merged pulses not detected: %s", codes(r))
	}
}

func TestReportSummary(t *testing.T) {
	r := &Report{}
	r.add(GateLoss, -1, nil, "one")
	r.add(GateLoss, 3, nil, "two")
	r.add(SplitPair, 5, []int{1, 2}, "three")
	s := r.Summary()
	if s.Violations != 3 || s.Codes[string(GateLoss)] != 2 || s.Codes[string(SplitPair)] != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if len(s.Messages) != 3 {
		t.Fatalf("summary = %+v", s)
	}
	clean := (&Report{Instructions: 10}).Summary()
	if clean.Violations != 0 || clean.Codes != nil || clean.Messages != nil {
		t.Fatalf("clean summary = %+v", clean)
	}
}
