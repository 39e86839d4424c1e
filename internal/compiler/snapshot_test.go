package compiler

import (
	"reflect"
	"testing"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/layout"
)

// incrTestCircuit builds a deterministic multi-block circuit whose
// blocks all differ: block i carries i%3 single-qubit gates and two
// disjoint CZ pairs sliding across the register.
func incrTestCircuit(name string, n, blocks int) *circuit.Circuit {
	c := circuit.New(name, n)
	for i := 0; i < blocks; i++ {
		a := i % (n - 3)
		c.AddBlock(i%3, circuit.NewCZ(a, a+1), circuit.NewCZ(a+2, a+3))
	}
	return c
}

// TestResumableTable pins which pipeline compositions support
// checkpoint resume: the deterministic zoned pipelines do; anything
// seeding an RNG (enola's mis-stage, the random mover) or rewriting the
// circuit (block fusion) does not, and neither does a pipeline New
// assembles from arbitrary passes.
func TestResumableTable(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Pipeline, error)
		want  bool
	}{
		{"zoned", func() (*Pipeline, error) { return Zoned(ZonedConfig{UseStorage: true}) }, true},
		{"zoned-non-storage", func() (*Pipeline, error) { return Zoned(ZonedConfig{}) }, true},
		{"zoned-distance", func() (*Pipeline, error) { return Zoned(ZonedConfig{UseStorage: true, Grouping: GroupingDistance}) }, true},
		{"zoned-random-mover", func() (*Pipeline, error) { return Zoned(ZonedConfig{UseStorage: true, RandomMover: true, Seed: 7}) }, false},
		{"zoned-fuse", func() (*Pipeline, error) { return Zoned(ZonedConfig{UseStorage: true, FuseBlocks: true}) }, false},
		{"enola", func() (*Pipeline, error) { return Enola(EnolaConfig{}) }, false},
		{"new", func() (*Pipeline, error) {
			return New("custom", validatePass(false), placePass(false), &blockLoop{blockPasses: []Pass{stagePartitionPass()}})
		}, false},
	}
	for _, tc := range cases {
		p, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.Resumable(); got != tc.want {
			t.Errorf("%s: Resumable() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// stabilized strips the wall-clock fields that legitimately differ
// between a cold and a resumed run, leaving everything the byte-identity
// contract covers: program, counters, and the full per-pass breakdown
// (calls and counter deltas).
func stabilized(r *Result) (isaInstr any, stats Stats) {
	stats = r.Stats
	stats.CompileTime = 0
	stats.Passes = stats.Passes.Stabilized()
	return r.Program.Instr, stats
}

// sameSites reports whether two layouts place every qubit identically.
func sameSites(t *testing.T, a, b *layout.Layout) {
	t.Helper()
	if a.Qubits() != b.Qubits() {
		t.Fatalf("layout qubit counts differ: %d vs %d", a.Qubits(), b.Qubits())
	}
	for q := 0; q < a.Qubits(); q++ {
		if a.SiteOf(q) != b.SiteOf(q) {
			t.Fatalf("qubit %d placed at %v vs %v", q, a.SiteOf(q), b.SiteOf(q))
		}
	}
}

// TestResumeByteIdentity: resuming from any checkpoint of a captured
// run reproduces the cold compile exactly — same program, same initial
// layout, same counters, same per-pass calls and counter deltas — for
// the unchanged circuit at every prefix length, and for a tail-mutated
// circuit resumed from the last shared checkpoint.
func TestResumeByteIdentity(t *testing.T) {
	const n, blocks = 12, 8
	circ := incrTestCircuit("incr", n, blocks)
	hw := arch.New(arch.Config{Qubits: n})
	p, err := Zoned(ZonedConfig{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}

	var cps []Checkpoint
	captured, err := p.RunOpts(circ, hw, RunOptions{Capture: func(cp Checkpoint) { cps = append(cps, cp) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != blocks {
		t.Fatalf("captured %d checkpoints, want %d", len(cps), blocks)
	}
	cold, err := p.Run(circ, hw)
	if err != nil {
		t.Fatal(err)
	}
	// Capture must not perturb the compile itself.
	capInstr, capStats := stabilized(captured)
	coldInstr, coldStats := stabilized(cold)
	if !reflect.DeepEqual(capInstr, coldInstr) || !reflect.DeepEqual(capStats, coldStats) {
		t.Fatal("capturing checkpoints changed the compile output")
	}

	for k := 1; k <= blocks; k++ {
		res, err := p.RunOpts(circ, hw, RunOptions{Resume: &cps[k-1]})
		if err != nil {
			t.Fatalf("resume at k=%d: %v", k, err)
		}
		gotInstr, gotStats := stabilized(res)
		if !reflect.DeepEqual(gotInstr, coldInstr) {
			t.Errorf("resume at k=%d: program diverged from cold compile", k)
		}
		if !reflect.DeepEqual(gotStats, coldStats) {
			t.Errorf("resume at k=%d: stats diverged:\n got %+v\nwant %+v", k, gotStats, coldStats)
		}
		sameSites(t, res.Initial, cold.Initial)
	}

	// Tail mutation: the last block changes, the first blocks-1 are a
	// shared prefix. Resume from the deepest shared checkpoint must be
	// byte-identical to a cold compile of the mutated circuit.
	mut := circ.Clone()
	mut.Blocks[blocks-1].OneQ += 2
	mut.Blocks[blocks-1].Gates = mut.Blocks[blocks-1].Gates[:1]
	coldMut, err := p.Run(mut, hw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunOpts(mut, hw, RunOptions{Resume: &cps[blocks-2]})
	if err != nil {
		t.Fatal(err)
	}
	wantInstr, wantStats := stabilized(coldMut)
	gotInstr, gotStats := stabilized(res)
	if !reflect.DeepEqual(gotInstr, wantInstr) || !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("tail-mutated resume diverged from cold compile of the mutated circuit:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	sameSites(t, res.Initial, coldMut.Initial)

	// The resumed runs above must not have corrupted the checkpoints:
	// a second resume from an already-used checkpoint still matches.
	res2, err := p.RunOpts(circ, hw, RunOptions{Resume: &cps[blocks-2]})
	if err != nil {
		t.Fatal(err)
	}
	gotInstr2, gotStats2 := stabilized(res2)
	if !reflect.DeepEqual(gotInstr2, coldInstr) || !reflect.DeepEqual(gotStats2, coldStats) {
		t.Error("checkpoint reuse after a divergent resume no longer matches the cold compile")
	}
}

// TestResumeRejections: resume validates its inputs instead of
// producing corrupt programs.
func TestResumeRejections(t *testing.T) {
	const n, blocks = 12, 4
	circ := incrTestCircuit("rej", n, blocks)
	hw := arch.New(arch.Config{Qubits: n})
	p, err := Zoned(ZonedConfig{UseStorage: true})
	if err != nil {
		t.Fatal(err)
	}
	var cps []Checkpoint
	if _, err := p.RunOpts(circ, hw, RunOptions{Capture: func(cp Checkpoint) { cps = append(cps, cp) }}); err != nil {
		t.Fatal(err)
	}
	cp := cps[blocks-1]

	short := incrTestCircuit("short", n, blocks-2)
	if _, err := p.RunOpts(short, hw, RunOptions{Resume: &cp}); err == nil {
		t.Error("checkpoint deeper than the circuit accepted")
	}
	other := incrTestCircuit("other", n+2, blocks)
	bigHW := arch.New(arch.Config{Qubits: n + 2})
	if _, err := p.RunOpts(other, bigHW, RunOptions{Resume: &cp}); err == nil {
		t.Error("qubit-count mismatch accepted")
	}
	if _, err := p.RunOpts(circ, arch.New(arch.Config{Qubits: n, AODs: 2}), RunOptions{Resume: &cps[0]}); err == nil {
		t.Error("architecture shape mismatch accepted")
	}
	rm, err := Zoned(ZonedConfig{UseStorage: true, RandomMover: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rm.RunOpts(circ, hw, RunOptions{Resume: &cp}); err == nil {
		t.Error("non-resumable pipeline accepted a resume")
	}
}
