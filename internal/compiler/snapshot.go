// Incremental compilation support: block checkpoints and resumable
// pipeline runs.
//
// A resumable pipeline's pre-loop passes depend only on the whole
// circuit and the architecture, and its per-block lowering depends only
// on the current block plus the state a Checkpoint restores (working
// layout, program prefix, stage counter). For such a pipeline, a
// compile of a circuit sharing a block prefix with an earlier compile
// can replay the earlier run's Checkpoint — skipping validation,
// placement, and every already-lowered block — and run only the
// divergent tail. The replayed run is byte-identical to a cold compile
// of the same circuit: layouts, programs, and stats counters are
// deterministic functions of the block prefix, and the recorder
// snapshot folds the in-flight lowering frame so per-pass call counts
// and counter deltas match the cold breakdown exactly.
package compiler

import (
	"fmt"
	"math/rand"
	"time"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/isa"
	"powermove/internal/layout"
)

// Resumable reports whether the pipeline supports checkpoint capture and
// resume. The constructor decides: Zoned sets it unless the pipeline
// rewrites the circuit (block fusion, after which the caller's block
// hashes no longer describe the circuit being lowered) or seeds an RNG
// (the random mover, whose draws before a block are state a Checkpoint
// does not carry). Enola seeds an RNG, and New cannot know what its
// passes read, so neither is resumable. A new pass that reads the whole
// circuit inside the lowering loop, rewrites the circuit or draws from
// the RNG must clear resumability in its constructor.
func (p *Pipeline) Resumable() bool { return p.resumable }

// Checkpoint is the complete resumable state of a compilation after a
// whole number of blocks: enough to continue lowering from the next
// block as if the prefix had just been compiled. Checkpoints are
// immutable once captured — Resume clones the working layout and
// copy-on-append shares the instruction prefix — so one checkpoint can
// seed any number of concurrent resumed runs.
type Checkpoint struct {
	// Blocks is the number of completed blocks the checkpoint covers.
	Blocks int
	// StageID is the global stage counter after the covered blocks.
	StageID int
	// Initial is the placement the compiled program starts from. It is
	// shared, not cloned: placement never mutates it after the place
	// pass.
	Initial *layout.Layout
	// Layout is the working layout after the covered blocks (cloned at
	// capture).
	Layout *layout.Layout
	// Instr is the program prefix emitted by the covered blocks.
	Instr []isa.Instruction
	// Stats holds the compilation counters at capture (wall-clock
	// fields zeroed).
	Stats Stats
	// Elapsed is the compile wall clock invested up to the capture —
	// what a resume from this checkpoint saves.
	Elapsed time.Duration

	rec recorderState
}

// RunOptions parameterizes RunOpts beyond the plain Run path.
type RunOptions struct {
	// Resume continues compilation from a checkpoint instead of
	// starting cold: validation and placement are skipped (their
	// products are restored from the checkpoint) and lowering starts at
	// block Resume.Blocks. The circuit must agree with the checkpoint's
	// covered prefix — the caller establishes that via content hashes —
	// and the architecture must share the donor's shape.
	Resume *Checkpoint
	// Capture, when set, receives a checkpoint after every completed
	// block.
	Capture func(Checkpoint)
}

// RunOpts is Run with incremental-compilation options. Zero opts is
// exactly Run.
func (p *Pipeline) RunOpts(circ *circuit.Circuit, a *arch.Arch, opts RunOptions) (*Result, error) {
	if circ == nil || a == nil {
		return nil, fmt.Errorf("%s: nil circuit or architecture", p.name)
	}
	if opts.Resume != nil {
		return p.resume(circ, a, opts)
	}
	return p.runCold(circ, a, opts)
}

// runCold is the ordinary full run, with optional capture threaded into
// the context.
func (p *Pipeline) runCold(circ *circuit.Circuit, a *arch.Arch, opts RunOptions) (*Result, error) {
	start := time.Now()
	ctx := &Context{Circuit: circ, Arch: a, rec: newRecorder(), runStart: start}
	if opts.Capture != nil {
		ctx.capture = func(c *Context) { opts.Capture(c.checkpoint(time.Now())) }
	}
	if p.seeded {
		ctx.RNG = rand.New(rand.NewSource(p.seed))
	}
	for _, pass := range p.passes {
		if err := ctx.rec.run(ctx, pass); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	ctx.Stats.CompileTime = time.Since(start)
	ctx.Stats.Passes = ctx.rec.stats()
	return &Result{Program: ctx.Program, Initial: ctx.Initial, Stats: ctx.Stats}, nil
}

// resume continues a compilation from a checkpoint: restore the
// context, then run only the lowering loop starting at the first
// uncovered block. The reported CompileTime is the checkpoint's
// invested wall clock plus the tail's, so the duration contract
// (pass self-times sum to ~CompileTime) still holds.
func (p *Pipeline) resume(circ *circuit.Circuit, a *arch.Arch, opts RunOptions) (*Result, error) {
	cp := opts.Resume
	if !p.Resumable() {
		return nil, fmt.Errorf("%s: pipeline is not resumable", p.name)
	}
	if cp.Initial == nil || cp.Layout == nil {
		return nil, fmt.Errorf("%s: checkpoint missing layouts", p.name)
	}
	if cp.Initial.Qubits() != circ.Qubits {
		return nil, fmt.Errorf("%s: checkpoint covers %d qubits, circuit has %d", p.name, cp.Initial.Qubits(), circ.Qubits)
	}
	if cp.Blocks > len(circ.Blocks) {
		return nil, fmt.Errorf("%s: checkpoint covers %d blocks, circuit has %d", p.name, cp.Blocks, len(circ.Blocks))
	}
	if !sameShape(cp.Initial.Arch(), a) {
		return nil, fmt.Errorf("%s: checkpoint architecture differs in shape", p.name)
	}
	// The validate pass ran before the checkpoint and its accounting is
	// part of the restored recorder state, but the tail blocks are new
	// input: re-check the structural invariants without recording.
	if err := circ.Validate(); err != nil {
		return nil, fmt.Errorf("%s: validate: %w", p.name, err)
	}
	start := time.Now()
	ctx := &Context{
		Circuit: circ,
		Arch:    a,
		Initial: cp.Initial,
		Layout:  cp.Layout.Clone(),
		// Full capacity forces the first tail append to copy, so the
		// checkpoint's prefix is never written through.
		Program:     &isa.Program{Name: circ.Name, Qubits: circ.Qubits, Instr: cp.Instr[:len(cp.Instr):len(cp.Instr)]},
		Stats:       cp.Stats,
		StageID:     cp.StageID,
		startBlock:  cp.Blocks,
		runStart:    start,
		baseElapsed: cp.Elapsed,
		rec:         seededRecorder(cp.rec),
	}
	if opts.Capture != nil {
		ctx.capture = func(c *Context) { opts.Capture(c.checkpoint(time.Now())) }
	}
	// A resumable pipeline's lowering loop is its last pass.
	if err := ctx.rec.run(ctx, p.passes[len(p.passes)-1]); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	ctx.Stats.CompileTime = cp.Elapsed + time.Since(start)
	ctx.Stats.Passes = ctx.rec.stats()
	return &Result{Program: ctx.Program, Initial: ctx.Initial, Stats: ctx.Stats}, nil
}

// sameShape reports whether two architectures agree in every field a
// checkpointed layout depends on.
func sameShape(x, y *arch.Arch) bool {
	return x.ComputeRows == y.ComputeRows && x.ComputeCols == y.ComputeCols &&
		x.StorageRows == y.StorageRows && x.StorageCols == y.StorageCols &&
		x.AODs == y.AODs
}

// checkpoint captures the context's resumable state after the current
// block.
func (c *Context) checkpoint(now time.Time) Checkpoint {
	st := c.Stats
	st.CompileTime = 0
	st.Passes = nil
	// A nil prefix stays nil, as in a cold run that emits nothing more.
	instr := append([]isa.Instruction(nil), c.Program.Instr...)
	return Checkpoint{
		Blocks:  c.BlockIndex + 1,
		StageID: c.StageID,
		Initial: c.Initial,
		Layout:  c.Layout.Clone(),
		Instr:   instr,
		Stats:   st,
		Elapsed: c.baseElapsed + now.Sub(c.runStart),
		rec:     c.rec.snapshot(c, now),
	}
}
