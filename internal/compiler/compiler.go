// Package compiler is the pass-manager core shared by every compilation
// scheme in the repository. A compilation is a Pipeline: an ordered list
// of passes run over one Context (circuit, architecture, working layout,
// ISA program under construction, RNG, counters). The driver times every
// pass invocation — including passes run per block or per stage inside a
// composite pass — and records the per-pass wall-clock and counter
// deltas into a structured PassStats breakdown that rides on
// Result.Stats, so every front end (cmd/powermove -timings,
// cmd/experiments -json, the daemon's /v1/compile response and /metrics)
// can attribute compile cost to individual passes.
//
// The two pipelines of the paper's evaluation are built here, and this
// package is the only configuration surface of a compile: the powermove
// facade's Options and EnolaOptions are ZonedConfig and EnolaConfig.
//
//   - Zoned (PowerMove, zoned.go): validate → fuse? → place → per
//     block: stage-partition → stage-order? → per stage: route → group
//     → collsched-order? → batch → emit.
//   - Enola (the baseline, enola.go): validate → place → per block:
//     mis-stage → per stage: route-home → group → batch → emit
//     (out-batches, Rydberg pulse, revert batches).
//
// Ablations are pass substitution at pipeline-construction time — an
// optional pass is simply not appended, and the grouping pass is chosen
// by name from a validated registry — instead of booleans threaded
// through a loop. Construction validates the configuration (unknown
// grouping names, out-of-range alpha, negative restart counts) so
// misconfiguration fails before any work happens. It also fixes the two
// run-level properties a configuration implies: whether each run seeds
// an RNG, and whether the pipeline is resumable (snapshot.go).
package compiler

import (
	"fmt"
	"math/rand"
	"time"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/stage"
)

// Stats summarizes the compiler's work on one circuit. It is the one
// stats type shared by every pipeline.
type Stats struct {
	// Blocks, Stages, Moves, CollMoves, and Batches count the pipeline
	// products at each level. For the Enola pipeline, CollMoves counts
	// emitted move batches (each carrying one group), preserving the
	// baseline's historical accounting.
	Blocks, Stages, Moves, CollMoves, Batches int
	// CompileTime is the wall-clock compilation duration.
	CompileTime time.Duration
	// Passes is the per-pass breakdown of CompileTime: one entry per
	// distinct pass name, in first-execution order, with cumulative
	// self-time, call counts, and counter deltas. Durations are
	// wall-clock measurements and vary run to run; every "stable"
	// output mode drops or zeroes them.
	Passes PassStats `json:"Passes,omitempty"`
}

// counterDelta returns the named counter increments from prev to s,
// omitting zero entries.
func (s Stats) counterDelta(prev Stats) map[string]int64 {
	var d map[string]int64
	add := func(name string, v int) {
		if v != 0 {
			if d == nil {
				d = make(map[string]int64, 5)
			}
			d[name] = int64(v)
		}
	}
	add("blocks", s.Blocks-prev.Blocks)
	add("stages", s.Stages-prev.Stages)
	add("moves", s.Moves-prev.Moves)
	add("coll_moves", s.CollMoves-prev.CollMoves)
	add("batches", s.Batches-prev.Batches)
	return d
}

// Result carries a compiled program together with the initial layout it
// must be executed from and the compiler's statistics.
type Result struct {
	Program *isa.Program
	Initial *layout.Layout
	Stats   Stats
}

// PassStat is the accounting of one pass across a compilation: how many
// times it ran, its cumulative self-time (nested sub-pass time is
// attributed to the sub-pass, not the parent, so a breakdown's durations
// sum to ~CompileTime without double counting), and the Stats counters
// it advanced.
type PassStat struct {
	// Pass is the pass name.
	Pass string `json:"pass"`
	// Calls counts invocations (stage-level passes run once per stage).
	Calls int `json:"calls"`
	// Duration is cumulative self-time, marshaled as nanoseconds.
	Duration time.Duration `json:"duration_ns"`
	// Counters holds the Stats counters this pass advanced, e.g.
	// {"moves": 420} for the routing pass. Empty for pure rewrites.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// PassStats is a compilation's per-pass breakdown, in first-execution
// order.
type PassStats []PassStat

// Total returns the summed self-time of all passes — the portion of
// CompileTime attributed to passes (the remainder is driver overhead).
func (ps PassStats) Total() time.Duration {
	var t time.Duration
	for _, p := range ps {
		t += p.Duration
	}
	return t
}

// Stabilized returns a copy with every duration zeroed, leaving the
// deterministic calls and counters. Stable output modes use it so
// repeated runs produce byte-identical documents. Counter maps are
// shared with the receiver; callers must not mutate them.
func (ps PassStats) Stabilized() PassStats {
	if ps == nil {
		return nil
	}
	out := make(PassStats, len(ps))
	copy(out, ps)
	for i := range out {
		out[i].Duration = 0
	}
	return out
}

// Pass is one unit of compilation work. Passes are stateless: per-run
// data lives in the Context, so a Pipeline can be reused across
// compilations and goroutines.
type Pass interface {
	// Name identifies the pass in PassStats breakdowns and error
	// messages. Passes occupying the same conceptual slot (e.g. the
	// three grouping heuristics) share a name so observability
	// aggregates across configurations.
	Name() string
	// Run executes the pass against ctx.
	Run(*Context) error
}

// passFunc adapts a function to the Pass interface.
type passFunc struct {
	name string
	fn   func(*Context) error
}

func (p passFunc) Name() string           { return p.name }
func (p passFunc) Run(ctx *Context) error { return p.fn(ctx) }

// NewPass wraps fn as a named Pass.
func NewPass(name string, fn func(*Context) error) Pass {
	return passFunc{name: name, fn: fn}
}

// Context is the shared state one compilation flows through. The
// top-level fields are the compilation's inputs and products; the
// dataflow fields below them carry intermediate results between the
// passes of the current block and stage (the composite lowering pass
// sets them before running its sub-passes).
type Context struct {
	// Circuit is the program being compiled. The fusion pass replaces
	// it with the fused circuit.
	Circuit *circuit.Circuit
	// Arch is the target hardware.
	Arch *arch.Arch
	// Initial is the layout the compiled program starts from, set by
	// the placement pass.
	Initial *layout.Layout
	// Layout is the working layout the router mutates stage by stage
	// (the Enola pipeline's fixed home layout never changes).
	Layout *layout.Layout
	// Program is the ISA instruction stream under construction.
	Program *isa.Program
	// RNG drives randomized passes (the zoned random-mover ablation,
	// Enola's randomized MIS restarts); nil for deterministic configs.
	RNG *rand.Rand
	// restarts holds the draws Enola's skipped restarts owe RNG and
	// counts the restarts run (see misStages).
	restarts restartLedger
	// Stats accumulates the compilation counters. Passes update it
	// directly; the driver attributes deltas to the running pass.
	Stats Stats

	// Block and BlockIndex identify the commutable block being lowered.
	Block      *circuit.Block
	BlockIndex int
	// Stages is the current block's Rydberg schedule, set by the
	// staging pass and reordered in place by the stage-order pass.
	Stages []stage.Stage
	// Stage and StageID identify the stage the stage-level passes are
	// lowering; StageID is global across blocks.
	Stage   *stage.Stage
	StageID int
	// Moves/MovesBack carry routed movements (MovesBack is the Enola
	// revert leg; the zoned pipeline leaves it nil).
	Moves, MovesBack []move.Move
	// Groups/GroupsBack carry the grouped Coll-Moves.
	Groups, GroupsBack []move.CollMove
	// Batches/BatchesBack carry the AOD-batched move instructions.
	Batches, BatchesBack []isa.MoveBatch

	rec *recorder

	// Incremental-compilation state (see snapshot.go). capture, when
	// set, is invoked after every completed block; startBlock is the
	// first block the lowering loop runs (non-zero on resume);
	// runStart/baseElapsed let checkpoints report the wall clock
	// invested up to their capture.
	capture     func(*Context)
	startBlock  int
	runStart    time.Time
	baseElapsed time.Duration
}

// RunPass executes p under the pipeline's timing recorder. Composite
// passes (the per-block lowering loop) run their sub-passes through it
// so nested invocations land in the same PassStats breakdown, with
// sub-pass time attributed to the sub-pass rather than the parent.
func (c *Context) RunPass(p Pass) error { return c.rec.run(c, p) }

// frame tracks one in-flight pass invocation so a parent's recorded
// self-time and counters exclude its children's. The name, start time,
// and entry counters let a checkpoint snapshot fold the frame's pending
// self-attribution mid-flight.
type frame struct {
	name        string
	start       time.Time
	before      Stats
	childTime   time.Duration
	childCounts Stats
}

// passAccum is the recorder's per-pass accumulator. Counters accumulate
// in the fixed Stats fields — no per-invocation map work — and are
// converted to the named-counter map once, when the breakdown is
// assembled. This keeps the always-on instrumentation to two clock
// reads, one map lookup, and integer arithmetic per pass invocation.
type passAccum struct {
	calls    int
	duration time.Duration
	counts   Stats
}

// recorder accumulates per-pass accounting across one Pipeline.Run.
type recorder struct {
	order  []string
	byName map[string]*passAccum
	stack  []frame
}

func newRecorder() *recorder {
	return &recorder{byName: make(map[string]*passAccum)}
}

// run times one pass invocation, attributing self-time and self counter
// deltas to the pass and charging the whole invocation to the parent
// frame's child accumulators.
func (r *recorder) run(ctx *Context, p Pass) error {
	// Register at invocation start so a composite pass precedes its
	// sub-passes in the breakdown's execution order.
	st := r.byName[p.Name()]
	if st == nil {
		st = &passAccum{}
		r.byName[p.Name()] = st
		r.order = append(r.order, p.Name())
	}

	before := ctx.Stats
	start := time.Now()
	r.stack = append(r.stack, frame{name: p.Name(), start: start, before: before})
	err := p.Run(ctx)
	elapsed := time.Since(start)

	fr := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]

	if len(r.stack) > 0 {
		parent := &r.stack[len(r.stack)-1]
		parent.childTime += elapsed
		parent.childCounts.Blocks += ctx.Stats.Blocks - before.Blocks
		parent.childCounts.Stages += ctx.Stats.Stages - before.Stages
		parent.childCounts.Moves += ctx.Stats.Moves - before.Moves
		parent.childCounts.CollMoves += ctx.Stats.CollMoves - before.CollMoves
		parent.childCounts.Batches += ctx.Stats.Batches - before.Batches
	}

	st.calls++
	st.duration += elapsed - fr.childTime
	st.counts.Blocks += ctx.Stats.Blocks - before.Blocks - fr.childCounts.Blocks
	st.counts.Stages += ctx.Stats.Stages - before.Stages - fr.childCounts.Stages
	st.counts.Moves += ctx.Stats.Moves - before.Moves - fr.childCounts.Moves
	st.counts.CollMoves += ctx.Stats.CollMoves - before.CollMoves - fr.childCounts.CollMoves
	st.counts.Batches += ctx.Stats.Batches - before.Batches - fr.childCounts.Batches

	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), err)
	}
	return nil
}

// stats assembles the breakdown in first-execution order, materializing
// each pass's counter map from its accumulator.
func (r *recorder) stats() PassStats {
	out := make(PassStats, 0, len(r.order))
	for _, name := range r.order {
		a := r.byName[name]
		out = append(out, PassStat{
			Pass:     name,
			Calls:    a.calls,
			Duration: a.duration,
			Counters: a.counts.counterDelta(Stats{}),
		})
	}
	return out
}

// addCounts and subCounts combine the counter fields of two Stats
// values, leaving the wall-clock fields zero.
func addCounts(a, b Stats) Stats {
	return Stats{
		Blocks:    a.Blocks + b.Blocks,
		Stages:    a.Stages + b.Stages,
		Moves:     a.Moves + b.Moves,
		CollMoves: a.CollMoves + b.CollMoves,
		Batches:   a.Batches + b.Batches,
	}
}

func subCounts(a, b Stats) Stats {
	return Stats{
		Blocks:    a.Blocks - b.Blocks,
		Stages:    a.Stages - b.Stages,
		Moves:     a.Moves - b.Moves,
		CollMoves: a.CollMoves - b.CollMoves,
		Batches:   a.Batches - b.Batches,
	}
}

// recorderState is a recorder's accounting frozen at a checkpoint,
// self-contained so a later resumed run can continue it.
type recorderState struct {
	order  []string
	accums map[string]passAccum
}

// snapshot deep-copies the recorder's accounting and folds in the
// pending self-attribution of every in-flight frame (on a checkpoint
// path that is the lowering loop's frame): each frame's self-time and
// self counter deltas so far are its total elapsed/delta minus its
// finished children's and minus the still-running inner frames'. Call
// counts are not folded — an in-flight invocation counts its call when
// it completes, and a resumed run's fresh invocation supplies it — so a
// resumed breakdown's calls match a cold compile's exactly.
func (r *recorder) snapshot(ctx *Context, now time.Time) recorderState {
	st := recorderState{
		order:  append([]string(nil), r.order...),
		accums: make(map[string]passAccum, len(r.byName)),
	}
	for name, a := range r.byName {
		st.accums[name] = *a
	}
	var innerElapsed time.Duration
	var innerDelta Stats
	for i := len(r.stack) - 1; i >= 0; i-- {
		f := r.stack[i]
		elapsed := now.Sub(f.start)
		delta := subCounts(ctx.Stats, f.before)
		ac := st.accums[f.name]
		ac.duration += elapsed - f.childTime - innerElapsed
		ac.counts = addCounts(ac.counts, subCounts(subCounts(delta, f.childCounts), innerDelta))
		st.accums[f.name] = ac
		innerElapsed = elapsed
		innerDelta = delta
	}
	return st
}

// seededRecorder builds a live recorder primed with a checkpoint's
// accounting, so a resumed run's breakdown continues the donor's.
func seededRecorder(st recorderState) *recorder {
	r := newRecorder()
	r.order = append(r.order, st.order...)
	for name, a := range st.accums {
		ac := a
		r.byName[name] = &ac
	}
	return r
}

// Pipeline is a validated, reusable pass composition. Build one with
// New (or the Zoned/Enola constructors) and run it with Run; a Pipeline
// holds no per-run state and is safe for concurrent use.
type Pipeline struct {
	name   string
	passes []Pass
	// seeded gives every run a fresh Context.RNG seeded with seed; an
	// unseeded run leaves the RNG nil.
	seeded bool
	seed   int64
	// resumable is set by the constructors whose pipelines support
	// checkpoint resume (see Resumable).
	resumable bool
}

// New validates and assembles a pipeline: the name and every pass name
// must be non-empty, passes non-nil, and top-level pass names unique.
func New(name string, passes ...Pass) (*Pipeline, error) {
	if name == "" {
		return nil, fmt.Errorf("compiler: pipeline needs a name")
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("compiler: pipeline %q has no passes", name)
	}
	seen := make(map[string]bool, len(passes))
	for i, p := range passes {
		if p == nil {
			return nil, fmt.Errorf("compiler: pipeline %q: pass %d is nil", name, i)
		}
		if p.Name() == "" {
			return nil, fmt.Errorf("compiler: pipeline %q: pass %d has no name", name, i)
		}
		if seen[p.Name()] {
			return nil, fmt.Errorf("compiler: pipeline %q: duplicate pass %q", name, p.Name())
		}
		seen[p.Name()] = true
	}
	return &Pipeline{name: name, passes: passes}, nil
}

// Name returns the pipeline's name ("zoned", "enola").
func (p *Pipeline) Name() string { return p.name }

// Passes returns the top-level pass names in execution order.
func (p *Pipeline) Passes() []string {
	names := make([]string, len(p.passes))
	for i, pass := range p.passes {
		names[i] = pass.Name()
	}
	return names
}

// Run compiles circ for a: it builds a fresh Context, runs every pass
// under the timing recorder, and returns the program, initial layout,
// and statistics with the per-pass breakdown attached.
func (p *Pipeline) Run(circ *circuit.Circuit, a *arch.Arch) (*Result, error) {
	return p.RunOpts(circ, a, RunOptions{})
}

// blockLoop is the composite lowering pass shared by both pipelines: it
// walks the circuit's commutable blocks, emits each block's 1Q layer,
// runs the block-level passes (staging), then runs the stage-level
// passes once per scheduled stage. Its own recorded self-time is the
// loop overhead; sub-pass time is attributed to the sub-passes.
type blockLoop struct {
	blockPasses []Pass
	stagePasses []Pass
}

func (bl *blockLoop) Name() string { return "lower" }

func (bl *blockLoop) Run(ctx *Context) error {
	for bi := ctx.startBlock; bi < len(ctx.Circuit.Blocks); bi++ {
		ctx.Block = &ctx.Circuit.Blocks[bi]
		ctx.BlockIndex = bi
		ctx.Stats.Blocks++
		if ctx.Block.OneQ > 0 {
			ctx.Program.Instr = append(ctx.Program.Instr, isa.OneQLayer{Count: ctx.Block.OneQ})
		}
		ctx.Stages = nil
		for _, p := range bl.blockPasses {
			if err := ctx.RunPass(p); err != nil {
				return err
			}
		}
		for si := range ctx.Stages {
			ctx.Stage = &ctx.Stages[si]
			for _, p := range bl.stagePasses {
				if err := ctx.RunPass(p); err != nil {
					return err
				}
			}
			ctx.StageID++
		}
		if ctx.capture != nil {
			ctx.capture(ctx)
		}
	}
	return nil
}
