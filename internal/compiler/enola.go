// The Enola pipeline: the revert-to-home baseline compiler the paper
// compares against (Sec. 3), reimplemented from its published
// description as a pass composition over the same pass-manager driver
// as the zoned pipeline, so both schemes share one driver, one Stats
// type, and one observability path.
//
// Enola's defining characteristics, and the source of its limitations:
//
//   - Gate scheduling by iterated maximal-independent-set extraction on
//     the gate conflict graph, with randomized restarts seeking large
//     stages. This achieves near-optimal stage counts. An independent
//     set of the conflict graph is a matching of the qubit interaction
//     graph, so an extraction's restarts run only while its best set is
//     smaller than a maximum matching. In almost every extraction of
//     the paper's benchmarks the greedy set already reaches it.
//   - A fixed home layout in the computation zone. Every stage moves one
//     qubit of each CZ pair from its home site to its partner's home
//     site, and — to avoid the clustering of Fig. 3(b) — *reverts* every
//     mover to its home site before the next stage, doubling movement
//     and transfer volume.
//   - No storage zone: every idle qubit sits in the computation zone
//     during every Rydberg pulse and accrues excitation error.
package compiler

import (
	"fmt"
	"math/rand"

	"powermove/internal/circuit"
	"powermove/internal/collsched"
	"powermove/internal/graphutil"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/stage"
)

// MinRestarts is the floor on the Enola pipeline's instance-scaled
// restart count: each stage extraction tries up to this many random
// greedy orders and keeps the largest independent set found. The
// default effort is max(MinRestarts, 2 * gates-in-block), approximating
// the scaling of the original's Maximum-Independent-Set solver.
// Restarts that can no longer beat the best set are skipped (see
// misStages), so the effort is a budget, not a cost.
const MinRestarts = 16

// EnolaConfig configures one baseline pipeline.
type EnolaConfig struct {
	// Restarts is the number of randomized restarts per
	// maximal-independent-set extraction; zero selects the default
	// instance-scaled effort (see MinRestarts). An extraction stops
	// early once its best set reaches the maximum matching of the gates
	// left, which leaves the stages unchanged. Negative counts fail
	// Enola.
	Restarts int
	// Seed drives the randomized restarts.
	Seed int64
}

// Enola validates cfg and assembles the baseline pipeline:
//
//	validate → place → lower(per block: mis-stage → per stage:
//	route-home → group → batch → emit)
//
// where route-home produces both the forward leg and the revert leg of
// the baseline's doubled movement, and emit interleaves them around the
// Rydberg pulse.
func Enola(cfg EnolaConfig) (*Pipeline, error) {
	if cfg.Restarts < 0 {
		return nil, fmt.Errorf("compiler: negative restart count %d", cfg.Restarts)
	}
	// The baseline shares the zoned pipeline's non-storage validate and
	// place passes: capacity-check against the computation zone, then
	// the row-major compute-zone home layout (which the baseline never
	// mutates — every stage starts from and reverts to home).
	p, err := New("enola",
		validatePass(false),
		placePass(false),
		&blockLoop{
			blockPasses: []Pass{misStagePass(cfg.Restarts)},
			stagePasses: []Pass{routeHomePass(), enolaGroupPass(), enolaBatchPass(), enolaEmitPass()},
		},
	)
	if err != nil {
		return nil, err
	}
	p.seeded, p.seed = true, cfg.Seed
	return p, nil
}

// misStagePass schedules the block by iterated maximal-independent-set
// extraction with randomized restarts, the baseline's
// quality-over-speed trade-off. Restarts run only in the extractions
// whose greedy set falls short of the matching bound (see misStages), so
// the pass costs about one greedy set and one maximum matching per
// stage.
func misStagePass(restarts int) Pass {
	return NewPass("mis-stage", func(ctx *Context) error {
		r := restarts
		if r == 0 {
			r = 2 * len(ctx.Block.Gates)
			if r < MinRestarts {
				r = MinRestarts
			}
		}
		ctx.Stages = misStages(ctx.Block.Gates, r, ctx.RNG, &ctx.restarts)
		ctx.Stats.Stages += len(ctx.Stages)
		return nil
	})
}

// routeHomePass produces the baseline's doubled movement for one stage:
// the forward leg to the partners' home sites and the revert leg back.
func routeHomePass() Pass {
	return NewPass("route-home", func(ctx *Context) error {
		ctx.Moves = stageMoves(ctx.Layout, *ctx.Stage)
		ctx.MovesBack = reverseMoves(ctx.Moves)
		ctx.Stats.Moves += len(ctx.Moves) + len(ctx.MovesBack)
		return nil
	})
}

// enolaGroupPass packs both legs arrival-order first-fit, the
// baseline's grouping.
func enolaGroupPass() Pass {
	return NewPass("group", func(ctx *Context) error {
		ctx.Groups = move.GroupInOrder(ctx.Moves)
		ctx.GroupsBack = move.GroupInOrder(ctx.MovesBack)
		return nil
	})
}

// enolaBatchPass batches both legs. The baseline's historical
// accounting counts emitted batches as its CollMoves, preserved here.
func enolaBatchPass() Pass {
	return NewPass("batch", func(ctx *Context) error {
		ctx.Batches = collsched.Batch(ctx.Groups, ctx.Arch.AODs)
		ctx.BatchesBack = collsched.Batch(ctx.GroupsBack, ctx.Arch.AODs)
		n := len(ctx.Batches) + len(ctx.BatchesBack)
		ctx.Stats.CollMoves += n
		ctx.Stats.Batches += n
		return nil
	})
}

// enolaEmitPass interleaves the legs around the Rydberg pulse:
// out-batches, pulse, revert batches.
func enolaEmitPass() Pass {
	return NewPass("emit", func(ctx *Context) error {
		for _, batch := range ctx.Batches {
			ctx.Program.Instr = append(ctx.Program.Instr, batch)
		}
		ctx.Program.Instr = append(ctx.Program.Instr, isa.Rydberg{Stage: ctx.StageID, Pairs: ctx.Stage.Gates})
		for _, batch := range ctx.BatchesBack {
			ctx.Program.Instr = append(ctx.Program.Instr, batch)
		}
		return nil
	})
}

// misStages partitions a commutable block into Rydberg stages by
// repeatedly extracting a maximal independent set from the gate
// conflict graph. Each extraction runs the deterministic
// min-residual-degree greedy plus up to the configured number of
// random-permutation restarts and keeps the largest set found.
//
// Two gates conflict iff they share a qubit, so every independent set is
// a matching of the remaining gates' interaction graph and none is
// larger than ν, its maximum matching. A restart replaces the best set
// only with a strictly larger one, so once the best set has ν gates the
// remaining restarts cannot change the stage; they are skipped and owe
// only their random draws, which ledger settles before the next restart
// that runs. The stages are therefore exactly those of running every
// restart.
func misStages(gates []circuit.CZ, restarts int, rng *rand.Rand, ledger *restartLedger) []stage.Stage {
	if len(gates) == 0 {
		return nil
	}
	g := stage.ConflictGraph(gates)
	removed := make([]bool, len(gates))
	remaining := len(gates)
	var bound matchingBound
	var stages []stage.Stage
	for remaining > 0 {
		best := g.MaximalIndependentSet(removed)
		nu := bound.of(gates, removed)
		for r := 0; r < restarts; r++ {
			if len(best) == nu {
				ledger.skip(g.N(), restarts-r)
				break
			}
			ledger.settle(rng)
			ledger.ran++
			if r == 0 {
				ledger.searched++
			}
			if cand := randomMIS(g, removed, rng); len(cand) > len(best) {
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

// matchingBound computes ν for the extractions of one block, reusing
// its matcher's scratch from one extraction to the next.
type matchingBound struct {
	m     graphutil.Matcher
	edges [][2]int
}

// of returns the size of a maximum matching of the interaction graph of
// the gates not yet removed.
func (b *matchingBound) of(gates []circuit.CZ, removed []bool) int {
	b.edges = b.edges[:0]
	n := 0
	for i, g := range gates {
		if !removed[i] {
			b.edges = append(b.edges, [2]int{g.A, g.B})
			n = max(n, g.B+1)
		}
	}
	return b.m.MaxMatching(n, b.edges)
}

// restartLedger is the Enola pipeline's per-compile restart accounting.
// A skipped restart still owes the compile's RNG the draws of the
// rng.Perm(n) call it would have made; the ledger keeps those debts in
// order and pays them just before the next restart that runs, in this
// block or a later one, so every restart that runs sees the RNG state it
// would have seen had every restart run. Debts still open when the
// compile ends are dropped: only the mis-stage pass reads Enola's RNG,
// each Run seeds a fresh one, and Enola never checkpoints.
type restartLedger struct {
	owed []owedPerms
	// ran counts the restarts run; searched counts the extractions
	// that ran at least one.
	ran, searched int
}

// owedPerms is a run of count skipped rng.Perm(n) calls, each owing n
// draws.
type owedPerms struct{ n, count int }

// skip records count skipped restarts over an n-vertex conflict graph.
func (l *restartLedger) skip(n, count int) {
	if k := len(l.owed); k > 0 && l.owed[k-1].n == n {
		l.owed[k-1].count += count
		return
	}
	l.owed = append(l.owed, owedPerms{n, count})
}

// settle makes every owed draw, in order. rng.Perm(n) draws
// rng.Intn(i+1) for i = 0..n-1, the sequence math/rand keeps for Go 1
// compatibility, so making those draws directly leaves the RNG where
// the skipped calls would have, without building the permutations.
func (l *restartLedger) settle(rng *rand.Rand) {
	for _, o := range l.owed {
		for range o.count {
			for i := range o.n {
				rng.Intn(i + 1)
			}
		}
	}
	l.owed = l.owed[:0]
}

// randomMIS builds a maximal independent set by scanning the unremoved
// vertices in a random order and keeping each vertex compatible with
// the set so far.
func randomMIS(g *graphutil.Graph, removed []bool, rng *rand.Rand) []int {
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

// stageMoves produces the baseline's forward movement for one stage:
// the lower-indexed qubit of each CZ pair travels to its partner's home
// site (the relocation distance is symmetric, so the choice is a
// deterministic convention). Home sites hold one qubit each, so the
// destination site ends with exactly the interacting pair and no
// clustering arises.
func stageMoves(home *layout.Layout, st stage.Stage) []move.Move {
	a := home.Arch()
	var moves []move.Move
	for _, g := range st.Gates {
		moves = append(moves, move.New(a, g.A, home.SiteOf(g.A), home.SiteOf(g.B)))
	}
	return moves
}

// reverseMoves inverts a set of moves, sending each mover back home.
func reverseMoves(moves []move.Move) []move.Move {
	out := make([]move.Move, len(moves))
	for i, m := range moves {
		out[i] = move.Move{
			Qubit:    m.Qubit,
			FromSite: m.ToSite,
			ToSite:   m.FromSite,
			From:     m.To,
			To:       m.From,
		}
	}
	return out
}
