// The zoned pipeline: the PowerMove compiler of the paper (Fig. 1b) as
// a pass composition over the pass-manager driver — the Stage Scheduler
// (internal/stage), the Continuous Router (internal/router), and the
// Coll-Move Scheduler (internal/collsched), lowered to internal/isa.
//
// Two modes mirror the paper's evaluation columns:
//
//   - with-storage (ZonedConfig.UseStorage = true): the full pipeline.
//     The initial layout sits entirely in the storage zone, stages are
//     ordered to minimize inter-zone traffic, non-interacting qubits are
//     parked in storage every stage, and Coll-Moves are ordered
//     move-ins-first.
//   - non-storage (ZonedConfig.UseStorage = false): only the continuous
//     router is applied, within the computation zone, matching the
//     paper's "non-storage" ablation.
package compiler

import (
	"fmt"
	"strings"

	"powermove/internal/arch"
	"powermove/internal/collsched"
	"powermove/internal/fuse"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/router"
	"powermove/internal/stage"
)

// The grouping pass implementations selectable by name. The names are
// the one registry every layer validates against: ZonedConfig.Grouping
// (the facade's Options.Grouping) and the service's "grouping" request
// field both resolve here, so an unknown name fails pipeline
// construction with a descriptive error instead of silently selecting a
// default.
const (
	// GroupingMerged is the default: displacement buckets greedily
	// merged in ascending distance order (move.Group).
	GroupingMerged = "merged"
	// GroupingDistance is the paper's literal ascending-distance
	// first-fit (move.GroupByDistance).
	GroupingDistance = "distance"
	// GroupingInOrder is arrival-order first-fit (move.GroupInOrder).
	GroupingInOrder = "in-order"
)

// GroupingNames returns the valid grouping pass names in preference
// order (the first is the default).
func GroupingNames() []string {
	return []string{GroupingMerged, GroupingDistance, GroupingInOrder}
}

// groupingFunc resolves a grouping name ("" selects the default) or
// reports a descriptive configuration error.
func groupingFunc(name string) (func([]move.Move) []move.CollMove, error) {
	switch name {
	case "", GroupingMerged:
		return move.Group, nil
	case GroupingDistance:
		return move.GroupByDistance, nil
	case GroupingInOrder:
		return move.GroupInOrder, nil
	default:
		return nil, fmt.Errorf("compiler: unknown grouping %q (want %s)",
			name, strings.Join(GroupingNames(), ", "))
	}
}

// ValidateGrouping reports whether name selects a grouping pass; the
// empty name selects the default. The service's request validation uses
// it so bad names fail as 400s before touching a worker.
func ValidateGrouping(name string) error {
	_, err := groupingFunc(name)
	return err
}

// NormalizeGrouping canonicalizes a grouping name: an explicit default
// collapses to the empty name, so cache identities and key renderings
// treat "merged" and an omitted grouping as the same configuration.
// Unknown names pass through unchanged for validation to reject.
func NormalizeGrouping(name string) string {
	if name == GroupingMerged {
		return ""
	}
	return name
}

// ZonedConfig configures one zoned pipeline. The zero value is the full
// with-storage-off default: continuous routing inside the computation
// zone with merged grouping.
type ZonedConfig struct {
	// UseStorage selects the full zoned pipeline; false runs the
	// continuous router alone inside the computation zone.
	UseStorage bool
	// Alpha is the stage-ordering weight of Sec. 4.2; zero selects
	// stage.DefaultAlpha. Must lie in (0, 1) when set.
	Alpha float64
	// RandomMover enables the paper's random mobile/static choice for
	// compute-zone pairs (Sec. 5.2 case 4). The default deterministic
	// lower-index convention groups movements more densely; RandomMover
	// exists for the ablation benches.
	RandomMover bool
	// Seed drives the random mover choice when RandomMover is set. The
	// same seed reproduces an identical program.
	Seed int64
	// DisableStageOrder drops the stage-order pass even in with-storage
	// mode (ablation).
	DisableStageOrder bool
	// DisableIntraStageOrder drops the collsched-order pass even in
	// with-storage mode (ablation).
	DisableIntraStageOrder bool
	// Grouping names the Coll-Move grouping pass: GroupingMerged (""
	// selects it), GroupingDistance or GroupingInOrder. Unknown names
	// fail Zoned with a descriptive error.
	Grouping string
	// FuseBlocks inserts the block-fusion pre-pass (internal/fuse):
	// consecutive blocks with disjoint gate supports merge and share
	// Rydberg stages. Sound when each block's 1Q layer acts only on
	// that block's gate qubits — the convention of every
	// internal/workload generator; leave it off for circuits of unknown
	// provenance.
	FuseBlocks bool
}

// Zoned validates cfg and assembles the PowerMove pipeline:
//
//	validate → fuse? → place → lower(per block: stage-partition →
//	stage-order? → per stage: route → group → collsched-order? →
//	batch → emit)
//
// Ablation flags substitute passes here, at construction, so the run
// path has no mode branches.
func Zoned(cfg ZonedConfig) (*Pipeline, error) {
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = stage.DefaultAlpha
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("compiler: alpha %v outside (0, 1)", alpha)
	}
	group, err := groupingFunc(cfg.Grouping)
	if err != nil {
		return nil, err
	}

	blockPasses := []Pass{stagePartitionPass()}
	if cfg.UseStorage && !cfg.DisableStageOrder {
		blockPasses = append(blockPasses, stageOrderPass(alpha))
	}
	stagePasses := []Pass{routePass(cfg.UseStorage), groupPass(group)}
	if cfg.UseStorage && !cfg.DisableIntraStageOrder {
		stagePasses = append(stagePasses, collschedOrderPass())
	}
	stagePasses = append(stagePasses, batchPass(), emitPass())

	passes := []Pass{validatePass(cfg.UseStorage)}
	if cfg.FuseBlocks {
		passes = append(passes, fusePass())
	}
	passes = append(passes,
		placePass(cfg.UseStorage),
		&blockLoop{blockPasses: blockPasses, stagePasses: stagePasses},
	)

	p, err := New("zoned", passes...)
	if err != nil {
		return nil, err
	}
	p.seeded, p.seed = cfg.RandomMover, cfg.Seed
	p.resumable = !cfg.FuseBlocks && !cfg.RandomMover
	return p, nil
}

// validatePass checks the circuit against the architecture's capacity.
func validatePass(useStorage bool) Pass {
	return NewPass("validate", func(ctx *Context) error {
		if err := ctx.Circuit.Validate(); err != nil {
			return err
		}
		if ctx.Circuit.Qubits > ctx.Arch.ComputeSites() {
			return fmt.Errorf("%d qubits exceed %d computation sites", ctx.Circuit.Qubits, ctx.Arch.ComputeSites())
		}
		if useStorage && ctx.Circuit.Qubits > ctx.Arch.StorageSites() {
			return fmt.Errorf("%d qubits exceed %d storage sites", ctx.Circuit.Qubits, ctx.Arch.StorageSites())
		}
		return nil
	})
}

// fusePass merges consecutive blocks with disjoint gate supports
// (internal/fuse) so they share Rydberg stages.
func fusePass() Pass {
	return NewPass("fuse", func(ctx *Context) error {
		ctx.Circuit = fuse.Circuit(ctx.Circuit, fuse.Options{})
		return nil
	})
}

// placePass builds the initial layout (storage zone for the zoned mode,
// row-major computation zone otherwise), the working layout, and the
// empty program.
func placePass(useStorage bool) Pass {
	return NewPass("place", func(ctx *Context) error {
		zone := arch.Compute
		if useStorage {
			zone = arch.Storage
		}
		ctx.Initial = layout.New(ctx.Arch, ctx.Circuit.Qubits)
		ctx.Initial.PlaceAll(zone)
		ctx.Layout = ctx.Initial.Clone()
		ctx.Program = &isa.Program{Name: ctx.Circuit.Name, Qubits: ctx.Circuit.Qubits}
		return nil
	})
}

// stagePartitionPass schedules the block's gates into Rydberg stages by
// edge coloring the block's interaction graph (stage.Partition).
func stagePartitionPass() Pass {
	return NewPass("stage-partition", func(ctx *Context) error {
		ctx.Stages = stage.Partition(ctx.Block.Gates)
		ctx.Stats.Stages += len(ctx.Stages)
		return nil
	})
}

// stageOrderPass reorders the block's stages to minimize inter-zone
// traffic (Sec. 4.2).
func stageOrderPass(alpha float64) Pass {
	return NewPass("stage-order", func(ctx *Context) error {
		ctx.Stages = stage.Order(ctx.Stages, alpha)
		return nil
	})
}

// routePass runs the continuous router for the current stage, mutating
// the working layout.
func routePass(useStorage bool) Pass {
	return NewPass("route", func(ctx *Context) error {
		moves, err := router.Route(ctx.Layout, *ctx.Stage, useStorage, ctx.RNG)
		if err != nil {
			return fmt.Errorf("block %d stage %d: %w", ctx.BlockIndex, ctx.StageID, err)
		}
		ctx.Moves = moves
		ctx.Stats.Moves += len(moves)
		return nil
	})
}

// groupPass packs the stage's movements into Coll-Moves with the
// configured heuristic. All three grouping implementations share the
// pass name, so breakdowns aggregate per slot across configurations.
func groupPass(group func([]move.Move) []move.CollMove) Pass {
	return NewPass("group", func(ctx *Context) error {
		ctx.Groups = group(ctx.Moves)
		ctx.Stats.CollMoves += len(ctx.Groups)
		return nil
	})
}

// collschedOrderPass orders Coll-Moves move-ins-first (Sec. 6).
func collschedOrderPass() Pass {
	return NewPass("collsched-order", func(ctx *Context) error {
		ctx.Groups = collsched.OrderByStorageFlow(ctx.Groups)
		return nil
	})
}

// batchPass packs ordered Coll-Moves onto the architecture's AOD
// arrays.
func batchPass() Pass {
	return NewPass("batch", func(ctx *Context) error {
		ctx.Batches = collsched.Batch(ctx.Groups, ctx.Arch.AODs)
		ctx.Stats.Batches += len(ctx.Batches)
		return nil
	})
}

// emitPass appends the stage's move batches and Rydberg pulse to the
// program.
func emitPass() Pass {
	return NewPass("emit", func(ctx *Context) error {
		for _, batch := range ctx.Batches {
			ctx.Program.Instr = append(ctx.Program.Instr, batch)
		}
		ctx.Program.Instr = append(ctx.Program.Instr, isa.Rydberg{Stage: ctx.StageID, Pairs: ctx.Stage.Gates})
		return nil
	})
}
