// Benchmark harness: one bench per table and figure of the paper's
// evaluation (Sec. 7), plus ablation benches for the compiler's design
// choices (see docs/ARCHITECTURE.md) and micro-benchmarks of the
// pipeline's hot paths.
//
// Quality metrics (fidelity, execution time, group counts) are attached to
// each bench via b.ReportMetric, so `go test -bench=.` regenerates both
// the performance and the quality side of every experiment:
//
//	go test -bench 'BenchmarkTable3' -benchmem     # Table 3
//	go test -bench 'BenchmarkFigure6' -benchmem    # Fig. 6 panels
//	go test -bench 'BenchmarkFigure7' -benchmem    # Fig. 7 sweep
//	go test -bench 'BenchmarkAblation' -benchmem   # ablations
//	go test -bench 'BenchmarkPipeline' -benchmem   # batch-engine scaling
package powermove

import (
	"context"
	"fmt"
	"testing"

	"powermove/internal/compiler"
	"powermove/internal/experiments"
	"powermove/internal/graphutil"
	"powermove/internal/move"
	"powermove/internal/sim"
	"powermove/internal/workload"

	"math/rand"
)

// BenchmarkTable2 measures benchmark-circuit generation and architecture
// construction for every row of Table 2 (experiment E2).
func BenchmarkTable2(b *testing.B) {
	specs := experiments.Table2Specs()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := spec.Circuit(); err != nil {
				b.Fatal(err)
			}
			_ = spec.Arch(1)
		}
	}
}

// BenchmarkTable3 runs the full three-way comparison (Enola baseline,
// PowerMove non-storage, PowerMove with-storage) for every row of Table 3
// (experiment E3). Each sub-bench reports the three fidelities and
// execution times of its row as custom metrics.
func BenchmarkTable3(b *testing.B) {
	for _, spec := range experiments.Table2Specs() {
		spec := spec
		b.Run(spec.String(), func(b *testing.B) {
			var row *experiments.RowResult
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Enola.Fidelity, "fid-enola")
			b.ReportMetric(row.NonStorage.Fidelity, "fid-nostore")
			b.ReportMetric(row.WithStorage.Fidelity, "fid-storage")
			b.ReportMetric(row.Enola.Texe, "texe-enola-us")
			b.ReportMetric(row.NonStorage.Texe, "texe-nostore-us")
			b.ReportMetric(row.WithStorage.Texe, "texe-storage-us")
			b.ReportMetric(row.TcompImprovement(), "tcomp-improv-x")
		})
	}
}

// BenchmarkFigure6 sweeps each Fig. 6 panel (experiments E4-E8) and
// reports the per-component fidelity factors of the with-storage pipeline
// at the largest size of the panel.
func BenchmarkFigure6(b *testing.B) {
	for _, fam := range experiments.Figure6Families() {
		fam := fam
		b.Run(string(fam), func(b *testing.B) {
			var points []experiments.Figure6Point
			var err error
			for i := 0; i < b.N; i++ {
				points, err = experiments.Figure6(fam)
				if err != nil {
					b.Fatal(err)
				}
			}
			last := points[len(points)-1].Row.WithStorage.Components
			b.ReportMetric(last.TwoQubit, "comp-2q")
			b.ReportMetric(last.Excitation, "comp-exc")
			b.ReportMetric(last.Transfer, "comp-trans")
			b.ReportMetric(last.Decoherence, "comp-deco")
		})
	}
}

// BenchmarkFigure7 sweeps AOD counts 1..4 over the five Fig. 7 benchmarks
// (experiment E9) and reports the 1-AOD/4-AOD execution-time ratio.
func BenchmarkFigure7(b *testing.B) {
	var points []experiments.Figure7Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	// points arrive grouped per spec, AODs ascending 1..4.
	var speedup float64
	count := 0
	for i := 0; i+3 < len(points); i += 4 {
		speedup += points[i].Result.Texe / points[i+3].Result.Texe
		count++
	}
	b.ReportMetric(speedup/float64(count), "mean-4aod-speedup-x")
}

// BenchmarkPipeline runs the full Table-3 suite (69 compile-and-simulate
// jobs) through the batch engine at several worker counts, with a fresh
// cache per iteration so every job compiles. On a multi-core host the
// jobs/8 sub-bench completes the suite at least ~2x faster than jobs/1;
// on a single-core host the worker counts tie.
func BenchmarkPipeline(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, _, err := CompileBatch(context.Background(),
					experiments.Table3Jobs(), BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if err := BatchFirstError(results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineCached measures a warm-cache pass over the Table-3
// suite: the engine's bookkeeping floor when every job is a cache hit.
func BenchmarkPipelineCached(b *testing.B) {
	cache := NewBatchCache()
	opts := BatchOptions{Workers: 8, Cache: cache}
	if _, _, err := CompileBatch(context.Background(), experiments.Table3Jobs(), opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, stats, err := CompileBatch(context.Background(), experiments.Table3Jobs(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := BatchFirstError(results); err != nil {
			b.Fatal(err)
		}
		if stats.Compiles != 0 {
			b.Fatalf("warm pass compiled %d jobs", stats.Compiles)
		}
	}
}

// benchAblation compiles QAOA-regular3-60 under two option sets and
// reports both executions' times, making the ablation's effect visible in
// the bench output.
func benchAblation(b *testing.B, baseline, variant Options, metric string) {
	b.Helper()
	circ := workload.QAOARegular(60, 3, 4)
	hw := DefaultArch(60, 1)
	var with, without float64
	for i := 0; i < b.N; i++ {
		r1, err := CompileAndRun(circ, hw, baseline)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := CompileAndRun(circ, hw, variant)
		if err != nil {
			b.Fatal(err)
		}
		with, without = r1.Execution.Time, r2.Execution.Time
	}
	b.ReportMetric(with, metric+"-on-us")
	b.ReportMetric(without, metric+"-off-us")
}

// BenchmarkAblationGrouping compares the displacement-bucketed Coll-Move
// grouping against the paper's ascending-distance first-fit.
func BenchmarkAblationGrouping(b *testing.B) {
	benchAblation(b,
		Options{UseStorage: true},
		Options{UseStorage: true, Grouping: compiler.GroupingDistance},
		"texe-merged-vs-distance")
}

// BenchmarkAblationStageOrder compares the zone-aware stage ordering of
// Sec. 4.2 against partition order.
func BenchmarkAblationStageOrder(b *testing.B) {
	benchAblation(b,
		Options{UseStorage: true},
		Options{UseStorage: true, DisableStageOrder: true},
		"texe-ordered-vs-unordered")
}

// BenchmarkAblationIntraStage compares the move-ins-first Coll-Move
// ordering of Sec. 6.1 against grouping order, reporting decoherence.
// QAOA stages interchange many qubits per transition, so the ordering's
// storage-dwell effect is visible there (it vanishes on benchmarks that
// move only a couple of qubits per stage, such as BV).
func BenchmarkAblationIntraStage(b *testing.B) {
	circ := workload.QAOARegular(60, 3, 4)
	hw := DefaultArch(60, 1)
	var on, off float64
	for i := 0; i < b.N; i++ {
		r1, err := CompileAndRun(circ, hw, Options{UseStorage: true})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := CompileAndRun(circ, hw, Options{UseStorage: true, DisableIntraStageOrder: true})
		if err != nil {
			b.Fatal(err)
		}
		on = r1.Execution.Components.Decoherence
		off = r2.Execution.Components.Decoherence
	}
	b.ReportMetric(on, "deco-ordered")
	b.ReportMetric(off, "deco-unordered")
}

// BenchmarkAblationMoverChoice compares the deterministic lower-index
// mover convention against the paper's random choice (Sec. 5.2 case 4).
func BenchmarkAblationMoverChoice(b *testing.B) {
	benchAblation(b,
		Options{UseStorage: true},
		Options{UseStorage: true, RandomMover: true, Seed: 1},
		"texe-deterministic-vs-random")
}

// BenchmarkCompilePowerMove measures the with-storage pipeline's
// compilation throughput on the largest Table-2 instance.
func BenchmarkCompilePowerMove(b *testing.B) {
	circ := workload.QAOARegular(100, 3, 9)
	hw := DefaultArch(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(circ, hw, Options{UseStorage: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileEnola measures the baseline's compilation on the same
// instance. Table 3's Tcomp column does not come from these benches:
// each row times its own compiles.
func BenchmarkCompileEnola(b *testing.B) {
	circ := workload.QAOARegular(100, 3, 9)
	hw := DefaultArch(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileEnola(circ, hw, EnolaOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecute measures the instruction-level executor.
func BenchmarkExecute(b *testing.B) {
	circ := workload.QAOARegular(100, 3, 9)
	hw := DefaultArch(100, 1)
	res, err := Compile(circ, hw, Options{UseStorage: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(res.Program, res.Initial); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeColoring measures the Misra-Gries stage-partition substrate
// on a 3-regular interaction graph of 100 qubits.
func BenchmarkEdgeColoring(b *testing.B) {
	g := graphutil.RandomRegular(100, 3, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if col := g.EdgeColoring(); len(col) != g.EdgeCount() {
			b.Fatal("incomplete coloring")
		}
	}
}

// BenchmarkGrouping measures the default Coll-Move grouping on a large
// random movement set.
func BenchmarkGrouping(b *testing.B) {
	hw := DefaultArch(100, 1)
	rng := rand.New(rand.NewSource(2))
	sites := hw.Sites(0) // compute zone
	var moves []move.Move
	for q := 0; q < 100; q++ {
		moves = append(moves, move.New(hw, q, sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		move.Group(moves)
	}
}

// BenchmarkAblationAlpha sweeps the stage-ordering weight of Sec. 4.2
// (alpha < 1 prefers moving qubits into storage over pulling them out)
// on a deep QAOA instance, reporting execution time per setting.
func BenchmarkAblationAlpha(b *testing.B) {
	circ := workload.QAOARegularP(40, 3, 3, 6)
	hw := DefaultArch(40, 1)
	for _, alpha := range []float64{0.25, 0.5, 0.75} {
		alpha := alpha
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			var texe float64
			for i := 0; i < b.N; i++ {
				run, err := CompileAndRun(circ, hw, Options{UseStorage: true, Alpha: alpha})
				if err != nil {
					b.Fatal(err)
				}
				texe = run.Execution.Time
			}
			b.ReportMetric(texe, "texe-us")
		})
	}
}

// BenchmarkAblationFusion measures the optional block-fusion pre-pass on
// QSim in non-storage mode, the regime it targets: independent Pauli
// strings share Rydberg pulses after fusion, cutting the excitation
// exposure of idle computation-zone qubits.
func BenchmarkAblationFusion(b *testing.B) {
	circ := workload.QSim(20, 9)
	hw := DefaultArch(20, 1)
	var on, off float64
	var stagesOn, stagesOff int
	for i := 0; i < b.N; i++ {
		r1, err := CompileAndRun(circ, hw, Options{FuseBlocks: true})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := CompileAndRun(circ, hw, Options{})
		if err != nil {
			b.Fatal(err)
		}
		on, off = r1.Execution.Fidelity, r2.Execution.Fidelity
		stagesOn, stagesOff = r1.Execution.Stages, r2.Execution.Stages
	}
	b.ReportMetric(on, "fid-fused")
	b.ReportMetric(off, "fid-unfused")
	b.ReportMetric(float64(stagesOn), "stages-fused")
	b.ReportMetric(float64(stagesOff), "stages-unfused")
}

// calibrationSink defeats dead-code elimination of the calibration loop.
var calibrationSink uint64

// BenchmarkCalibration performs a fixed amount of pure-CPU work that no
// repository code influences: the machine-speed reference benchgate uses
// to normalize ns/op before gating a PR document against a baseline
// produced on different hardware. Keep it free of allocation, memory
// traffic, and any call into the compiler, or a code change could move
// the denominator and mask real regressions.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x := uint64(88172645463325252)
		for j := 0; j < 150_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibrationSink = x
	}
}
