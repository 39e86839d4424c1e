// Package experiments defines the paper's evaluation (Sec. 7) as
// declarative job lists over the concurrent batch engine of
// internal/pipeline: the benchmark suite of Table 2 (Sec. 7.1), the
// three-way comparison of Table 3 (Enola baseline vs PowerMove
// non-storage vs PowerMove with-storage, Sec. 7.2), the
// fidelity-component ablations of Fig. 6 (Sec. 7.3), and the multi-AOD
// sweep of Fig. 7 (Sec. 7.4). cmd/experiments and the repository's
// benchmark harness are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/pipeline"
	"powermove/internal/workload"
)

// Family names the benchmark generators of Sec. 7.1.
type Family string

// The benchmark families evaluated in the paper.
const (
	QAOARegular3 Family = "QAOA-regular3"
	QAOARegular4 Family = "QAOA-regular4"
	QAOARandom   Family = "QAOA-random"
	QFT          Family = "QFT"
	BV           Family = "BV"
	VQE          Family = "VQE"
	QSim         Family = "QSIM-rand"
)

// Families returns the benchmark families, in Table-2 order.
func Families() []Family {
	return []Family{QAOARegular3, QAOARegular4, QAOARandom, QFT, BV, VQE, QSim}
}

// Circuit generates the family's n-qubit instance from seed; the
// deterministic families (QFT, VQE) ignore it. It is the one dispatch
// from a family name to its generator.
func (f Family) Circuit(n int, seed int64) (*circuit.Circuit, error) {
	switch f {
	case QAOARegular3:
		return workload.QAOARegular(n, 3, seed), nil
	case QAOARegular4:
		return workload.QAOARegular(n, 4, seed), nil
	case QAOARandom:
		return workload.QAOARandom(n, seed), nil
	case QFT:
		return workload.QFT(n), nil
	case BV:
		return workload.BV(n, seed), nil
	case VQE:
		return workload.VQE(n), nil
	case QSim:
		return workload.QSim(n, seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", f)
	}
}

// Spec identifies one benchmark instance: a family and a qubit count. The
// seed of every randomized generator is derived deterministically from the
// spec, so repeated runs are identical — the seeding contract the batch
// engine's cache and worker-count independence rest on (see
// docs/ARCHITECTURE.md).
type Spec struct {
	Family Family
	Qubits int
}

// String returns the paper's "family-n" naming.
func (s Spec) String() string { return fmt.Sprintf("%s-%d", s.Family, s.Qubits) }

// seed derives a stable per-instance seed.
func (s Spec) seed() int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(s.Family) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return h ^ int64(s.Qubits)*2654435761
}

// Circuit instantiates the benchmark circuit under the spec's derived
// seed.
func (s Spec) Circuit() (*circuit.Circuit, error) { return s.Family.Circuit(s.Qubits, s.seed()) }

// Arch returns the default Table-2 architecture for this instance with the
// given AOD count.
func (s Spec) Arch(aods int) *arch.Arch {
	return arch.New(arch.Config{Qubits: s.Qubits, AODs: aods})
}

// Job returns the batch job for one evaluation point of this instance.
func (s Spec) Job(scheme pipeline.Scheme, aods int) pipeline.Job {
	return pipeline.NewJob(s.String(), scheme, aods, s.Circuit)
}

// ComparisonJobs returns the three jobs of one Table-3 row: the baseline
// (always single-AOD, as in the paper) and both PowerMove modes with the
// given AOD count. The benchmark circuit is synthesized once and shared
// across the three jobs.
func (s Spec) ComparisonJobs(aods int) []pipeline.Job {
	gen := sync.OnceValues(s.Circuit)
	return []pipeline.Job{
		{Key: s.Job(pipeline.Enola, 1).Key, Circuit: gen},
		{Key: s.Job(pipeline.NonStorage, aods).Key, Circuit: gen},
		{Key: s.Job(pipeline.WithStorage, aods).Key, Circuit: gen},
	}
}

// Table2Specs returns the 23 benchmark instances of Table 2, in table
// order.
func Table2Specs() []Spec {
	return []Spec{
		{QAOARegular3, 30}, {QAOARegular3, 40}, {QAOARegular3, 50},
		{QAOARegular3, 60}, {QAOARegular3, 80}, {QAOARegular3, 100},
		{QAOARegular4, 30}, {QAOARegular4, 40}, {QAOARegular4, 50},
		{QAOARegular4, 60}, {QAOARegular4, 80},
		{QAOARandom, 20}, {QAOARandom, 30},
		{QFT, 18}, {QFT, 29},
		{BV, 14}, {BV, 50}, {BV, 70},
		{VQE, 30}, {VQE, 50},
		{QSim, 10}, {QSim, 20}, {QSim, 40},
	}
}

// Table3Jobs returns the full Table-3 job list: three schemes for each of
// the 23 Table-2 instances, in table order.
func Table3Jobs() []pipeline.Job {
	var jobs []pipeline.Job
	for _, spec := range Table2Specs() {
		jobs = append(jobs, spec.ComparisonJobs(1)...)
	}
	return jobs
}

// SchemeResult is one compiler's outcome on one benchmark instance. It is
// the batch engine's outcome type: fidelity and components per Equation 1,
// execution time, measured compile time, and schedule counts.
type SchemeResult = pipeline.Outcome

// RowResult is one full Table-3 row: all three schemes on one instance.
type RowResult struct {
	Spec        Spec
	Enola       SchemeResult
	NonStorage  SchemeResult
	WithStorage SchemeResult
}

// Stabilize zeroes the row's measured wall-clock fields — the compile
// times and per-pass durations, the only nondeterministic part of a row
// — so documents built from it are byte-identical across runs and
// worker counts. Every front end's "stable" mode routes through here.
func (r *RowResult) Stabilize() {
	r.Enola.Stabilize()
	r.NonStorage.Stabilize()
	r.WithStorage.Stabilize()
}

// FidelityImprovement returns the paper's "Fidelity Improv." column:
// with-storage fidelity over the baseline's.
func (r *RowResult) FidelityImprovement() float64 {
	if r.Enola.Fidelity == 0 {
		return 0
	}
	return r.WithStorage.Fidelity / r.Enola.Fidelity
}

// TexeImprovement returns the paper's "Texe Improv." column: the baseline
// execution time over the non-storage execution time (the paper's
// continuous-router speedup).
func (r *RowResult) TexeImprovement() float64 {
	if r.NonStorage.Texe == 0 {
		return 0
	}
	return r.Enola.Texe / r.NonStorage.Texe
}

// TcompImprovement returns the paper's "Tcomp Improv." column: baseline
// compile time over the mean of the two PowerMove compile times (the
// paper reports the average of its two scenarios).
func (r *RowResult) TcompImprovement() float64 {
	ours := (r.NonStorage.Tcomp + r.WithStorage.Tcomp) / 2
	if ours == 0 {
		return 0
	}
	return float64(r.Enola.Tcomp) / float64(ours)
}

// Runner executes experiment job lists on the batch engine. The zero
// value runs with GOMAXPROCS workers and a fresh shared cache; a Runner
// reused across calls (e.g. Table3 then Figure6 then Figure7) shares its
// cache between them, so overlapping evaluation points compile once.
type Runner struct {
	// Jobs bounds worker concurrency; values < 1 select GOMAXPROCS.
	Jobs int
	// OnResult, when set, streams per-job completions (see
	// pipeline.Options.OnResult).
	OnResult func(done, total int, r pipeline.Result)
	// Cache, when set, backs every run of this runner, sharing outcomes
	// with other holders of the same cache (the compile service points
	// its shared LRU here so /v1/experiments reuses /v1/compile work and
	// vice versa). Nil allocates a private unbounded cache on first run.
	Cache *pipeline.Cache
	// Sem, when set, holds compile slots shared with other pipeline
	// users (see pipeline.Options.Sem): each point's compile takes one
	// while it compiles, and a cache hit takes none. The compile service
	// passes its slots so experiment runs respect the service-wide
	// worker bound.
	Sem chan struct{}
	// Snapshots, when set, is the incremental-compilation snapshot store
	// (see pipeline.Options.Snapshots); the compile service shares its
	// store so experiment sweeps resume from /v1/compile checkpoints and
	// vice versa. Nil compiles every point cold.
	Snapshots *pipeline.SnapshotStore

	stats pipeline.Stats
}

// Stats returns the accumulated engine accounting of every run so far.
func (rn *Runner) Stats() pipeline.Stats { return rn.stats }

// run executes jobs and indexes the outcomes by key. Per-job errors
// abort with the first failure; a cancelled context aborts with ctx.Err.
func (rn *Runner) run(ctx context.Context, jobs []pipeline.Job) (map[pipeline.Key]pipeline.Outcome, error) {
	if rn.Cache == nil {
		rn.Cache = pipeline.NewCache()
	}
	results, stats, err := pipeline.Run(ctx, jobs, pipeline.Options{
		Workers:   rn.Jobs,
		OnResult:  rn.OnResult,
		Cache:     rn.Cache,
		Sem:       rn.Sem,
		Snapshots: rn.Snapshots,
	})
	rn.stats.Jobs += stats.Jobs
	if stats.Workers > rn.stats.Workers {
		rn.stats.Workers = stats.Workers
	}
	rn.stats.Compiles += stats.Compiles
	rn.stats.CacheHits += stats.CacheHits
	rn.stats.Wall += stats.Wall
	if err != nil {
		return nil, err
	}
	if err := pipeline.FirstError(results); err != nil {
		return nil, err
	}
	outcomes := make(map[pipeline.Key]pipeline.Outcome, len(results))
	for _, r := range results {
		outcomes[r.Key] = r.Outcome
	}
	return outcomes, nil
}

// row assembles one Table-3 row from computed outcomes.
func row(spec Spec, aods int, outcomes map[pipeline.Key]pipeline.Outcome) *RowResult {
	return &RowResult{
		Spec:        spec,
		Enola:       outcomes[spec.Job(pipeline.Enola, 1).Key],
		NonStorage:  outcomes[spec.Job(pipeline.NonStorage, aods).Key],
		WithStorage: outcomes[spec.Job(pipeline.WithStorage, aods).Key],
	}
}

// Table3Rows runs the full Table-3 comparison concurrently and returns
// the rows in table order.
func (rn *Runner) Table3Rows(ctx context.Context) ([]*RowResult, error) {
	outcomes, err := rn.run(ctx, Table3Jobs())
	if err != nil {
		return nil, err
	}
	specs := Table2Specs()
	rows := make([]*RowResult, 0, len(specs))
	for _, spec := range specs {
		rows = append(rows, row(spec, 1, outcomes))
	}
	return rows, nil
}

// Run executes the full three-way comparison for one benchmark instance on
// its default single-AOD architecture, serially on the calling goroutine's
// budget (the batch path is Runner.Table3Rows).
func Run(spec Spec) (*RowResult, error) {
	return RunWithAODs(spec, 1)
}

// RunWithAODs executes the three-way comparison with the given number of
// AOD arrays (the baseline always uses one, as in the paper).
func RunWithAODs(spec Spec, aods int) (*RowResult, error) {
	rn := &Runner{Jobs: 1}
	outcomes, err := rn.run(context.Background(), spec.ComparisonJobs(aods))
	if err != nil {
		return nil, err
	}
	return row(spec, aods, outcomes), nil
}
