// The verification sweep: every benchmark family of the paper's
// evaluation, compiled by every pipeline, run through the differential
// verification subsystem (internal/verify) on the batch engine.
// cmd/experiments -verify and the CI smoke test consume it; it is the
// whole-suite form of the per-request verify mode the compile service
// exposes.
package experiments

import (
	"context"
	"fmt"

	"powermove/internal/pipeline"
	"powermove/internal/report"
	"powermove/internal/verify"
)

// VerifySweepQubits is the instance size of the verification sweep.
// The verifier holds at every size; 12 qubits keeps the sweep's 21
// compiles fast.
const VerifySweepQubits = 12

// VerifySweepSpecs returns one instance per benchmark family, in
// Table-2 family order.
func VerifySweepSpecs() []Spec {
	families := Families()
	specs := make([]Spec, len(families))
	for i, f := range families {
		specs[i] = Spec{Family: f, Qubits: VerifySweepQubits}
	}
	return specs
}

// VerifySweepJobs returns the sweep's job list: every sweep instance
// under all three schemes. The keys do not request per-job verification
// — the sweep verifies every compiled program after the compiles land,
// which lets the compile outcomes share cache entries with unverified
// runs of the same points.
func VerifySweepJobs() []pipeline.Job {
	var jobs []pipeline.Job
	for _, spec := range VerifySweepSpecs() {
		for _, scheme := range []pipeline.Scheme{pipeline.Enola, pipeline.NonStorage, pipeline.WithStorage} {
			jobs = append(jobs, spec.Job(scheme, 1))
		}
	}
	return jobs
}

// VerifyPoint is one sweep result: the evaluation point plus its
// verification summary.
type VerifyPoint struct {
	Key     pipeline.Key    `json:"key"`
	Summary *verify.Summary `json:"summary"`
}

// OK reports whether the point verified clean.
func (p VerifyPoint) OK() bool { return p.Summary != nil && p.Summary.Violations == 0 }

// VerifySweep runs the verification sweep: every point compiles (and
// simulates) on the engine, then each compiled program goes through
// verify.All. It returns one point per job, in job order; the points'
// keys carry the verify marker even though the underlying compile keys
// do not (the verification happened, just outside the per-job path).
func (rn *Runner) VerifySweep(ctx context.Context) ([]VerifyPoint, error) {
	jobs := VerifySweepJobs()
	arts := make([]*pipeline.Artifacts, len(jobs))
	for i := range jobs {
		idx := i
		// Distinct slice elements: engine workers write disjoint slots,
		// and the engine's WaitGroup orders those writes before the
		// reads below.
		jobs[idx].Keep = func(a pipeline.Artifacts) { arts[idx] = &a }
	}
	if _, err := rn.run(ctx, jobs); err != nil {
		return nil, err
	}
	points := make([]VerifyPoint, len(jobs))
	for i, job := range jobs {
		a := arts[i]
		if a == nil {
			// The compile was served from cache, which carries outcomes,
			// not artifacts: re-derive them outside the engine.
			art, err := pipeline.CompileJob(job)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: recompile for verification: %w", job.Key, err)
			}
			a = &art
		}
		key := job.Key
		key.Verify = true
		points[i] = VerifyPoint{Key: key, Summary: verify.All(a.Circuit, a.Program, a.Initial).Summary()}
	}
	return points, nil
}

// VerifySweepTable renders the sweep as a table: one row per point with
// its violation count.
func VerifySweepTable(points []VerifyPoint) *report.Table {
	t := report.NewTable("Verification sweep (physical legality + semantic equivalence)",
		"Benchmark", "Scheme", "Violations", "Status")
	for _, p := range points {
		violations, status := "-", "NOT RUN"
		if p.Summary != nil {
			violations = fmt.Sprint(p.Summary.Violations)
			if p.OK() {
				status = "OK"
			} else {
				status = "FAIL"
			}
		}
		t.AddRow(p.Key.Bench, string(p.Key.Scheme), violations, status)
	}
	return t
}

// VerifySweepErr returns an error describing the first failing point of
// a sweep, or nil when every point verified clean.
func VerifySweepErr(points []VerifyPoint) error {
	for _, p := range points {
		if !p.OK() {
			if p.Summary == nil {
				return fmt.Errorf("experiments: %s: verification did not run", p.Key)
			}
			msg := ""
			if len(p.Summary.Messages) > 0 {
				msg = ": " + p.Summary.Messages[0]
			}
			return fmt.Errorf("experiments: %s: %d violation(s)%s", p.Key, p.Summary.Violations, msg)
		}
	}
	return nil
}
