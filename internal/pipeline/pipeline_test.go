package pipeline_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/experiments"
	"powermove/internal/pipeline"
)

// slice is a small Table-3 slice: the three-way comparison over three
// quick benchmark instances (nine jobs). The -race CI run executes every
// test in this file over it on eight workers.
func slice() []pipeline.Job {
	var jobs []pipeline.Job
	for _, spec := range []experiments.Spec{
		{Family: experiments.QSim, Qubits: 10},
		{Family: experiments.BV, Qubits: 14},
		{Family: experiments.QFT, Qubits: 18},
	} {
		jobs = append(jobs, spec.ComparisonJobs(1)...)
	}
	return jobs
}

// canonical marshals the deterministic payload of results: everything
// except the measured wall-clock fields (Tcomp, Elapsed) and the
// scheduling-dependent Cached flag.
func canonical(t *testing.T, results []pipeline.Result) string {
	t.Helper()
	var b []byte
	for _, r := range results {
		r.Outcome.Stabilize()
		r.Elapsed = 0
		r.Cached = false
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, enc...)
		b = append(b, '\n')
	}
	return string(b)
}

// TestDeterministicAcrossWorkers checks the engine's central guarantee:
// the same job list produces byte-identical results on one worker and on
// eight, in job order both times.
func TestDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	serial, _, err := pipeline.Run(ctx, slice(), pipeline.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := pipeline.Run(ctx, slice(), pipeline.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.FirstError(serial); err != nil {
		t.Fatal(err)
	}
	a, b := canonical(t, serial), canonical(t, parallel)
	if a != b {
		t.Errorf("results differ between 1 and 8 workers:\n%s\nvs\n%s", a, b)
	}
	for i, r := range parallel {
		if want := slice()[i].Key; r.Key != want {
			t.Errorf("result %d has key %s, want %s (job order violated)", i, r.Key, want)
		}
	}
}

// TestCacheAccounting checks that duplicate keys compile once, that the
// stats ledger adds up, and that a shared cache carries outcomes across
// runs.
func TestCacheAccounting(t *testing.T) {
	jobs := append(slice(), slice()...) // every key twice
	results, stats, err := pipeline.Run(context.Background(), jobs, pipeline.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.FirstError(results); err != nil {
		t.Fatal(err)
	}
	unique := len(slice())
	if stats.Jobs != 2*unique {
		t.Errorf("Jobs = %d, want %d", stats.Jobs, 2*unique)
	}
	if stats.Workers != 8 {
		t.Errorf("Workers = %d, want 8", stats.Workers)
	}
	if stats.Compiles != unique {
		t.Errorf("Compiles = %d, want %d (duplicate keys must share one compile)", stats.Compiles, unique)
	}
	if stats.CacheHits != unique {
		t.Errorf("CacheHits = %d, want %d", stats.CacheHits, unique)
	}
	for i := 0; i < unique; i++ {
		first, second := results[i], results[i+unique]
		if first.Key != second.Key {
			t.Fatalf("result order broken at %d", i)
		}
		a, b := first.Outcome, second.Outcome
		a.Stabilize()
		b.Stabilize()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: duplicate jobs disagree", first.Key)
		}
	}

	shared := pipeline.NewCache()
	_, warm, err := pipeline.Run(context.Background(), slice(), pipeline.Options{Workers: 2, Cache: shared})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Compiles != unique || warm.CacheHits != 0 {
		t.Errorf("cold shared run: %d compiles, %d hits", warm.Compiles, warm.CacheHits)
	}
	_, hot, err := pipeline.Run(context.Background(), slice(), pipeline.Options{Workers: 2, Cache: shared})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Compiles != 0 || hot.CacheHits != unique {
		t.Errorf("warm shared run: %d compiles, %d hits, want 0 and %d", hot.Compiles, hot.CacheHits, unique)
	}
	if shared.Len() != unique {
		t.Errorf("shared cache holds %d keys, want %d", shared.Len(), unique)
	}
}

// TestCancellation checks that cancelling the context aborts dispatch:
// Run reports ctx.Err and stops issuing new jobs.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, _, err := pipeline.Run(ctx, slice(), pipeline.Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Errorf("cancelled run returned results")
	}

	// Cancel mid-run from the progress callback: later jobs must be
	// abandoned, and Run must still drain cleanly.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	_, stats, err := pipeline.Run(ctx, slice(), pipeline.Options{
		Workers: 1,
		OnResult: func(done, total int, r pipeline.Result) {
			if seen.Add(1) == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if stats.Compiles >= len(slice()) {
		t.Errorf("mid-run cancel compiled all %d jobs", stats.Compiles)
	}
}

// TestStreamingProgress checks the OnResult contract: one serialized call
// per job with a monotonically complete done counter.
func TestStreamingProgress(t *testing.T) {
	jobs := slice()
	seen := make(map[int]bool)
	_, _, err := pipeline.Run(context.Background(), jobs, pipeline.Options{
		Workers: 4,
		OnResult: func(done, total int, r pipeline.Result) {
			if total != len(jobs) {
				t.Errorf("total = %d, want %d", total, len(jobs))
			}
			if seen[done] {
				t.Errorf("done=%d reported twice", done)
			}
			seen[done] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= len(jobs); i++ {
		if !seen[i] {
			t.Errorf("no progress call with done=%d", i)
		}
	}
}

// TestJobErrors checks that one failing job does not poison the batch.
func TestJobErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := []pipeline.Job{
		pipeline.NewJob("bad", pipeline.WithStorage, 1, func() (*circuit.Circuit, error) {
			return nil, boom
		}),
		experiments.Spec{Family: experiments.QSim, Qubits: 10}.Job(pipeline.WithStorage, 1),
	}
	results, stats, err := pipeline.Run(context.Background(), jobs, pipeline.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, boom) {
		t.Errorf("results[0].Err = %v, want boom", results[0].Err)
	}
	if results[1].Err != nil || results[1].Outcome.Fidelity <= 0 {
		t.Errorf("healthy job failed alongside the bad one: %+v", results[1])
	}
	if err := pipeline.FirstError(results); !errors.Is(err, boom) {
		t.Errorf("FirstError = %v, want boom", err)
	}
	if stats.Compiles != 2 {
		t.Errorf("Compiles = %d, want 2 (a failed compile still counts)", stats.Compiles)
	}

	unknown := pipeline.Job{
		Key:     pipeline.Key{Bench: "x", Scheme: "bogus", AODs: 1},
		Circuit: experiments.Spec{Family: experiments.QSim, Qubits: 10}.Circuit,
	}
	results, _, err = pipeline.Run(context.Background(), []pipeline.Job{unknown}, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestJobPanicFailsOnlyThatJob: a job whose circuit generator panics
// fails with a PanicError carrying the stack, the run's other jobs
// finish, and the panicked entry is evicted — a second Run on the same
// cache panics and fails again instead of serving a zero Outcome.
func TestJobPanicFailsOnlyThatJob(t *testing.T) {
	var calls atomic.Int64
	bad := pipeline.NewJob("panics", pipeline.WithStorage, 1, func() (*circuit.Circuit, error) {
		calls.Add(1)
		panic("generator bug")
	})
	jobs := append([]pipeline.Job{bad}, slice()...)
	cache := pipeline.NewCache()
	for run := 1; run <= 2; run++ {
		results, _, err := pipeline.Run(context.Background(), jobs, pipeline.Options{Workers: 4, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		var pe *pipeline.PanicError
		if !errors.As(results[0].Err, &pe) || pe.Value != "generator bug" || len(pe.Stack) == 0 {
			t.Fatalf("run %d: panicking job returned %v, want a PanicError with its stack", run, results[0].Err)
		}
		if !reflect.DeepEqual(results[0].Outcome, pipeline.Outcome{}) || results[0].Cached {
			t.Fatalf("run %d: panicking job served %+v (cached %v)", run, results[0].Outcome, results[0].Cached)
		}
		for _, r := range results[1:] {
			if r.Err != nil || r.Outcome.Fidelity <= 0 {
				t.Fatalf("run %d: %s failed alongside the panicking job: %v", run, r.Key, r.Err)
			}
		}
		if got := cache.Panics(); got != int64(run) {
			t.Fatalf("run %d: Panics() = %d, want %d", run, got, run)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("generator ran %d times, want once per run", calls.Load())
	}
}

// TestMatchesSerialReference cross-checks the engine against the
// experiments package's serial per-row entry point.
func TestMatchesSerialReference(t *testing.T) {
	spec := experiments.Spec{Family: experiments.BV, Qubits: 14}
	want, err := experiments.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := pipeline.Run(context.Background(), spec.ComparisonJobs(1), pipeline.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.FirstError(results); err != nil {
		t.Fatal(err)
	}
	got := map[pipeline.Scheme]pipeline.Outcome{}
	for _, r := range results {
		got[r.Key.Scheme] = r.Outcome
	}
	for _, cmp := range []struct {
		scheme pipeline.Scheme
		want   experiments.SchemeResult
	}{
		{pipeline.Enola, want.Enola},
		{pipeline.NonStorage, want.NonStorage},
		{pipeline.WithStorage, want.WithStorage},
	} {
		g := got[cmp.scheme]
		if g.Fidelity != cmp.want.Fidelity || g.Texe != cmp.want.Texe ||
			g.Stages != cmp.want.Stages || g.Moves != cmp.want.Moves ||
			g.Components != cmp.want.Components {
			t.Errorf("%s: batch outcome diverges from serial reference\nbatch:  %+v\nserial: %+v",
				cmp.scheme, g, cmp.want)
		}
	}
}

// TestKeyString pins the key rendering used by progress output and logs.
func TestKeyString(t *testing.T) {
	k := pipeline.Key{Bench: "BV-70", Scheme: pipeline.WithStorage, AODs: 2}
	if got, want := k.String(), "BV-70/with-storage/2aod"; got != want {
		t.Errorf("Key.String = %q, want %q", got, want)
	}
	if fmt.Sprint(k) != k.String() {
		t.Error("Key does not print via String")
	}
}

// TestGroupingKey: a non-default grouping changes the cache identity
// and the key rendering, while an explicit "merged" canonicalizes onto
// the default's cache entry at the engine layer — whatever front end
// built the job.
func TestGroupingKey(t *testing.T) {
	gen := func() (*circuit.Circuit, error) {
		c := circuit.New("tiny", 4)
		c.AddBlock(0, circuit.NewCZ(0, 1), circuit.NewCZ(2, 3))
		return c, nil
	}
	base := pipeline.NewJob("tiny", pipeline.WithStorage, 1, gen)
	merged := base
	merged.Key.Grouping = "merged"
	inOrder := base
	inOrder.Key.Grouping = "in-order"

	cache := pipeline.NewCache()
	results, stats, err := pipeline.Run(context.Background(), []pipeline.Job{base, merged, inOrder},
		pipeline.Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if stats.Compiles != 2 || stats.CacheHits != 1 {
		t.Errorf("compiles = %d, hits = %d; want 2 compiles (default + in-order) and 1 hit (explicit merged)",
			stats.Compiles, stats.CacheHits)
	}
	if results[1].Key.Grouping != "" {
		t.Errorf("explicit merged reported key grouping %q, want canonical empty", results[1].Key.Grouping)
	}
	if got, want := results[2].Key.String(), "tiny/with-storage/1aod/in-order"; got != want {
		t.Errorf("grouped key renders %q, want %q", got, want)
	}
}

// TestBoundedCache checks the LRU-backed cache honors its capacity: with
// room for one outcome, alternating between two keys recompiles every
// time, the eviction counter advances, and Len never exceeds the bound.
func TestBoundedCache(t *testing.T) {
	gen := func() (*circuit.Circuit, error) {
		c := circuit.New("tiny", 4)
		c.AddBlock(0, circuit.NewCZ(0, 1), circuit.NewCZ(2, 3))
		return c, nil
	}
	jobA := pipeline.NewJob("tiny-a", pipeline.NonStorage, 1, gen)
	jobB := pipeline.NewJob("tiny-b", pipeline.NonStorage, 1, gen)

	cache := pipeline.NewCacheBounded(1)
	var compiles int
	for _, job := range []pipeline.Job{jobA, jobB, jobA, jobB} {
		results, stats, err := pipeline.Run(context.Background(), []pipeline.Job{job}, pipeline.Options{Workers: 1, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
		compiles += stats.Compiles
		if n := cache.Len(); n > 1 {
			t.Fatalf("cache holds %d keys, capacity is 1", n)
		}
	}
	if compiles != 4 {
		t.Errorf("compiles = %d, want 4 (every alternation evicts)", compiles)
	}
	cs := cache.Stats()
	if cs.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", cs.Evictions)
	}

	// The same sequence against an unbounded cache compiles each key once.
	shared := pipeline.NewCache()
	compiles = 0
	for _, job := range []pipeline.Job{jobA, jobB, jobA, jobB} {
		_, stats, err := pipeline.Run(context.Background(), []pipeline.Job{job}, pipeline.Options{Workers: 1, Cache: shared})
		if err != nil {
			t.Fatal(err)
		}
		compiles += stats.Compiles
	}
	if compiles != 2 {
		t.Errorf("unbounded compiles = %d, want 2", compiles)
	}
	if cs := shared.Stats(); cs.Evictions != 0 || cs.Hits != 2 || cs.Misses != 2 {
		t.Errorf("unbounded stats = %+v, want 2 hits / 2 misses / 0 evictions", cs)
	}
}

// TestSharedSemaphore checks Options.Sem jointly bounds concurrent runs:
// two runs of 4 workers each sharing a 2-slot gate never execute more
// than 2 jobs at once.
func TestSharedSemaphore(t *testing.T) {
	var inFlight, peak atomic.Int64
	gen := func() (*circuit.Circuit, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		c := circuit.New("sem", 4)
		c.AddBlock(0, circuit.NewCZ(0, 1), circuit.NewCZ(2, 3))
		return c, nil
	}
	jobs := func(prefix string) []pipeline.Job {
		var js []pipeline.Job
		for i := 0; i < 6; i++ {
			js = append(js, pipeline.NewJob(fmt.Sprintf("%s-%d", prefix, i), pipeline.NonStorage, 1, gen))
		}
		return js
	}

	sem := make(chan struct{}, 2)
	errs := make(chan error, 2)
	for _, prefix := range []string{"a", "b"} {
		go func(prefix string) {
			results, _, err := pipeline.Run(context.Background(), jobs(prefix), pipeline.Options{Workers: 4, Sem: sem})
			if err == nil {
				err = pipeline.FirstError(results)
			}
			errs <- err
		}(prefix)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrent jobs = %d across two runs sharing a 2-slot gate", p)
	}
}
