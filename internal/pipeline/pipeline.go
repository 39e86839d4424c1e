// Package pipeline is the concurrent batch-compilation engine behind the
// paper's evaluation (Sec. 7): it fans independent compile-and-simulate
// jobs — one per (benchmark, scheme, AOD-count) point of Table 3, Fig. 6,
// and Fig. 7 — across a bounded pool of worker goroutines with
// deterministic per-job seeding, context cancellation, per-job timing, and
// a keyed in-memory result cache so evaluation points that share a
// compilation (the Fig. 6 panels re-sweep Table-3 instances, Fig. 7
// re-runs their with-storage compiles) compile once and are reused
// everywhere.
//
// Every job is a pure function of its Key: circuit generators derive
// their seeds from the benchmark identity (experiments.Spec.seed), both
// compilers are deterministic given their fixed option seeds, and the
// executor is deterministic given a program. The engine therefore
// guarantees that results are identical — byte for byte, excluding
// measured wall-clock compile times — whatever the worker count, and
// returns them in job order regardless of completion order.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"powermove/internal/arch"
	"powermove/internal/cache"
	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/fidelity"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/sim"
	"powermove/internal/verify"
)

// Scheme names one of the three compilation schemes the evaluation
// compares (the columns of Table 3).
type Scheme string

// The schemes of the paper's three-way comparison.
const (
	// Enola is the baseline compiler (Sec. 3): revert-to-home movement,
	// computation zone only, always a single AOD.
	Enola Scheme = "enola"
	// NonStorage is the PowerMove pipeline restricted to the
	// computation zone (continuous routing without the storage zone).
	NonStorage Scheme = "non-storage"
	// WithStorage is the full zoned PowerMove pipeline.
	WithStorage Scheme = "with-storage"
)

// Key identifies one evaluation point. It is the cache key: two jobs with
// equal keys must describe identical work, which holds whenever Circuit
// generators are deterministic functions of Bench (the repository-wide
// seeding contract, see docs/ARCHITECTURE.md).
type Key struct {
	// Bench names the benchmark instance, e.g. "BV-70".
	Bench string
	// Scheme selects the compiler.
	Scheme Scheme
	// AODs is the number of AOD arrays of the target architecture.
	AODs int
	// Grouping optionally substitutes the zoned pipeline's Coll-Move
	// grouping pass (a compiler.GroupingNames name); empty selects the
	// default. It is part of the key because it changes the compiled
	// program. The engine canonicalizes an explicit default to the
	// empty name before caching, so "merged" and "" share one entry
	// (Result.Key reports the canonical form). Ignored by the enola
	// scheme.
	Grouping string
	// Verify runs the differential verification subsystem
	// (internal/verify) over the compiled program and attaches its
	// summary to the outcome. Physical legality needs no extra pass:
	// the executor replays every compile under the verifier's rules and
	// fails the job on any violation, so a verified job adds the
	// equivalence walk. It is part of the key because a verified
	// outcome carries data an unverified one lacks; the verification
	// itself is deterministic, so verified outcomes cache like any
	// other.
	Verify bool
}

// String renders the key as "bench/scheme/kaod", with a "/grouping"
// suffix when a non-default grouping pass is selected and a "/verify"
// suffix when verification is requested.
func (k Key) String() string {
	s := fmt.Sprintf("%s/%s/%daod", k.Bench, k.Scheme, k.AODs)
	if k.Grouping != "" {
		s += "/" + k.Grouping
	}
	if k.Verify {
		s += "/verify"
	}
	return s
}

// Job is one unit of batch work: generate a circuit, build the target
// hardware, compile with the key's scheme, and simulate the result.
type Job struct {
	Key Key
	// Canon is the key's canonical string rendering, computed once by
	// the submitter (after grouping normalization) and reused across
	// queue admission, cache probes, and store tiers — the engine never
	// re-serializes the key per probe. Empty means "derive it here":
	// runJob fills it from Key.String() after normalization, so ad-hoc
	// callers need not precompute it.
	Canon string
	// Circuit generates the benchmark circuit. It must be deterministic
	// in Key.Bench — derive any seed from the benchmark identity, never
	// from the clock — or caching and run-to-run reproducibility break.
	Circuit func() (*circuit.Circuit, error)
	// Arch builds the target hardware. Nil selects the default Table-2
	// geometry for the circuit's qubit count with Key.AODs arrays.
	Arch func() *arch.Arch
	// Keep, when set, receives the job's compile artifacts right after a
	// successful compile, before simulation. It fires only on fresh
	// compiles — a job served from the cache never re-derives its
	// artifacts (use CompileJob to recover them). Keep is not part of
	// the cache identity; it must not influence the outcome.
	Keep func(Artifacts)
}

// NewJob builds the standard job for one evaluation point: gen generates
// the circuit and the architecture defaults to the Table-2 geometry with
// the key's AOD count.
func NewJob(bench string, scheme Scheme, aods int, gen func() (*circuit.Circuit, error)) Job {
	return Job{
		Key:     Key{Bench: bench, Scheme: scheme, AODs: aods},
		Circuit: gen,
	}
}

// Artifacts are the intermediate products of one compile — what a
// consumer needs to verify the program outside the engine (the
// verification sweep of internal/experiments consumes these).
type Artifacts struct {
	Circuit *circuit.Circuit
	Program *isa.Program
	Initial *layout.Layout
}

// Outcome is the evaluation payload of one job. Every field except Tcomp
// is a deterministic function of the job's key; Tcomp is the measured
// wall-clock compilation time and varies run to run.
type Outcome struct {
	// Fidelity is the headline output fidelity (Equation 1, 1Q term
	// excluded per Sec. 2.2).
	Fidelity float64
	// Components are the individual fidelity factors, for Fig. 6.
	Components fidelity.Components
	// Texe is the simulated execution time in microseconds.
	Texe float64
	// Tcomp is the measured compilation time.
	Tcomp time.Duration
	// Stages is the number of Rydberg pulses the schedule uses.
	Stages int
	// Moves is the number of executed 1Q relocations.
	Moves int
	// Passes is the compiler's per-pass breakdown: self-time, call
	// counts, and counter deltas per pass (see compiler.PassStats).
	// Calls and counters are deterministic functions of the key;
	// durations are measured wall clock and vary run to run.
	Passes compiler.PassStats `json:"Passes,omitempty"`
	// Verify is the differential verification summary, present only
	// when the job's key requested verification. It is a deterministic
	// function of the key (a compiled program either violates a
	// constraint or it does not).
	Verify *verify.Summary `json:"Verify,omitempty"`
}

// Stabilize zeroes the outcome's measured wall-clock fields — the
// compile time and the per-pass durations — so documents built from it
// are byte-identical across runs and worker counts. The per-pass
// breakdown is dropped entirely (not just zeroed) to keep stable
// documents identical to their pre-breakdown form.
func (o *Outcome) Stabilize() {
	o.Tcomp = 0
	o.Passes = nil
}

// Result pairs a job's outcome with its engine-level accounting.
type Result struct {
	Key     Key
	Outcome Outcome
	// Err is the job's failure, if any; other jobs keep running.
	Err error
	// Elapsed is the wall-clock time this job occupied a worker. For a
	// cache hit this is near zero when the outcome was already
	// computed, but includes the full wait when the job blocked on
	// another job's in-flight compile of the same key; a compile's
	// includes its wait for a compile slot.
	Elapsed time.Duration
	// Cached reports whether the outcome was served by the cache
	// rather than compiled by this job.
	Cached bool
}

// Options configures one batch run.
type Options struct {
	// Workers bounds the number of concurrent jobs; values < 1 select
	// GOMAXPROCS.
	Workers int
	// OnResult, when set, streams each result as it completes. Calls
	// are serialized; done counts completed jobs, total is len(jobs).
	// Completion order is nondeterministic — consumers needing job
	// order use the returned slice.
	OnResult func(done, total int, r Result)
	// Cache, when set, is consulted and filled by this run, sharing
	// outcomes with previous and concurrent runs. Nil uses a private
	// per-run cache (duplicate keys within the run still compile once).
	Cache *Cache
	// Sem, when set, holds compile slots shared across runs: a job's
	// compile takes a slot inside the cache's computation and holds it
	// only while compiling, so concurrent runs holding the same channel
	// never compile more keys at once than its capacity (the compile
	// service shares one across all requests). A cache hit, a read from
	// the cache's second tier and a wait on another job's in-flight
	// compile hold no slot. Workers still bounds the run's concurrent
	// jobs.
	Sem chan struct{}
	// Snapshots, when set, is the per-block snapshot store: fresh
	// compiles of resumable pipelines capture per-block checkpoints into
	// it, and later compiles sharing a block prefix resume from the
	// longest matching checkpoint instead of compiling cold. Outputs are
	// byte-identical either way; nil disables incremental compilation.
	Snapshots *SnapshotStore
}

// Stats aggregates one run's engine accounting.
type Stats struct {
	// Jobs is the number of jobs submitted.
	Jobs int
	// Workers is the effective worker count of the run: the requested
	// bound after defaulting to GOMAXPROCS and clamping to the job
	// count.
	Workers int
	// Compiles is the number of jobs whose compile ran: jobs that
	// started their key's computation and took a compile slot.
	Compiles int
	// CacheHits is the number of jobs served from the cache — including
	// jobs that waited on another in-flight job with the same key, and
	// jobs read through from the disk tier (Cache.SetTier).
	CacheHits int
	// Wall is the end-to-end batch duration.
	Wall time.Duration
}

// Cache is a keyed outcome cache safe for concurrent use, backed by the
// generic LRU of internal/cache. It is also the one in-flight dedup of
// everything that compiles through it: the first lookup of a key creates
// an entry that owns the key's computation, every lookup of the key
// waits on that entry under its own context, and the computation is
// canceled only when its last waiter leaves (see getOrCompute). A
// bounded cache (NewCacheBounded) evicts least-recently-used outcomes,
// trading recompilation for bounded memory — the right shape for a
// long-running server; batch runs use the unbounded NewCache, whose
// working set is the job list itself.
type Cache struct {
	init sync.Once
	cap  int
	lru  *cache.LRU[Key, *cacheEntry]
	// mu guards every entry's waiters and cancel, so a lookup joining an
	// entry and the entry's last waiter leaving never interleave.
	mu sync.Mutex
	// tier, when set, is the second cache level: consulted on a miss
	// before computing, written through after a fresh computation. Set
	// before concurrent use (SetTier); read without synchronization.
	tier Tier
	// panics counts computations that panicked (see PanicError),
	// compiles those that took a compile slot and ran, joins the lookups
	// that waited on another lookup's computation.
	panics, compiles, joins atomic.Int64
	// passes and verifies account for every successful fresh compile.
	passes   passLedger
	verifies verifyLedger
}

// Panics returns the number of computations through this cache that
// panicked and were recovered into a PanicError.
func (c *Cache) Panics() int64 { return c.panics.Load() }

// Compiles returns the number of computations through this cache that
// took a compile slot and ran — counted whether or not any lookup still
// waited for them.
func (c *Cache) Compiles() int64 { return c.compiles.Load() }

// Joins returns the number of lookups that found their key's computation
// in flight and waited on it instead of starting another.
func (c *Cache) Joins() int64 { return c.joins.Load() }

// Passes returns the per-pass ledger of the successful fresh compiles
// through this cache, keyed by pass name.
func (c *Cache) Passes() map[string]PassMetrics { return c.passes.snapshot() }

// Verifies returns the verification ledger of the successful fresh
// compiles through this cache.
func (c *Cache) Verifies() VerifyMetrics { return c.verifies.snapshot() }

// PanicError is a panic recovered from one job's compile. The job fails
// with it instead of taking the process down with every job in flight.
type PanicError struct {
	// Value is what the compile panicked with.
	Value any
	// Stack is the panicking goroutine's stack. Error leaves it out, so
	// it never reaches a client; the recover site logs it once.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("pipeline: panic: %v", e.Value) }

// cacheEntry is one key's outcome and, until the outcome is known, the
// computation producing it.
type cacheEntry struct {
	// done is closed once outcome, err and tierHit are final.
	done    chan struct{}
	outcome Outcome
	err     error
	// tierHit records that outcome came from the second tier rather
	// than a computation.
	tierHit bool
	// waiters counts the lookups waiting on done; cancel cancels the
	// computation's context and is nil once the computation has
	// finished. Both are guarded by Cache.mu.
	waiters int
	cancel  context.CancelFunc
}

// Tier is a second cache level behind the in-memory Cache — typically a
// disk-backed store (DiskTier over internal/store) so outcomes survive
// restarts and are shareable between processes. Implementations must be
// safe for concurrent use; Get misses and Put failures are silent (the
// tier is an optimization, never a source of truth). Canon is the key's
// precomputed canonical string, so tiers address storage without
// re-serializing the key.
type Tier interface {
	Get(key Key, canon string) (Outcome, bool)
	Put(key Key, canon string, o Outcome)
}

// SetTier installs the cache's second level. Call before the cache is
// shared across goroutines; outcomes already resident are unaffected.
func (c *Cache) SetTier(t Tier) { c.tier = t }

// NewCache returns an empty unbounded cache, for sharing across batch
// runs.
func NewCache() *Cache { return &Cache{} }

// NewCacheBounded returns an empty cache holding at most capacity
// outcomes (0 means unbounded).
func NewCacheBounded(capacity int) *Cache { return &Cache{cap: capacity} }

// ensure lazily builds the backing LRU so the zero Cache is usable.
func (c *Cache) ensure() *cache.LRU[Key, *cacheEntry] {
	c.init.Do(func() { c.lru = cache.New[Key, *cacheEntry](c.cap) })
	return c.lru
}

// Len returns the number of cached keys (computed or in flight).
func (c *Cache) Len() int { return c.ensure().Len() }

// Stats returns the backing cache's hit/miss/eviction accounting. Its
// hit count includes requests that waited on an in-flight computation of
// their key.
func (c *Cache) Stats() cache.Stats { return c.ensure().Stats() }

// getOrCompute returns the outcome for key, computing it at most once
// per resident entry. The boolean reports whether the outcome was served
// rather than computed for this lookup: the entry already existed
// (possibly still in flight, in which case this lookup joined it) or the
// second tier had it.
//
// The lookup that creates an entry starts its computation on a goroutine
// of its own, under a context of its own; every lookup, that one
// included, then waits for the outcome or for its own ctx. A lookup that
// leaves returns ctx.Err at once. When the last one leaves, the
// computation's context is canceled: a computation still waiting for a
// slot of sem is dropped, while one already compiling runs to the end and
// fills the cache, because the compilers take no context. A lookup that
// finds an in-flight entry nobody waits for replaces it and starts
// afresh, so no lookup ever receives another's cancellation.
func (c *Cache) getOrCompute(ctx context.Context, key Key, canon string, sem chan struct{}, compute func() (Outcome, error)) (Outcome, error, bool) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err, false
	}
	lru := c.ensure()
	c.mu.Lock()
	lru.RemoveIf(key, func(e *cacheEntry) bool { return e.cancel != nil && e.waiters == 0 })
	e, found := lru.GetOrAdd(key, func() *cacheEntry { return &cacheEntry{done: make(chan struct{})} })
	switch {
	case !found:
		// The entry, not this lookup, owns the computation, so its
		// context derives from no lookup's.
		var cctx context.Context
		cctx, e.cancel = context.WithCancel(context.Background())
		go c.compute(cctx, e, key, canon, sem, compute)
	case e.cancel != nil:
		c.joins.Add(1)
	}
	if e.cancel != nil {
		e.waiters++
	}
	c.mu.Unlock()

	select {
	case <-e.done:
		return e.outcome, e.err, found || e.tierHit
	case <-ctx.Done():
		c.mu.Lock()
		if e.cancel != nil {
			if e.waiters--; e.waiters == 0 {
				e.cancel()
			}
		}
		c.mu.Unlock()
		return Outcome{}, ctx.Err(), false
	}
}

// compute fills e: from the second tier when it has the key, otherwise
// by running fn while holding a slot of sem, and then entering the fresh
// outcome in the ledgers and writing it through to the tier.
func (c *Cache) compute(ctx context.Context, e *cacheEntry, key Key, canon string, sem chan struct{}, fn func() (Outcome, error)) {
	defer c.settle(e, key)
	if c.tier != nil {
		if o, ok := c.tier.Get(key, canon); ok {
			e.outcome, e.tierHit = o, true
			return
		}
	}
	e.outcome, e.err = c.compile(ctx, sem, fn)
	if e.err != nil {
		return
	}
	c.passes.observe(e.outcome.Passes)
	c.verifies.observe(e.outcome.Verify)
	if c.tier != nil {
		c.tier.Put(key, canon, e.outcome)
	}
}

// compile runs fn holding a slot of sem (nil means no gate), unless ctx
// ends first; a slot won in a race with the cancellation goes back
// unused.
func (c *Cache) compile(ctx context.Context, sem chan struct{}, fn func() (Outcome, error)) (Outcome, error) {
	if sem != nil {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		case <-ctx.Done():
		}
	}
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	c.compiles.Add(1)
	return fn()
}

// settle ends e's computation and releases its waiters. It is the panic
// boundary — a recover works only on the goroutine that panics — and
// evicts an entry that failed by panic or cancellation, so neither
// poisons the key for later lookups.
func (c *Cache) settle(e *cacheEntry, key Key) {
	if v := recover(); v != nil {
		c.panics.Add(1)
		stack := debug.Stack()
		log.Printf("pipeline: panic compiling %s: %v\n%s", key, v, stack)
		e.outcome, e.err = Outcome{}, &PanicError{Value: v, Stack: stack}
	}
	var panicked *PanicError
	failed := errors.Is(e.err, context.Canceled) || errors.As(e.err, &panicked)
	c.mu.Lock()
	e.cancel()
	e.cancel = nil
	if failed {
		c.lru.RemoveIf(key, func(cur *cacheEntry) bool { return cur == e })
	}
	c.mu.Unlock()
	close(e.done)
}

// Run executes jobs across the worker pool and returns one result per
// job, in job order. Per-job failures are reported in Result.Err and do
// not stop the batch; FirstError collects them. The returned error is
// non-nil only when ctx is canceled before the run ends: unstarted jobs
// are abandoned and jobs waiting on a compile return at once, without
// draining it (see Cache.getOrCompute for what becomes of the compile).
func Run(ctx context.Context, jobs []Job, opts Options) ([]Result, Stats, error) {
	start := time.Now()
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if opts.Cache == nil {
		opts.Cache = NewCache()
	}

	results := make([]Result, len(jobs))
	var compiles, hits atomic.Int64

	indices := make(chan int)
	var wg sync.WaitGroup
	var done atomic.Int64
	var emitMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				r := runJob(ctx, jobs[i], opts, &compiles, &hits)
				results[i] = r
				if opts.OnResult != nil && ctx.Err() == nil {
					emitMu.Lock()
					opts.OnResult(int(done.Add(1)), len(jobs), r)
					emitMu.Unlock()
				}
			}
		}()
	}

dispatch:
	for i := range jobs {
		select {
		case indices <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(indices)
	wg.Wait()

	stats := Stats{
		Jobs:      len(jobs),
		Workers:   workers,
		Compiles:  int(compiles.Load()),
		CacheHits: int(hits.Load()),
		Wall:      time.Since(start),
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// FirstError returns the first per-job failure in job order, or nil.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("pipeline: %s: %w", r.Key, r.Err)
		}
	}
	return nil
}

func runJob(ctx context.Context, job Job, opts Options, compiles, hits *atomic.Int64) Result {
	jobStart := time.Now()
	// Canonicalize the cache identity here, at the one point every
	// entry point funnels through, so a job naming the default grouping
	// explicitly shares the default's cache entry and result key.
	job.Key.Grouping = compiler.NormalizeGrouping(job.Key.Grouping)
	if job.Canon == "" {
		job.Canon = job.Key.String()
	}
	outcome, err, hit := opts.Cache.getOrCompute(ctx, job.Key, job.Canon, opts.Sem, func() (Outcome, error) {
		compiles.Add(1)
		return execute(job, opts.Snapshots)
	})
	if hit {
		hits.Add(1)
	}
	return Result{
		Key:     job.Key,
		Outcome: outcome,
		Err:     err,
		Elapsed: time.Since(jobStart),
		Cached:  hit,
	}
}

// execute runs one job end to end: generate, build the key's pipeline
// on the shared pass-manager driver, compile (through the snapshot
// store when one is installed and the pipeline is resumable), simulate
// (which fails on any physical violation), and — when the key asks for
// it — verify the compiled program's equivalence with its circuit.
func execute(job Job, snaps *SnapshotStore) (Outcome, error) {
	circ, err := job.Circuit()
	if err != nil {
		return Outcome{}, err
	}
	hw := defaultArch(job, circ)

	p, err := pipelineFor(job.Key)
	if err != nil {
		return Outcome{}, err
	}
	var res *compiler.Result
	if snaps != nil && len(circ.Blocks) > 0 && p.Resumable() {
		res, err = snaps.run(p, job.Key, job.Canon, circ, hw)
	} else {
		res, err = p.Run(circ, hw)
	}
	if err != nil {
		return Outcome{}, err
	}
	if job.Keep != nil {
		job.Keep(Artifacts{Circuit: circ, Program: res.Program, Initial: res.Initial})
	}
	out, err := simulate(res)
	if err != nil {
		return out, err
	}
	if job.Key.Verify {
		// A clean execution is the physical check: the executor replays
		// the program under the verifier's rule set and fails on any
		// violation. What is left to verify is equivalence.
		out.Verify = verify.CheckEquivalence(circ, res.Program).Summary()
	}
	return out, nil
}

// CompileJob runs the job's generate-and-compile front half and returns
// the artifacts, skipping the cache, the simulator, and verification —
// the recompile fallback for consumers that need artifacts of a job the
// cache already served (the batched verify sweep).
func CompileJob(job Job) (Artifacts, error) {
	job.Key.Grouping = compiler.NormalizeGrouping(job.Key.Grouping)
	circ, err := job.Circuit()
	if err != nil {
		return Artifacts{}, err
	}
	hw := defaultArch(job, circ)
	p, err := pipelineFor(job.Key)
	if err != nil {
		return Artifacts{}, err
	}
	res, err := p.Run(circ, hw)
	if err != nil {
		return Artifacts{}, err
	}
	return Artifacts{Circuit: circ, Program: res.Program, Initial: res.Initial}, nil
}

// pipelineFor builds the validated pass pipeline a key selects. Both
// schemes run through internal/compiler's shared driver; the key's
// grouping name substitutes the zoned grouping pass.
func pipelineFor(key Key) (*compiler.Pipeline, error) {
	switch key.Scheme {
	case Enola:
		return compiler.Enola(compiler.EnolaConfig{Seed: 1})
	case NonStorage, WithStorage:
		return compiler.Zoned(compiler.ZonedConfig{
			UseStorage: key.Scheme == WithStorage,
			Seed:       1,
			Grouping:   key.Grouping,
		})
	default:
		return nil, fmt.Errorf("unknown scheme %q", key.Scheme)
	}
}

func defaultArch(job Job, circ *circuit.Circuit) *arch.Arch {
	if job.Arch != nil {
		return job.Arch()
	}
	return arch.New(arch.Config{Qubits: circ.Qubits, AODs: job.Key.AODs})
}

func simulate(res *compiler.Result) (Outcome, error) {
	exec, err := sim.Execute(res.Program, res.Initial)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Fidelity:   exec.Fidelity,
		Components: exec.Components,
		Texe:       exec.Time,
		Tcomp:      res.Stats.CompileTime,
		Stages:     exec.Stages,
		Moves:      res.Stats.Moves,
		Passes:     res.Stats.Passes,
	}, nil
}
