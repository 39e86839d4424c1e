// Package service is the compile-as-a-service layer over the batch
// engine: JSON request/response types, request validation, a shared
// size-bounded LRU compile cache (internal/cache via pipeline.Cache), a
// singleflight group collapsing concurrent identical requests into one
// execution, and bounded compile concurrency. cmd/powermoved serves it
// over HTTP; cmd/powermove -json and powermove.CompileJSON run the same
// path one-shot, which is why the CLI and the daemon produce
// byte-identical documents for the same request.
//
// The dataflow for one compile request is
//
//	validate → key → singleflight → semaphore → pipeline.Run → cache
//
// with the cache consulted inside pipeline.Run (a repeated request is a
// cache hit and never reaches a worker) and the singleflight group
// ensuring a concurrent burst of identical requests occupies one worker
// slot, not N.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/experiments"
	"powermove/internal/fidelity"
	"powermove/internal/jobs"
	"powermove/internal/pipeline"
	"powermove/internal/qasm"
	"powermove/internal/store"
	"powermove/internal/verify"
	"powermove/internal/workload"
)

// MaxAODs bounds the accepted AOD-array count, one beyond the paper's
// Fig. 7 sweep ceiling times two; larger requests are almost certainly
// typos and the architecture model has never been validated there.
const MaxAODs = 8

// Config sizes a Server.
type Config struct {
	// Instance is this server's stable identity within a fleet — the
	// name a powermove-router knows the backend by. It prefixes job ids
	// ("<instance>.jNN-...") so routers recover job ownership from the
	// id alone, and it labels the /metrics backend block. Must not
	// contain "." (the id separator); empty means a standalone daemon.
	Instance string
	// Workers bounds concurrent compile executions across all requests;
	// values < 1 select GOMAXPROCS.
	Workers int
	// CacheSize bounds the shared compile cache in entries (one entry is
	// one compiled evaluation point); 0 means unbounded.
	CacheSize int
	// QueueDepth bounds the async job admission queue (/v1/jobs);
	// submissions beyond it are shed with 429 + Retry-After. Values < 1
	// select 256.
	QueueDepth int
	// JobTTL is how long finished jobs and their result documents are
	// retained for polling; values <= 0 select 15 minutes.
	JobTTL time.Duration
	// Store, when non-nil, is a disk-backed second cache tier behind the
	// in-memory LRU: fresh outcomes are written through to it, and an
	// in-memory miss reads through before compiling, so compiled results
	// survive daemon restarts. Open one with store.Open.
	Store *store.Store
	// SnapshotCache bounds the incremental-compilation snapshot store
	// (per-block compiler checkpoints, see pipeline.SnapshotStore): 0
	// selects pipeline.DefaultSnapshotCap, negative disables incremental
	// compilation entirely (every compile is cold).
	SnapshotCache int
	// NoWarmStart disables warm-start placement donation (the
	// -no-warm-start escape hatch); prefix resumption is unaffected.
	NoWarmStart bool
	// Speculate enables speculative precompilation: idle job-worker slots
	// precompile likely ablation variants (grouping and scheme
	// substitutions) of freshly compiled requests at lowest priority,
	// strictly load-shedding to real work.
	Speculate bool
}

// Server is the compile service: a shared LRU outcome cache, a
// singleflight group, and a compile semaphore. Construct with New; use
// Handler for the HTTP front end or Compile/Batch/Experiments directly.
type Server struct {
	instance string
	workers  int
	cache    *pipeline.Cache
	flight   flightGroup[*CompileResponse]
	sem      chan struct{}
	start    time.Time
	jobs     *jobs.Manager
	store    *store.Store
	snaps    *pipeline.SnapshotStore
	spec     *speculator

	// compileOne executes one validated job; tests substitute a
	// controlled implementation to observe dedup behavior.
	compileOne func(ctx context.Context, job pipeline.Job) (pipeline.Result, error)

	compiles  atomic.Int64
	endpoints endpointMetrics
	passes    passLedger
	verifies  verifyLedger
}

// New returns a ready Server. Release it with Close — the async job
// subsystem owns goroutines.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		instance: cfg.Instance,
		workers:  workers,
		cache:    pipeline.NewCacheBounded(cfg.CacheSize),
		sem:      make(chan struct{}, workers),
		start:    time.Now(),
		store:    cfg.Store,
	}
	s.compileOne = s.pipelineCompile
	if cfg.Store != nil {
		s.cache.SetTier(pipeline.DiskTier(cfg.Store))
	}
	if cfg.SnapshotCache >= 0 {
		s.snaps = pipeline.NewSnapshotStore(cfg.SnapshotCache)
		s.snaps.SetWarmStart(!cfg.NoWarmStart)
	}
	if cfg.Speculate {
		s.spec = newSpeculator(s)
	}
	// Job workers match the compile-concurrency bound: more would only
	// stack up on the compile semaphore.
	jc := jobs.Config{
		Depth:    cfg.QueueDepth,
		Workers:  workers,
		TTL:      cfg.JobTTL,
		Run:      s.runJob,
		CodeOf:   errorCode,
		IDPrefix: cfg.Instance,
	}
	if s.spec != nil {
		jc.Speculate = s.spec.speculate
	}
	s.jobs = jobs.NewManager(jc)
	return s
}

// Close releases the job subsystem's goroutines, canceling jobs still
// running.
func (s *Server) Close() { s.jobs.Close() }

// CompileSpec is the compilation knobs shared by every request shape
// that compiles — /v1/compile, each /v1/batch item, and async compile
// and verify jobs embed it, so the knobs validate in one place
// (normalize) and mean the same thing everywhere. Its fields marshal
// inline (Go's embedded-struct promotion), so the wire format is
// unchanged from when they were declared flat on CompileRequest.
type CompileSpec struct {
	// Scheme is "enola", "non-storage", or "with-storage" (the
	// default).
	Scheme string `json:"scheme,omitempty"`
	// AODs is the number of AOD arrays of the target architecture;
	// 0 defaults to 1.
	AODs int `json:"aods,omitempty"`
	// Grouping optionally substitutes the zoned pipeline's Coll-Move
	// grouping pass: "merged" (the default), "distance", or "in-order"
	// (compiler.GroupingNames). Unknown names are rejected as 400s with
	// code unknown_grouping; the enola baseline has a fixed grouping
	// and rejects the field.
	Grouping string `json:"grouping,omitempty"`
	// Stable zeroes the measured wall-clock fields of the response so
	// repeated requests (and the CLI's -json -stable mode) are
	// byte-identical.
	Stable bool `json:"stable,omitempty"`
	// Verify runs the differential verification subsystem
	// (internal/verify) over the compiled program — the physical
	// legality checker plus the semantic equivalence walk — and
	// attaches its summary to the response. The HTTP front end also
	// accepts it as the ?verify=1 query parameter.
	Verify bool `json:"verify,omitempty"`
}

// normalize validates the spec and returns the normalized scheme, AOD
// count, and canonical grouping name (empty for the default, so an
// explicit "merged" shares the default's cache entry).
func (cs *CompileSpec) normalize() (pipeline.Scheme, int, string, error) {
	scheme := pipeline.Scheme(cs.Scheme)
	if cs.Scheme == "" {
		scheme = pipeline.WithStorage
	}
	switch scheme {
	case pipeline.Enola, pipeline.NonStorage, pipeline.WithStorage:
	default:
		return "", 0, "", fmt.Errorf("unknown scheme %q (want enola, non-storage, or with-storage)", cs.Scheme)
	}
	aods := cs.AODs
	if aods == 0 {
		aods = 1
	}
	if aods < 1 || aods > MaxAODs {
		return "", 0, "", fmt.Errorf("aods = %d out of range [1, %d]", cs.AODs, MaxAODs)
	}
	if scheme == pipeline.Enola && aods != 1 {
		return "", 0, "", fmt.Errorf("the enola baseline is single-AOD; got aods = %d", aods)
	}
	// The enola rejection must see the raw field — an explicit "merged"
	// is still a grouping request the baseline can't honor — and only
	// then does the name validate and normalize (an explicit default
	// collapses to the empty name so it shares the default's cache
	// entry; the engine normalizes again for direct job builders).
	grouping := cs.Grouping
	if grouping != "" {
		if scheme == pipeline.Enola {
			return "", 0, "", fmt.Errorf("the enola baseline has a fixed grouping; drop the grouping field")
		}
		if err := compiler.ValidateGrouping(grouping); err != nil {
			return "", 0, "", &APIError{Status: http.StatusBadRequest, Code: CodeUnknownGrouping,
				Message: err.Error(), Details: compiler.GroupingNames()}
		}
		grouping = compiler.NormalizeGrouping(grouping)
	}
	return scheme, aods, grouping, nil
}

// CompileRequest asks for one evaluation point: a circuit (an inline
// OpenQASM 2.0 source or a named benchmark workload) plus the shared
// compilation knobs. Exactly one of QASM and Workload must be set.
type CompileRequest struct {
	// QASM is an inline OpenQASM 2.0 program (see internal/qasm for the
	// supported subset).
	QASM string `json:"qasm,omitempty"`
	// Workload names a generated benchmark instance.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	CompileSpec
}

// WorkloadSpec names a generated benchmark instance, mirroring
// experiments.Spec: without Seed the instance is the paper's, with its
// deterministic spec-derived seed; with Seed the family generator runs
// under that seed instead.
type WorkloadSpec struct {
	// Family is a benchmark family of Table 2, e.g. "QFT" or
	// "QAOA-regular3".
	Family string `json:"family"`
	// Qubits is the instance size.
	Qubits int `json:"qubits"`
	// Seed, when non-nil, overrides the spec-derived generator seed.
	Seed *int64 `json:"seed,omitempty"`
}

// CompileResponse is one compiled evaluation point. Every field except
// TcompMS and Cached is a deterministic function of the request.
type CompileResponse struct {
	// Bench is the cache identity of the circuit: the workload's
	// "family-n" name (suffixed "@seed" under an explicit seed) or
	// "qasm:<digest>" for inline sources.
	Bench string `json:"bench"`
	// Scheme and AODs echo the normalized request.
	Scheme string `json:"scheme"`
	AODs   int    `json:"aods"`
	// Qubits is the circuit's qubit count.
	Qubits int `json:"qubits"`
	// Fidelity is the headline output fidelity (Equation 1).
	Fidelity float64 `json:"fidelity"`
	// Components are the individual fidelity factors.
	Components fidelity.Components `json:"components"`
	// TexeUS is the simulated execution time in microseconds.
	TexeUS float64 `json:"texe_us"`
	// TcompMS is the measured compile time in milliseconds; zero under
	// Stable or on a cache hit.
	TcompMS float64 `json:"tcomp_ms"`
	// Stages and Moves count Rydberg pulses and executed relocations.
	Stages int `json:"stages"`
	Moves  int `json:"moves"`
	// Grouping echoes the non-default grouping pass of the request.
	Grouping string `json:"grouping,omitempty"`
	// Passes is the compiler's per-pass breakdown for this evaluation
	// point: self-time, call counts, and counter deltas per pass. The
	// durations are zeroed under Stable and on cache hits (calls and
	// counters are deterministic).
	Passes compiler.PassStats `json:"passes,omitempty"`
	// Verify is the differential verification summary, present only
	// when the request asked for verification. Deterministic, so it
	// survives Stable and cache hits unchanged.
	Verify *verify.Summary `json:"verify,omitempty"`
	// Cached reports whether the outcome came from the shared cache (or
	// an in-flight identical request) rather than a fresh compile.
	Cached bool `json:"cached"`
}

// compilePlan is a validated, normalized request: the batch job plus the
// request facts the response echoes. canon is the key's canonical string
// form, serialized once here and reused by every identity consumer —
// the singleflight group, the async dedup key, the cache's disk tier —
// instead of each re-serializing the key.
type compilePlan struct {
	job    pipeline.Job
	canon  string
	qubits int
	stable bool
}

// validate normalizes req into an executable plan or reports the first
// problem: the shared knobs through CompileSpec.normalize, then the
// circuit source, then the cache key — derived here, once, for every
// path that compiles (sync, batch, and async jobs alike). Inline QASM is
// parsed here too, so malformed programs fail before touching a worker
// and the job closure reuses the parse.
func (req *CompileRequest) validate() (*compilePlan, error) {
	scheme, aods, grouping, err := req.normalize()
	if err != nil {
		return nil, err
	}
	var job pipeline.Job
	var qubits int
	switch {
	case req.QASM != "" && req.Workload != nil:
		return nil, fmt.Errorf("specify only one of qasm and workload")
	case req.QASM != "":
		digest := sha256.Sum256([]byte(req.QASM))
		bench := "qasm:" + hex.EncodeToString(digest[:8])
		prog, err := qasm.Parse(bench, req.QASM)
		if err != nil {
			return nil, fmt.Errorf("qasm: %w", err)
		}
		circ := prog.Circuit
		job = pipeline.NewJob(bench, scheme, aods, func() (*circuit.Circuit, error) { return circ, nil })
		qubits = circ.Qubits
	case req.Workload != nil:
		w := req.Workload
		if w.Qubits < 2 {
			return nil, fmt.Errorf("workload qubits = %d; want at least 2", w.Qubits)
		}
		if !knownFamily(experiments.Family(w.Family)) {
			return nil, fmt.Errorf("unknown workload family %q", w.Family)
		}
		spec := experiments.Spec{Family: experiments.Family(w.Family), Qubits: w.Qubits}
		bench := spec.String()
		gen := spec.Circuit
		if w.Seed != nil {
			seed := *w.Seed
			bench = fmt.Sprintf("%s@%d", bench, seed)
			gen = func() (*circuit.Circuit, error) { return seededCircuit(spec.Family, w.Qubits, seed) }
		}
		job = pipeline.NewJob(bench, scheme, aods, gen)
		qubits = w.Qubits
	default:
		return nil, fmt.Errorf("specify one of qasm and workload")
	}
	job.Key.Grouping = grouping
	job.Key.Verify = req.Verify
	job.Canon = job.Key.String()
	return &compilePlan{job: job, canon: job.Canon, qubits: qubits, stable: req.Stable}, nil
}

// knownFamily reports whether family has a generator, without paying
// for a circuit: validation must stay cheap because it also runs on
// requests that will be served from the cache.
func knownFamily(family experiments.Family) bool {
	switch family {
	case experiments.QAOARegular3, experiments.QAOARegular4, experiments.QAOARandom,
		experiments.QFT, experiments.BV, experiments.VQE, experiments.QSim:
		return true
	default:
		return false
	}
}

// seededCircuit generates family with an explicit seed (deterministic
// families ignore it).
func seededCircuit(family experiments.Family, n int, seed int64) (*circuit.Circuit, error) {
	switch family {
	case experiments.QAOARegular3:
		return workload.QAOARegular(n, 3, seed), nil
	case experiments.QAOARegular4:
		return workload.QAOARegular(n, 4, seed), nil
	case experiments.QAOARandom:
		return workload.QAOARandom(n, seed), nil
	case experiments.QFT:
		return workload.QFT(n), nil
	case experiments.BV:
		return workload.BV(n, seed), nil
	case experiments.VQE:
		return workload.VQE(n), nil
	case experiments.QSim:
		return workload.QSim(n, seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", family)
	}
}

// Compile executes one request: validation, then the singleflight group,
// then a bounded-concurrency compile through the batch engine and the
// shared cache. Identical concurrent requests share one execution;
// identical repeated requests are cache hits.
func (s *Server) Compile(ctx context.Context, req *CompileRequest) (*CompileResponse, error) {
	return s.compile(ctx, req, true)
}

// compile is the shared execution path. detach controls whether the
// compile outlives ctx: the sync HTTP path detaches (joiners from other
// connections share the execution, so one client's disconnect must
// neither fail them nor keep the outcome out of the cache — joiners' own
// ctx still governs their wait, in flightGroup.do), while async jobs
// don't (DELETE /v1/jobs/{id} must actually stop the work).
func (s *Server) compile(ctx context.Context, req *CompileRequest, detach bool) (*CompileResponse, error) {
	spec, err := req.validate()
	if err != nil {
		return nil, &RequestError{err}
	}
	leaderCtx := ctx
	if detach {
		leaderCtx = context.WithoutCancel(ctx)
	}
	resp, err, joined := s.flight.do(ctx, spec.canon, func() (*CompileResponse, error) {
		result, err := s.compileOne(leaderCtx, spec.job)
		if err != nil {
			return nil, err
		}
		if result.Err != nil {
			return nil, result.Err
		}
		if !result.Cached {
			s.passes.observe(result.Outcome.Passes)
			s.verifies.observe(result.Outcome.Verify)
		}
		if s.spec != nil {
			// Drive the speculative-precompilation policy from the sync
			// compile path: a cache hit may redeem a speculated variant;
			// a fresh compile nominates its own ablation variants.
			if result.Cached {
				s.spec.creditHit(spec.canon)
			} else {
				s.spec.offer(spec.job)
			}
		}
		return s.response(spec, result), nil
	})
	if err != nil {
		return nil, err
	}
	if joined {
		// The joiner shares the leader's outcome on a copy: its own
		// request never compiled, which is what Cached (and the zeroed
		// wall-clock fields) report.
		shared := *resp
		shared.Cached = true
		shared.TcompMS = 0
		shared.Passes = shared.Passes.Stabilized()
		return &shared, nil
	}
	return resp, nil
}

// pipelineCompile runs one job on the batch engine against the shared
// cache, gated by the service-wide compile semaphore.
func (s *Server) pipelineCompile(ctx context.Context, job pipeline.Job) (pipeline.Result, error) {
	results, stats, err := pipeline.Run(ctx, []pipeline.Job{job}, pipeline.Options{Workers: 1, Cache: s.cache, Sem: s.sem, Snapshots: s.snaps})
	if err != nil {
		return pipeline.Result{}, err
	}
	s.compiles.Add(int64(stats.Compiles))
	return results[0], nil
}

// response assembles the JSON payload for one engine result.
func (s *Server) response(spec *compilePlan, r pipeline.Result) *CompileResponse {
	resp := &CompileResponse{
		Bench:      r.Key.Bench,
		Scheme:     string(r.Key.Scheme),
		AODs:       r.Key.AODs,
		Qubits:     spec.qubits,
		Fidelity:   r.Outcome.Fidelity,
		Components: r.Outcome.Components,
		TexeUS:     r.Outcome.Texe,
		TcompMS:    float64(r.Outcome.Tcomp) / float64(time.Millisecond),
		Stages:     r.Outcome.Stages,
		Moves:      r.Outcome.Moves,
		Grouping:   r.Key.Grouping,
		Passes:     r.Outcome.Passes,
		Verify:     r.Outcome.Verify,
		Cached:     r.Cached,
	}
	if spec.stable || r.Cached {
		resp.TcompMS = 0
		resp.Passes = resp.Passes.Stabilized()
	}
	return resp
}

// BatchRequest compiles many evaluation points in one call.
type BatchRequest struct {
	Requests []CompileRequest `json:"requests"`
}

// BatchItem is one batch result: a response or a per-item error; exactly
// one field is set. Item failures don't fail the batch.
type BatchItem struct {
	Result *CompileResponse `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// BatchResponse returns the batch outcomes in request order plus the
// engine's accounting for the run.
type BatchResponse struct {
	Results  []BatchItem    `json:"results"`
	Stats    pipeline.Stats `json:"stats"`
	Duration string         `json:"duration,omitempty"`
}

// MaxBatch bounds the evaluation points of one batch request.
const MaxBatch = 1024

// Batch validates every sub-request, fans the valid ones across the
// engine's worker pool (bounded by Config.Workers) against the shared
// cache, and returns per-item results in request order. Invalid items
// carry their validation error; they cost no compile.
func (s *Server) Batch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	if len(req.Requests) == 0 {
		return nil, &RequestError{fmt.Errorf("empty batch")}
	}
	if len(req.Requests) > MaxBatch {
		return nil, &RequestError{fmt.Errorf("batch has %d requests; limit is %d", len(req.Requests), MaxBatch)}
	}
	specs := make([]*compilePlan, len(req.Requests))
	items := make([]BatchItem, len(req.Requests))
	var jobs []pipeline.Job
	jobIdx := make([]int, 0, len(req.Requests))
	for i := range req.Requests {
		spec, err := req.Requests[i].validate()
		if err != nil {
			items[i] = BatchItem{Error: err.Error()}
			continue
		}
		specs[i] = spec
		jobs = append(jobs, spec.job)
		jobIdx = append(jobIdx, i)
	}
	var stats pipeline.Stats
	if len(jobs) > 0 {
		results, st, err := pipeline.Run(ctx, jobs, pipeline.Options{Workers: s.workers, Cache: s.cache, Sem: s.sem, Snapshots: s.snaps})
		if err != nil {
			return nil, err
		}
		stats = st
		s.compiles.Add(int64(st.Compiles))
		// The raw Cached flags (pre-normalization) identify the items
		// that actually compiled, whose pass breakdowns feed the
		// cumulative /metrics ledger.
		for _, r := range results {
			if r.Err == nil && !r.Cached {
				s.passes.observe(r.Outcome.Passes)
				s.verifies.observe(r.Outcome.Verify)
			}
		}
		// Which duplicate of a key actually compiled is a scheduling
		// race inside the engine, so the raw Cached flags would make
		// stable batch documents flip run to run. Normalize them to
		// request order: if the batch compiled a key, its first item
		// reports the compile and later duplicates report cache hits.
		compiledHere := make(map[pipeline.Key]bool)
		for _, r := range results {
			if r.Err == nil && !r.Cached {
				compiledHere[r.Key] = true
			}
		}
		attributed := make(map[pipeline.Key]bool)
		for j, r := range results {
			i := jobIdx[j]
			if r.Err != nil {
				items[i] = BatchItem{Error: r.Err.Error()}
				continue
			}
			r.Cached = !(compiledHere[r.Key] && !attributed[r.Key])
			attributed[r.Key] = true
			items[i] = BatchItem{Result: s.response(specs[i], r)}
		}
	}
	resp := &BatchResponse{Results: items, Stats: stats}
	stable := true
	for i := range req.Requests {
		stable = stable && req.Requests[i].Stable
	}
	if !stable {
		resp.Duration = stats.Wall.Round(time.Millisecond).String()
	}
	resp.Stats.Wall = 0 // reported via Duration so stable output stays byte-identical
	return resp, nil
}

// ExperimentDoc is one experiments endpoint payload: exactly one of the
// fields is set, matching the requested table or figure.
type ExperimentDoc struct {
	Table   any    `json:"table,omitempty"`
	Figure  any    `json:"figure,omitempty"`
	Stable  bool   `json:"stable,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Elapsed string `json:"elapsed,omitempty"`
}

// Experiment regenerates one table ("1", "2", "3") or figure ("6a".."6e",
// "7") of the paper's evaluation on the engine, sharing the service's
// compile cache, so points already compiled for /v1/compile (or a
// previous call) are served from cache. Stable zeroes the wall-clock
// fields for reproducible output.
func (s *Server) Experiment(ctx context.Context, kind, id string, stable bool) (*ExperimentDoc, error) {
	return s.experiment(ctx, kind, id, stable, nil)
}

// experiment is Experiment plus an optional per-point progress callback,
// which async experiment jobs stream to their event feed.
func (s *Server) experiment(ctx context.Context, kind, id string, stable bool, progress func(done, total int)) (*ExperimentDoc, error) {
	rn := &experiments.Runner{Jobs: s.workers, Cache: s.cache, Sem: s.sem, Snapshots: s.snaps,
		// Stream completions into the cumulative per-pass ledger;
		// cache hits carry a breakdown already accounted for by the
		// compile that produced them.
		OnResult: func(done, total int, r pipeline.Result) {
			if r.Err == nil && !r.Cached {
				s.passes.observe(r.Outcome.Passes)
				s.verifies.observe(r.Outcome.Verify)
			}
			if progress != nil {
				progress(done, total)
			}
		},
	}
	start := time.Now()
	doc := &ExperimentDoc{Stable: stable, Workers: s.workers}
	switch {
	case kind == "table" && id == "1":
		doc.Table = experiments.Table1()
	case kind == "table" && id == "2":
		doc.Table = experiments.Table2()
	case kind == "table" && id == "3":
		rows, err := rn.Table3Rows(ctx)
		if err != nil {
			return nil, err
		}
		if stable {
			for _, r := range rows {
				r.Stabilize()
			}
		}
		doc.Table = rows
	case kind == "figure" && id == "7":
		points, err := rn.Figure7Sweep(ctx)
		if err != nil {
			return nil, err
		}
		if stable {
			for i := range points {
				points[i].Result.Stabilize()
			}
		}
		doc.Figure = points
	case kind == "figure":
		fam, ok := experiments.Figure6Panels()[id]
		if !ok {
			return nil, &RequestError{fmt.Errorf("unknown figure %q (want 6a..6e or 7)", id)}
		}
		points, err := rn.Figure6Panel(ctx, fam)
		if err != nil {
			return nil, err
		}
		if stable {
			for _, pt := range points {
				pt.Row.Stabilize()
			}
		}
		doc.Figure = points
	case kind == "table":
		return nil, &RequestError{fmt.Errorf("unknown table %q (want 1, 2, or 3)", id)}
	default:
		return nil, &RequestError{fmt.Errorf("unknown experiment kind %q (want table or figure)", kind)}
	}
	s.compiles.Add(int64(rn.Stats().Compiles))
	if !stable {
		doc.Elapsed = time.Since(start).Round(time.Millisecond).String()
	}
	return doc, nil
}

// RoutingKey returns the request's canonical cache identity — the same
// pipeline.Key serialization the compile cache, the singleflight group,
// the async dedup key, and the disk store address by. It is the routing
// key of the fleet tier: a consistent-hash router maps it onto one
// backend so identical compiles always land on the daemon whose LRU and
// snapshot caches already hold them.
func (req *CompileRequest) RoutingKey() (string, error) {
	plan, err := req.validate()
	if err != nil {
		return "", err
	}
	return plan.canon, nil
}

// RoutingKey returns the job submission's routing key: compile and
// verify jobs route by their compile key (cache locality), experiment
// jobs by their endpoint identity. Batch jobs return "" — they span
// many keys, and the router hashes the raw body instead so identical
// batches still co-locate.
func (req *JobRequest) RoutingKey() (string, error) {
	switch {
	case req.Compile != nil:
		return req.Compile.RoutingKey()
	case req.Verify != nil:
		forced := *req.Verify
		forced.Verify = true
		return forced.RoutingKey()
	case req.Experiment != nil:
		return fmt.Sprintf("exp:%s/%s?stable=%v", req.Experiment.Kind, req.Experiment.ID, req.Experiment.Stable), nil
	default:
		return "", nil
	}
}

// RequestError marks a client-side problem (HTTP 400, not 500).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// EncodeJSON is the service's canonical JSON encoding — two-space
// indented with a trailing newline — shared by the HTTP handlers and
// powermove.CompileJSON so the daemon and the CLI emit byte-identical
// documents.
func EncodeJSON(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
