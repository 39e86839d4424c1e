package service

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powermove/internal/cache"
	"powermove/internal/compiler"
	"powermove/internal/jobs"
	"powermove/internal/store"
	"powermove/internal/verify"
)

// endpointMetrics accumulates per-endpoint request counts and latency
// under one small mutex; the service's hot path is the compile itself,
// not this bookkeeping.
type endpointMetrics struct {
	mu sync.Mutex
	m  map[string]*EndpointStats
}

// EndpointStats is the accounting of one endpoint.
type EndpointStats struct {
	// Requests counts calls, including failed ones.
	Requests int64 `json:"requests"`
	// Errors counts calls that returned a non-2xx status.
	Errors int64 `json:"errors"`
	// TotalMS and MaxMS describe observed handler latency; MeanMS is
	// TotalMS/Requests, computed at snapshot time.
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

// observe records one call of endpoint.
func (em *endpointMetrics) observe(endpoint string, elapsed time.Duration, failed bool) {
	ms := float64(elapsed) / float64(time.Millisecond)
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.m == nil {
		em.m = make(map[string]*EndpointStats)
	}
	st := em.m[endpoint]
	if st == nil {
		st = &EndpointStats{}
		em.m[endpoint] = st
	}
	st.Requests++
	if failed {
		st.Errors++
	}
	st.TotalMS += ms
	if ms > st.MaxMS {
		st.MaxMS = ms
	}
}

// snapshot copies the per-endpoint ledger, filling in means.
func (em *endpointMetrics) snapshot() map[string]EndpointStats {
	em.mu.Lock()
	defer em.mu.Unlock()
	out := make(map[string]EndpointStats, len(em.m))
	for k, st := range em.m {
		s := *st
		if s.Requests > 0 {
			s.MeanMS = s.TotalMS / float64(s.Requests)
		}
		out[k] = s
	}
	return out
}

// PassMetrics is the cumulative accounting of one compiler pass across
// every fresh compile the server has executed (compile, batch, and
// experiment requests alike; cache hits don't recount the compile that
// produced them). Calls and counters are monotone non-decreasing, so
// two scrapes bracket the pass-level work a request caused.
type PassMetrics struct {
	// Calls counts pass invocations (stage-level passes run once per
	// stage of every compiled circuit).
	Calls int64 `json:"calls"`
	// TotalMS is cumulative pass self-time.
	TotalMS float64 `json:"total_ms"`
	// Counters accumulates the pass's Stats counter deltas, e.g.
	// {"moves": N} for the routing pass.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// passLedger accumulates per-pass breakdowns under one small mutex,
// keyed by pass name.
type passLedger struct {
	mu sync.Mutex
	m  map[string]*PassMetrics
}

// observe folds one compile's breakdown into the ledger.
func (pl *passLedger) observe(ps compiler.PassStats) {
	if len(ps) == 0 {
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.m == nil {
		pl.m = make(map[string]*PassMetrics)
	}
	for _, p := range ps {
		st := pl.m[p.Pass]
		if st == nil {
			st = &PassMetrics{}
			pl.m[p.Pass] = st
		}
		st.Calls += int64(p.Calls)
		st.TotalMS += float64(p.Duration) / float64(time.Millisecond)
		for k, v := range p.Counters {
			if st.Counters == nil {
				st.Counters = make(map[string]int64, len(p.Counters))
			}
			st.Counters[k] += v
		}
	}
}

// snapshot deep-copies the ledger.
func (pl *passLedger) snapshot() map[string]PassMetrics {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make(map[string]PassMetrics, len(pl.m))
	for k, st := range pl.m {
		s := *st
		if len(st.Counters) > 0 {
			s.Counters = make(map[string]int64, len(st.Counters))
			for ck, cv := range st.Counters {
				s.Counters[ck] = cv
			}
		}
		out[k] = s
	}
	return out
}

// VerifyMetrics is the cumulative accounting of the differential
// verification subsystem (internal/verify) across every fresh verified
// compile: how many programs were checked, how many verified clean, and
// the total violations found. Cache hits reuse a verification already
// counted. A non-zero Violations is an alarm — it means a compiled
// program broke a physical constraint or diverged from its circuit.
type VerifyMetrics struct {
	// Checks counts verified compiles.
	Checks int64 `json:"checks"`
	// Clean counts verified compiles with no violations.
	Clean int64 `json:"clean"`
	// Violations is the cumulative violation count across all checks.
	Violations int64 `json:"violations"`
}

// verifyLedger accumulates VerifyMetrics atomically.
type verifyLedger struct {
	checks, clean, violations atomic.Int64
}

// observe folds one verified compile's summary into the ledger; nil
// (unverified compile) is a no-op.
func (vl *verifyLedger) observe(s *verify.Summary) {
	if s == nil {
		return
	}
	vl.checks.Add(1)
	if s.Violations == 0 {
		vl.clean.Add(1)
	} else {
		vl.violations.Add(int64(s.Violations))
	}
}

// snapshot reads the ledger.
func (vl *verifyLedger) snapshot() VerifyMetrics {
	return VerifyMetrics{
		Checks:     vl.checks.Load(),
		Clean:      vl.clean.Load(),
		Violations: vl.violations.Load(),
	}
}

// MemCounters is the allocation side of /metrics, read from
// runtime.MemStats at snapshot time. The compile hot path was tuned to
// run allocation-free (pooled router scratch, bitset sets, reused
// executor masks); these counters are what lets an operator confirm that
// holds in production — mallocs per compile should stay flat as traffic
// grows.
type MemCounters struct {
	// HeapAllocBytes is the live heap at snapshot time.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// TotalAllocBytes is cumulative bytes allocated since process start.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// Mallocs and Frees count heap objects allocated and freed.
	Mallocs uint64 `json:"mallocs"`
	Frees   uint64 `json:"frees"`
	// NumGC counts completed GC cycles.
	NumGC uint32 `json:"num_gc"`
	// PauseTotalMS is cumulative stop-the-world pause time.
	PauseTotalMS float64 `json:"pause_total_ms"`
}

// IncrementalMetrics is the incremental-compilation snapshot store's
// accounting: how many compiles probed it, how many resumed from a
// shared-prefix checkpoint or warm-started placement, and the compile
// wall clock the resumed prefixes avoided re-paying (the saved-time
// ledger).
type IncrementalMetrics struct {
	// Enabled reports whether the snapshot store is configured (it is by
	// default; -snapshot-cache 0 disables it).
	Enabled bool `json:"enabled"`
	// Entries is the number of retained snapshot entries.
	Entries int `json:"entries"`
	// Probes counts compiles that consulted the store.
	Probes int64 `json:"probes"`
	// PrefixHits counts compiles resumed from a shared-prefix checkpoint.
	PrefixHits int64 `json:"incremental_prefix_hits"`
	// WarmStarts counts compiles whose placement was warm-started from a
	// neighbor's layout.
	WarmStarts int64 `json:"warm_starts"`
	// SavedMS is the cumulative compile time the prefix hits skipped.
	SavedMS float64 `json:"saved_ms"`
}

// SpeculationMetrics is the speculative-precompilation accounting:
// variants nominated, variants actually precompiled on idle worker
// slots, and real requests later served from a speculated entry.
type SpeculationMetrics struct {
	// Enabled reports whether speculation is configured (-speculate).
	Enabled bool `json:"enabled"`
	// Queued is the pending variant backlog (including one in flight).
	Queued int `json:"queued"`
	// Candidates counts variants ever nominated.
	Candidates int64 `json:"candidates"`
	// Compiles counts variants actually precompiled.
	Compiles int64 `json:"speculative_compiles"`
	// Hits counts real requests served from a speculated entry.
	Hits int64 `json:"speculative_hits"`
	// SavedMS is the cumulative compile time those hits never waited for.
	SavedMS float64 `json:"saved_ms"`
}

// BackendBlock is the scrape-friendly digest of one backend for the
// fleet tier: the instance identity plus the handful of counters a
// router aggregates across N daemons — flattened here so the router
// (and any fleet dashboard) reads one stable shallow block instead of
// chasing fields through the full snapshot.
type BackendBlock struct {
	// Instance is the backend's fleet identity (Config.Instance).
	Instance string `json:"instance"`
	// UptimeS is seconds since the server was constructed.
	UptimeS float64 `json:"uptime_s"`
	// CacheHits/CacheMisses are the in-memory compile cache's counters;
	// a fleet router proves routing locality by watching hits rise on
	// exactly the backend a key hashes to.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// StoreHits counts disk-tier hits (0 without a -store-dir).
	StoreHits int64 `json:"store_hits"`
	// Compiles counts outcomes actually compiled.
	Compiles int64 `json:"compiles"`
	// QueueDepth/QueueCapacity describe the async admission queue now;
	// Shed counts submissions rejected with 429.
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Shed          int64 `json:"shed"`
}

// MetricsSnapshot is the /metrics payload: cache, compile, dedup, memory,
// and per-endpoint latency accounting.
type MetricsSnapshot struct {
	// Backend is the fleet-facing digest block, present only when the
	// server was given an instance identity (-backend-id).
	Backend *BackendBlock `json:"backend,omitempty"`
	// UptimeS is seconds since the server was constructed.
	UptimeS float64 `json:"uptime_s"`
	// Workers is the compile-concurrency bound.
	Workers int `json:"workers"`
	// Cache is the shared compile cache's accounting. Its hit count
	// includes requests that attached to an in-flight compile of their
	// key inside the engine.
	Cache cache.Stats `json:"cache"`
	// Compiles counts outcomes actually compiled (cache misses that ran
	// the pipeline), across compile, batch, and experiment requests.
	Compiles int64 `json:"compiles"`
	// Deduped counts /v1/compile requests that joined a concurrent
	// identical request through the singleflight group.
	Deduped int64 `json:"deduped"`
	// Panics counts panics recovered at the compile boundary (the
	// pipeline's per-job compute) and the job boundary (the async
	// Runner). Each failed one job or request instead of the process.
	Panics int64 `json:"panics"`
	// Mem is the process's allocation accounting.
	Mem MemCounters `json:"mem"`
	// Endpoints is the per-endpoint request/latency ledger.
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// Passes is the cumulative per-compiler-pass time/counter ledger
	// across every fresh compile the server has executed.
	Passes map[string]PassMetrics `json:"passes"`
	// Verify is the differential-verification ledger across every
	// fresh verified compile.
	Verify VerifyMetrics `json:"verify"`
	// Incremental is the snapshot store's prefix-reuse and warm-start
	// accounting.
	Incremental IncrementalMetrics `json:"incremental"`
	// Speculation is the speculative-precompilation accounting.
	Speculation SpeculationMetrics `json:"speculation"`
	// Jobs is the async queue's accounting: per-state transition
	// counters, current depth/running/retained gauges, shed and attach
	// counts, and the admission-to-start latency histogram.
	Jobs jobs.Metrics `json:"jobs"`
	// Store is the disk result store's accounting, present only when a
	// store is configured (-store-dir).
	Store *store.Stats `json:"store,omitempty"`
}

// Metrics returns a snapshot of the server's accounting.
func (s *Server) Metrics() MetricsSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := MetricsSnapshot{
		UptimeS:  time.Since(s.start).Seconds(),
		Workers:  s.workers,
		Cache:    s.cache.Stats(),
		Compiles: s.compiles.Load(),
		Deduped:  s.flight.joins.Load(),
		Panics:   s.cache.Panics() + s.jobs.Panics(),
		Mem: MemCounters{
			HeapAllocBytes:  ms.HeapAlloc,
			TotalAllocBytes: ms.TotalAlloc,
			Mallocs:         ms.Mallocs,
			Frees:           ms.Frees,
			NumGC:           ms.NumGC,
			PauseTotalMS:    float64(ms.PauseTotalNs) / 1e6,
		},
		Endpoints: s.endpoints.snapshot(),
		Passes:    s.passes.snapshot(),
		Verify:    s.verifies.snapshot(),
		Jobs:      s.jobs.Metrics(),
	}
	if s.snaps != nil {
		st := s.snaps.Stats()
		snap.Incremental = IncrementalMetrics{
			Enabled:    true,
			Entries:    st.Entries,
			Probes:     st.Probes,
			PrefixHits: st.PrefixHits,
			WarmStarts: st.WarmStarts,
			SavedMS:    st.SavedMS,
		}
	}
	if s.spec != nil {
		snap.Speculation = s.spec.metrics()
	}
	if s.store != nil {
		st := s.store.Stats()
		snap.Store = &st
	}
	if s.instance != "" {
		b := &BackendBlock{
			Instance:      s.instance,
			UptimeS:       snap.UptimeS,
			CacheHits:     int64(snap.Cache.Hits),
			CacheMisses:   int64(snap.Cache.Misses),
			Compiles:      snap.Compiles,
			QueueDepth:    snap.Jobs.Depth,
			QueueCapacity: snap.Jobs.Capacity,
			Shed:          snap.Jobs.Shed,
		}
		if snap.Store != nil {
			b.StoreHits = snap.Store.Hits
		}
		snap.Backend = b
	}
	return snap
}
