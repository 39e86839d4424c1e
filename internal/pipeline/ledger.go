package pipeline

import (
	"sync"
	"sync/atomic"
	"time"

	"powermove/internal/compiler"
	"powermove/internal/verify"
)

// The compile cache's ledgers: every fresh compile that succeeds is
// observed once, in Cache.compute, whichever request, job, batch item or
// experiment point started it and whether or not any of them still
// waits for it.

// PassMetrics is the cumulative accounting of one compiler pass across
// every fresh compile through a Cache (cache hits and second-tier reads
// don't recount the compile that produced them). Calls and counters are
// monotone non-decreasing, so two scrapes bracket the pass-level work a
// request caused.
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
// compile through a Cache: how many programs were checked, how many
// verified clean, and the total violations found. Cache hits reuse a
// verification already counted. A non-zero Violations is an alarm — it
// means a compiled program broke a physical constraint or diverged from
// its circuit.
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
