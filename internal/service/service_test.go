package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powermove/internal/circuit"
	"powermove/internal/experiments"
)

// qftRequest is the tiny evaluation point the tests compile: QFT is
// seedless, so its outcome is fully deterministic.
func qftRequest(n int) *CompileRequest {
	return &CompileRequest{
		Workload:    &WorkloadSpec{Family: "QFT", Qubits: n},
		CompileSpec: CompileSpec{Scheme: "with-storage", Stable: true},
	}
}

// TestCompileAndCacheHit checks the basic contract: a fresh request
// compiles, an identical repeat is a cache hit with the same payload,
// and the metrics ledger records exactly one compile.
func TestCompileAndCacheHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	cold, err := s.Compile(context.Background(), qftRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Error("cold request reported cached")
	}
	if cold.Bench != "QFT-6" || cold.Qubits != 6 || cold.Fidelity <= 0 || cold.Fidelity > 1 {
		t.Errorf("implausible response %+v", cold)
	}

	warm, err := s.Compile(context.Background(), qftRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("repeat request missed the cache")
	}
	if warm.Fidelity != cold.Fidelity || warm.TexeUS != cold.TexeUS || warm.Stages != cold.Stages {
		t.Errorf("warm response diverged: cold %+v, warm %+v", cold, warm)
	}

	m := s.Metrics()
	if m.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1", m.Compiles)
	}
	if m.Cache.Hits < 1 || m.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 miss and >= 1 hit", m.Cache)
	}
}

// TestSingleflightDedup drives N identical concurrent requests into a
// server whose compiles block in their circuit generator until every
// request has arrived, and asserts exactly one underlying compile ran:
// one request started it, and N-1 joined it in the compile cache and
// share its outcome.
func TestSingleflightDedup(t *testing.T) {
	const n = 8
	s := New(Config{Workers: n}) // workers don't bound dedup; leave room
	defer s.Close()
	var calls atomic.Int32
	release := blockingCompile(s, &calls)

	var wg sync.WaitGroup
	responses := make([]*CompileResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = s.Compile(context.Background(), qftRequest(6))
		}(i)
	}

	// Release the compile only after the other n-1 requests have joined
	// it, so every one of them exercises dedup.
	waitFor(t, func() bool { return s.Metrics().Deduped == n-1 })
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("%d underlying compiles for %d identical concurrent requests, want 1", calls.Load(), n)
	}
	var starters, joiners int
	for _, r := range responses {
		if r.Fidelity != responses[0].Fidelity || r.Stages != responses[0].Stages {
			t.Fatalf("responses diverged: %+v vs %+v", r, responses[0])
		}
		if r.Cached {
			joiners++
		} else {
			starters++
		}
	}
	if starters != 1 || joiners != n-1 {
		t.Errorf("starters = %d, joiners = %d; want 1 and %d", starters, joiners, n-1)
	}
	if m := s.Metrics(); m.Deduped != n-1 || m.Compiles != 1 {
		t.Errorf("Deduped = %d, Compiles = %d; want %d and 1", m.Deduped, m.Compiles, n-1)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDistinctRequestsDontDedup checks the inverse: concurrent requests
// with different keys each compile.
func TestDistinctRequestsDontDedup(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	var mu sync.Mutex
	benches := map[string]int{}
	wrapGenerators(s, func(bench string, gen func() (*circuit.Circuit, error)) (*circuit.Circuit, error) {
		mu.Lock()
		benches[bench]++
		mu.Unlock()
		return gen()
	})
	var wg sync.WaitGroup
	for _, n := range []int{4, 6, 8} {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if _, err := s.Compile(context.Background(), qftRequest(n)); err != nil {
				t.Error(err)
			}
		}(n)
	}
	wg.Wait()
	if len(benches) != 3 {
		t.Errorf("saw %d distinct compiles (%v), want 3", len(benches), benches)
	}
	if m := s.Metrics(); m.Deduped != 0 || m.Compiles != 3 {
		t.Errorf("Deduped = %d, Compiles = %d for distinct requests; want 0 and 3", m.Deduped, m.Compiles)
	}
}

// TestValidation covers the request-validation surface.
func TestValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	cases := []struct {
		name string
		req  CompileRequest
	}{
		{"empty", CompileRequest{}},
		{"both sources", CompileRequest{QASM: "x", Workload: &WorkloadSpec{Family: "QFT", Qubits: 4}}},
		{"bad scheme", CompileRequest{Workload: &WorkloadSpec{Family: "QFT", Qubits: 4}, CompileSpec: CompileSpec{Scheme: "turbo"}}},
		{"bad aods", CompileRequest{Workload: &WorkloadSpec{Family: "QFT", Qubits: 4}, CompileSpec: CompileSpec{AODs: MaxAODs + 1}}},
		{"negative aods", CompileRequest{Workload: &WorkloadSpec{Family: "QFT", Qubits: 4}, CompileSpec: CompileSpec{AODs: -1}}},
		{"enola multi-aod", CompileRequest{Workload: &WorkloadSpec{Family: "QFT", Qubits: 4}, CompileSpec: CompileSpec{Scheme: "enola", AODs: 2}}},
		{"unknown family", CompileRequest{Workload: &WorkloadSpec{Family: "nope", Qubits: 4}}},
		{"tiny workload", CompileRequest{Workload: &WorkloadSpec{Family: "QFT", Qubits: 1}}},
		{"bad qasm", CompileRequest{QASM: "OPENQASM 3.0;"}},
		{"unknown grouping", CompileRequest{Workload: &WorkloadSpec{Family: "QFT", Qubits: 4}, CompileSpec: CompileSpec{Grouping: "turbo"}}},
		{"enola grouping", CompileRequest{Workload: &WorkloadSpec{Family: "QFT", Qubits: 4}, CompileSpec: CompileSpec{Scheme: "enola", Grouping: "distance"}}},
		{"enola grouping merged", CompileRequest{Workload: &WorkloadSpec{Family: "QFT", Qubits: 4}, CompileSpec: CompileSpec{Scheme: "enola", Grouping: "merged"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Compile(context.Background(), &tc.req)
			if err == nil {
				t.Fatal("validation accepted a bad request")
			}
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("error %v is not a RequestError", err)
			}
		})
	}
}

// TestSeededWorkloadRequests: a workload request that carries a seed
// compiles the circuit experiments.Family.Circuit generates from that
// seed, under the bench name "family-n@seed", for every family; an
// unknown family is a 400 that names it.
func TestSeededWorkloadRequests(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 1})
	var mu sync.Mutex
	compiled := map[string]*circuit.Circuit{}
	wrapGenerators(s, func(bench string, gen func() (*circuit.Circuit, error)) (*circuit.Circuit, error) {
		c, err := gen()
		mu.Lock()
		compiled[bench] = c
		mu.Unlock()
		return c, err
	})
	const n, seed = 8, 11
	type tc struct {
		family experiments.Family
		status int
	}
	var cases []tc
	for _, f := range experiments.Families() {
		cases = append(cases, tc{f, http.StatusOK})
	}
	cases = append(cases, tc{"QAOA-regular5", http.StatusBadRequest})
	for _, c := range cases {
		t.Run(string(c.family), func(t *testing.T) {
			body := fmt.Sprintf(`{"workload":{"family":%q,"qubits":%d,"seed":%d},"stable":true}`, c.family, n, seed)
			resp, raw := postJSON(t, ts.URL+"/v1/compile", body)
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, c.status, raw)
			}
			if c.status != http.StatusOK {
				if !strings.Contains(string(raw), string(c.family)) {
					t.Errorf("rejection %s does not name the family", raw)
				}
				return
			}
			var doc CompileResponse
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			bench := fmt.Sprintf("%s-%d@%d", c.family, n, seed)
			if doc.Bench != bench {
				t.Errorf("bench = %q, want %q", doc.Bench, bench)
			}
			want, err := c.family.Circuit(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got := compiled[bench]
			mu.Unlock()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("compiled %v, want experiments.Family.Circuit(%d, %d) = %v", got, n, seed, want)
			}
		})
	}
}

// TestPassBreakdownAndLedger: responses carry the compiler's per-pass
// breakdown (durations zeroed under Stable, calls/counters intact), and
// every fresh compile advances the cumulative /metrics pass ledger
// monotonically while cache hits leave it unchanged.
func TestPassBreakdownAndLedger(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	resp, err := s.Compile(context.Background(), qftRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Passes) == 0 {
		t.Fatal("compile response has no pass breakdown")
	}
	byName := map[string]int{}
	for _, p := range resp.Passes {
		if p.Duration != 0 {
			t.Errorf("stable response carries a non-zero duration for pass %q", p.Pass)
		}
		byName[p.Pass] = p.Calls
	}
	if byName["route"] != resp.Stages {
		t.Errorf("route calls = %d, response reports %d stages", byName["route"], resp.Stages)
	}

	first := s.Metrics().Passes
	if len(first) == 0 {
		t.Fatal("metrics pass ledger empty after a compile")
	}
	if first["route"].Counters["moves"] != int64(resp.Moves) {
		t.Errorf("ledger route moves = %d, response reports %d", first["route"].Counters["moves"], resp.Moves)
	}

	// A cache hit must not recount the compile that produced it.
	if _, err := s.Compile(context.Background(), qftRequest(6)); err != nil {
		t.Fatal(err)
	}
	after := s.Metrics().Passes
	if after["route"].Calls != first["route"].Calls {
		t.Errorf("cache hit advanced the ledger: %d -> %d route calls", first["route"].Calls, after["route"].Calls)
	}

	// A fresh point advances every touched pass monotonically.
	if _, err := s.Compile(context.Background(), qftRequest(8)); err != nil {
		t.Fatal(err)
	}
	grown := s.Metrics().Passes
	for name, before := range first {
		now := grown[name]
		if now.Calls < before.Calls || now.TotalMS < before.TotalMS {
			t.Errorf("pass %q regressed: %+v -> %+v", name, before, now)
		}
		for k, v := range before.Counters {
			if now.Counters[k] < v {
				t.Errorf("pass %q counter %q regressed: %d -> %d", name, k, v, now.Counters[k])
			}
		}
	}
}

// TestGroupingSubstitution: the grouping field swaps the zoned grouping
// pass, is part of the cache identity, and echoes in the response.
func TestGroupingSubstitution(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	base, err := s.Compile(context.Background(), qftRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	req := qftRequest(6)
	req.Grouping = "in-order"
	alt, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if alt.Cached {
		t.Error("non-default grouping was served from the default's cache entry")
	}
	if alt.Grouping != "in-order" {
		t.Errorf("response grouping = %q, want in-order", alt.Grouping)
	}
	if base.Grouping != "" {
		t.Errorf("default response grouping = %q, want empty", base.Grouping)
	}

	// An explicit "merged" is the default and shares its cache entry.
	req = qftRequest(6)
	req.Grouping = "merged"
	merged, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Cached {
		t.Error(`explicit "merged" did not normalize onto the default cache entry`)
	}
}

// TestQASMCompile checks the inline-QASM path end to end and that its
// cache key is the source digest: the same source twice is a hit, a
// different source is not.
func TestQASMCompile(t *testing.T) {
	const src = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cz q[0], q[1];
cz q[2], q[3];
cz q[0], q[2];
`
	s := New(Config{Workers: 1})
	defer s.Close()
	req := &CompileRequest{QASM: src, CompileSpec: CompileSpec{Scheme: "non-storage", Stable: true}}
	cold, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Qubits != 4 || cold.Scheme != "non-storage" || cold.Cached {
		t.Errorf("unexpected response %+v", cold)
	}
	warm, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("identical QASM source missed the cache")
	}
	other, err := s.Compile(context.Background(), &CompileRequest{QASM: src + "cz q[1], q[3];\n", CompileSpec: CompileSpec{Scheme: "non-storage", Stable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached || other.Bench == cold.Bench {
		t.Errorf("different source shared a cache entry: %q vs %q", other.Bench, cold.Bench)
	}
}

// TestBatch checks ordering, per-item errors, and engine dedup across a
// batch.
func TestBatch(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	req := &BatchRequest{Requests: []CompileRequest{
		*qftRequest(6),
		{Workload: &WorkloadSpec{Family: "bogus", Qubits: 4}},
		*qftRequest(6), // duplicate of item 0: one compile, one hit
		{Workload: &WorkloadSpec{Family: "VQE", Qubits: 4}, CompileSpec: CompileSpec{Scheme: "enola", Stable: true}},
	}}
	resp, err := s.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results, want 4", len(resp.Results))
	}
	if resp.Results[0].Result == nil || resp.Results[0].Result.Bench != "QFT-6" {
		t.Errorf("item 0 = %+v", resp.Results[0])
	}
	if resp.Results[0].Result.Cached {
		t.Error("item 0 (first occurrence of a batch-compiled key) must report cached=false")
	}
	if resp.Results[1].Error == "" || resp.Results[1].Result != nil {
		t.Errorf("item 1 should carry a validation error, got %+v", resp.Results[1])
	}
	if resp.Results[2].Result == nil || !resp.Results[2].Result.Cached {
		t.Errorf("item 2 (duplicate) should be a cache hit, got %+v", resp.Results[2])
	}
	if resp.Results[3].Result == nil || resp.Results[3].Result.Scheme != "enola" {
		t.Errorf("item 3 = %+v", resp.Results[3])
	}
	if resp.Stats.Compiles != 2 {
		t.Errorf("batch compiled %d jobs, want 2", resp.Stats.Compiles)
	}

	if _, err := s.Batch(context.Background(), &BatchRequest{}); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestStableDeterminism checks the reproducibility contract the CI smoke
// test relies on: two cold servers produce byte-identical stable
// documents for the same request.
func TestStableDeterminism(t *testing.T) {
	encode := func() string {
		s := New(Config{Workers: 3})
		defer s.Close()
		resp, err := s.Compile(context.Background(), qftRequest(8))
		if err != nil {
			t.Fatal(err)
		}
		out, err := EncodeJSON(resp)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	a, b := encode(), encode()
	if a != b {
		t.Errorf("stable documents diverged:\n%s\nvs\n%s", a, b)
	}
	var decoded CompileResponse
	if err := json.Unmarshal([]byte(a), &decoded); err != nil {
		t.Fatalf("document does not round-trip: %v", err)
	}
	if decoded.TcompMS != 0 {
		t.Errorf("stable document carries tcomp_ms = %v", decoded.TcompMS)
	}
}

// TestCacheEviction checks the service honors its LRU bound: with a
// capacity of 1, a third distinct request evicts the first, and the
// eviction counter says so.
func TestCacheEviction(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 1})
	defer s.Close()
	for _, n := range []int{4, 6, 4} {
		if _, err := s.Compile(context.Background(), qftRequest(n)); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.Cache.Evictions < 1 {
		t.Errorf("cache stats = %+v; want at least one eviction at capacity 1", m.Cache)
	}
	if m.Cache.Size > 1 {
		t.Errorf("cache size = %d exceeds capacity 1", m.Cache.Size)
	}
	if m.Compiles != 3 { // the second QFT-4 recompiled after eviction
		t.Errorf("Compiles = %d, want 3 (eviction forces recompile)", m.Compiles)
	}
}

// TestExperimentUnknownIDs checks the experiments surface rejects junk.
func TestExperimentUnknownIDs(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, tc := range [][2]string{{"table", "9"}, {"figure", "6z"}, {"plot", "1"}} {
		if _, err := s.Experiment(context.Background(), tc[0], tc[1], true); err == nil {
			t.Errorf("Experiment(%s, %s) accepted", tc[0], tc[1])
		}
	}
	// Table 1 is static and fast: a sanity pass through the happy path.
	doc, err := s.Experiment(context.Background(), "table", "1", true)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Table == nil {
		t.Error("table 1 document is empty")
	}
}
