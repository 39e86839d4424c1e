package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powermove/internal/isa"
	"powermove/internal/pipeline"
	"powermove/internal/service"
	"powermove/internal/verify"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode: the workloads, metrics, units, directions
// and bounds in BENCHMARK.json are the ones this package reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Workloads, workloadSpecs) {
		t.Errorf("workloads:\n json %+v\n code %+v", b.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code measures %d", b.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range b.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]metricSpec{}, b.EndToEnd...), b.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %+v: bad name, unit or direction, or used twice", m)
		}
		seen[m.Name] = true
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.Workloads) != 5 || len(b.PerLayer) > 128 || b.EndToEnd[0].Name != "setup_s" {
		t.Errorf("%d workloads, %d per-layer metrics, first end-to-end %s", len(b.Workloads), len(b.PerLayer), b.EndToEnd[0].Name)
	}
}

// TestGeneratedRequestsAreValid: every request the generators build for
// seeds 1-20, and for the warm-up seed, passes the service's validation
// and generates a valid circuit. An invalid one (an odd QAOA-regular3
// size) panics a pipeline worker and takes the whole serving tier down
// with it.
func TestGeneratedRequestsAreValid(t *testing.T) {
	for seed := int64(warmSeed); seed <= 20; seed++ {
		var ins []input
		for _, s := range []stream{
			{shapes: paperShapes(false), seed: seed, salt: 0xC01D},
			{shapes: verifyShapes(false), seed: seed, salt: 0x7E51},
		} {
			for i := range s.shapes {
				ins = append(ins, s.at(i))
			}
		}
		for i, in := range append(ins, hotKeys(seed, false)...) {
			if _, err := in.request().RoutingKey(); err != nil {
				t.Fatalf("seed %d input %d %s: %v", seed, i, in.bench(), err)
			}
			if c := in.circuit(); c.Qubits != in.Qubits || c.Validate() != nil {
				t.Fatalf("seed %d input %d %s: bad circuit", seed, i, in.bench())
			}
		}
		for s := 0; s < 16; s++ {
			for k, body := range sessionAt(seed, sessionSalt, s, false).bodies() {
				var req service.JobRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Fatal(err)
				}
				if _, err := req.RoutingKey(); err != nil {
					t.Fatalf("seed %d session %d op %d: %v", seed, s, k, err)
				}
			}
		}
	}
}

// TestSessionBodiesAreDistinct: each edit drops a different gate, so no
// two bodies of a session repeat.
func TestSessionBodiesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for s := 0; s < 4; s++ {
		for _, b := range sessionAt(1, sessionSalt, s, false).bodies() {
			if seen[string(b)] {
				t.Fatalf("session %d repeats a body", s)
			}
			seen[string(b)] = true
		}
	}
}

// served compiles in through a fresh in-process service and returns the
// response document.
func served(t *testing.T, in input, verifyIt bool) []byte {
	t.Helper()
	srv := service.New(service.Config{Workers: 1})
	defer srv.Close()
	req := in.request()
	req.Verify = verifyIt
	resp, err := srv.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := service.EncodeJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// edit decodes body, applies f and re-encodes it.
func edit(t *testing.T, body []byte, f func(*service.CompileResponse)) []byte {
	t.Helper()
	resp, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	f(resp)
	out, err := service.EncodeJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// firstSampled returns the first op of w's stream in its check sample.
func firstSampled(w *serveCold) int {
	for i := 0; ; i++ {
		if w.sampled(i) {
			return i
		}
	}
}

// TestTamperedOutputsCountAsFailed feeds each workload's check a tampered
// output and expects one failed op per tampered response.
func TestTamperedOutputsCountAsFailed(t *testing.T) {
	cfg := config{seed: 1, quick: true}

	t.Run("changed fidelity", func(t *testing.T) {
		w := newServeCold(cfg, nil, false)
		i := firstSampled(w)
		good := served(t, w.s.at(i), false)
		for _, tc := range []struct {
			body []byte
			want int
		}{
			{good, 0},
			{edit(t, good, func(r *service.CompileResponse) { r.Fidelity *= 1 - 1e-9 }), 1},
		} {
			w.kept = map[int][]byte{i: tc.body}
			if got, err := w.check(); err != nil || got != tc.want {
				t.Errorf("check = %d, %v; want %d", got, err, tc.want)
			}
		}
	})

	t.Run("response served under the wrong key", func(t *testing.T) {
		w := newServeHot(cfg, nil)
		w.ref = make([][]byte, len(w.keys))
		w.ref[0], w.ref[1] = served(t, w.keys[0], false), served(t, w.keys[1], false)
		cached := edit(t, w.ref[0], func(r *service.CompileResponse) { r.Cached, r.TcompMS = true, 0 })
		w.seen = []map[int]map[string]int{
			{0: {string(cached): 5}},
			{0: {string(w.ref[1]): 3}},
		}
		if got, err := w.check(); err != nil || got != 3 {
			t.Errorf("check = %d, %v; want 3 (the wrong-key answers only)", got, err)
		}
		in := w.keys[0]
		ref, _, err := libraryReference(in)
		if err != nil {
			t.Fatal(err)
		}
		other, err := decodeResponse(w.ref[1])
		if err != nil {
			t.Fatal(err)
		}
		if checkOutcome(in, other, ref) == nil {
			t.Error("checkOutcome accepted another key's response")
		}
	})

	t.Run("unclean verify summary", func(t *testing.T) {
		w := newServeCold(cfg, nil, true)
		i := firstSampled(w) + 1 // outside the library sample: only the summary is checked
		good := served(t, w.s.at(i), true)
		unclean := edit(t, good, func(r *service.CompileResponse) {
			r.Verify = &verify.Summary{Violations: 1, Messages: []string{"gate-loss: tampered"}}
		})
		missing := edit(t, good, func(r *service.CompileResponse) { r.Verify = nil })
		w.kept = map[int][]byte{i: good, i + 1000: unclean, i + 2000: missing}
		if got, err := w.check(); err != nil || got != 2 {
			t.Errorf("check = %d, %v; want 2", got, err)
		}
	})

	t.Run("CZ moved into another block", func(t *testing.T) {
		in := input{shape: shape{Family: "VQE", Qubits: 10, Scheme: pipeline.WithStorage, AODs: 1}, Seed: 3}
		_, art, err := libraryReference(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkProgram(art); err != nil {
			t.Fatalf("untampered program: %v", err)
		}
		// VQE's two CZ blocks: the first pulse belongs to the first, the
		// last pulse to the second.
		prog := *art.Program
		prog.Instr = append([]isa.Instruction(nil), art.Program.Instr...)
		first, last := -1, -1
		for i, ins := range prog.Instr {
			if _, ok := ins.(isa.Rydberg); ok {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		a, b := prog.Instr[first].(isa.Rydberg), prog.Instr[last].(isa.Rydberg)
		b.Pairs = append(slices.Clip(b.Pairs), a.Pairs[0])
		a.Pairs = a.Pairs[1:]
		prog.Instr[first], prog.Instr[last] = a, b
		art.Program = &prog
		if checkProgram(art) == nil {
			t.Error("checkProgram accepted a program with a CZ moved into another block")
		}
	})
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1000000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
		ok   bool
	}{
		{[]float64{1, 4}, 2, true},
		{[]float64{2, 2, 2}, 2, true},
		{[]float64{0.5, 2}, 1, true},
		{[]float64{1e-300, 1e300}, 1, true},
		{nil, 0, false},
		{[]float64{1, 0}, 0, false},
		{[]float64{-1}, 0, false},
		{[]float64{math.Inf(1)}, 0, false},
		{[]float64{math.NaN()}, 0, false},
	} {
		got, err := geomean(tc.xs)
		if (err == nil) != tc.ok || (tc.ok && math.Abs(got-tc.want) > 1e-12*tc.want) {
			t.Errorf("geomean(%v) = %v, %v; want %v (ok %v)", tc.xs, got, err, tc.want, tc.ok)
		}
	}
}

// TestConsecutiveFailuresAbort: a workload whose every op fails stops
// after maxFailures in a row with a clear error instead of running on.
func TestConsecutiveFailuresAbort(t *testing.T) {
	var next atomic.Int64
	l, err := closedLoop(make([]*client, nClients), time.Now().Add(time.Hour), &next, 0,
		func(_ *client, _, _ int, rec func(time.Time, error)) { rec(time.Now(), context.Canceled) })
	if err == nil || !strings.Contains(err.Error(), "consecutive failed ops") {
		t.Fatalf("err = %v", err)
	}
	if l.failed < maxFailures || l.failed != l.attempted {
		t.Errorf("attempted %d, failed %d", l.attempted, l.failed)
	}
}

// TestDeadBackendsFailFast: with both backends gone, the router answers
// 502 at once and the workload aborts rather than hang.
func TestDeadBackendsFailFast(t *testing.T) {
	w := newServeCold(config{seed: 1, quick: true}, nil, false)
	if err := w.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, srv := range w.st.servers {
		srv.Close()
	}
	start := time.Now()
	if _, err := w.run(start.Add(time.Minute)); err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("run over dead backends: %v", err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("took %v to give up", d)
	}
}

func TestCompare(t *testing.T) {
	// side returns one document per ops_per_s value, all other metrics 1.
	side := func(cpus int, ops ...float64) []document {
		var docs []document
		for _, v := range ops {
			metrics := map[string]metric{}
			for _, m := range endToEnd {
				metrics[m.Name] = metric{Value: 1, Unit: m.Unit}
			}
			metrics["ops_per_s"] = metric{Value: v, Unit: "ops/s"}
			d := document{Host: host{NumCPU: cpus, GOMAXPROCS: cpus}, Workloads: map[string]*result{}}
			for _, w := range workloadSpecs {
				d.Workloads[w.Name] = &result{Correct: true, Attempted: 1, Metrics: metrics}
			}
			docs = append(docs, d)
		}
		return docs
	}
	base := side(2, 100, 102, 98)
	for _, tc := range []struct {
		name string
		b    []document
		want string
	}{
		{"10% slower", side(2, 90, 91, 89), within},
		{"30% slower", side(2, 70, 71, 69), outside},
		{"twice as fast", side(2, 200, 198, 202), within},
		{"a side too noisy to judge", side(2, 60, 90, 120), unresolved},
		{"noisy, but every run faster", side(2, 110, 160, 220), within},
		{"one document a side", side(2, 70), unresolved},
	} {
		var out bytes.Buffer
		if got, err := compare(base, tc.b, &out); err != nil || got != tc.want {
			t.Errorf("%s: verdict %q, %v; want %q\n%s", tc.name, got, err, tc.want, out.String())
		}
	}
	missing := side(2, 100, 100, 100)
	missing[1] = document{Host: missing[1].Host, Workloads: map[string]*result{}}
	if got, _ := compare(base, missing, io.Discard); got != outside {
		t.Errorf("a document without the workloads: verdict %q", got)
	}
	if _, err := compare(base, side(4, 100, 100, 100), io.Discard); err == nil {
		t.Error("compared documents from hosts with different CPU counts")
	}
}

// TestSpread: the quartile spread is Python's statistics.quantiles(xs,
// n=4) distance over the median, as the acceptance procedure computes it.
func TestSpread(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, 0.3793103448275862},
		{[]float64{1, 2}, 1.0},
		{[]float64{5, 1, 3}, 1.3333333333333333},
		{[]float64{2.0, 2.5, 3.1, 2.2, 9.0}, 1.58},
		{[]float64{7, 7, 7, 7}, 0},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// TestQuickRun runs every workload in quick mode, untraced and traced,
// and checks that each prints every metric BENCHMARK.json lists for its
// mode, with its unit, and a well-formed result line.
func TestQuickRun(t *testing.T) {
	b := loadBenchmarkJSON(t)
	trace := t.TempDir()
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.3, trace: traced, traceOut: trace, quick: true, dir: t.TempDir()}
			var out bytes.Buffer
			res, err := runWorkload(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			printResult(&out, w.Name, res)
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			printed := map[string]string{}
			var last string
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				last = sc.Text()
				if f := strings.Fields(last); len(f) == 4 && f[0] == w.Name {
					printed[f[1]] = f[3]
				}
			}
			for _, m := range want {
				if printed[m.Name] != m.Unit {
					t.Errorf("%s trace=%v: %s printed with unit %q, want %q", w.Name, traced, m.Name, printed[m.Name], m.Unit)
				}
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(last), &line); err != nil || len(line) != 4 {
				t.Fatalf("%s: last line %q is not the result object", w.Name, last)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d, %d metrics",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics))
			}
		}
	}
}
