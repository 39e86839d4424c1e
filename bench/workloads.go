package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powermove/internal/circuit"
	"powermove/internal/experiments"
	"powermove/internal/pipeline"
	"powermove/internal/qasm"
	"powermove/internal/service"
)

// replayCount is the traced run's sample size per workload.
func replayCount(quick bool) int {
	if quick {
		return 4
	}
	return 40
}

// ---- paper-eval -----------------------------------------------------

// paperEval runs the paper's evaluation offline: each pass regenerates
// Table 3, the five Fig. 6 panels and Fig. 7 on a fresh runner with two
// workers. An op is one of those seven documents.
type paperEval struct {
	cfg      config
	ref      [][]byte // the setup pass's stabilized documents
	outcomes map[pipeline.Key]pipeline.Outcome
	wrong    int // timed passes' documents that differed from ref
	passS    []float64
	stats    pipeline.Stats // runner accounting over the timed passes
}

// passDocs are one pass's seven documents.
type passDocs struct {
	table3 []*experiments.RowResult
	fig6   [][]experiments.Figure6Point
	fig7   []experiments.Figure7Point
}

// pass runs one evaluation pass, reporting each document through rec.
func (p *paperEval) pass(rec func(time.Time, error), onResult func(int, int, pipeline.Result)) (*passDocs, error) {
	ctx := context.Background()
	rn := &experiments.Runner{Jobs: 2, OnResult: onResult}
	d := &passDocs{}
	var err error
	start := time.Now()
	d.table3, err = rn.Table3Rows(ctx)
	if rec(start, err); err != nil {
		return nil, err
	}
	for _, f := range experiments.Figure6Families() {
		start = time.Now()
		pts, err := rn.Figure6Panel(ctx, f)
		if rec(start, err); err != nil {
			return nil, err
		}
		d.fig6 = append(d.fig6, pts)
	}
	start = time.Now()
	d.fig7, err = rn.Figure7Sweep(ctx)
	if rec(start, err); err != nil {
		return nil, err
	}
	st := rn.Stats()
	p.stats.Compiles += st.Compiles
	p.stats.CacheHits += st.CacheHits
	return d, nil
}

// stable renders the pass's documents with the wall-clock fields zeroed.
func (d *passDocs) stable() ([][]byte, error) {
	for _, r := range d.table3 {
		r.Stabilize()
	}
	docs := []any{d.table3}
	for _, pts := range d.fig6 {
		for _, pt := range pts {
			pt.Row.Stabilize()
		}
		docs = append(docs, pts)
	}
	for i := range d.fig7 {
		d.fig7[i].Result.Stabilize()
	}
	docs = append(docs, d.fig7)
	out := make([][]byte, len(docs))
	for i, doc := range docs {
		b, err := service.EncodeJSON(doc)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// setup runs one untimed pass: it warms the process and yields the
// reference documents every timed pass must reproduce.
func (p *paperEval) setup(string) error {
	p.outcomes = map[pipeline.Key]pipeline.Outcome{}
	p.wrong, p.passS, p.stats = 0, nil, pipeline.Stats{}
	d, err := p.pass(func(time.Time, error) {}, func(_, _ int, r pipeline.Result) { p.outcomes[r.Key] = r.Outcome })
	if err != nil {
		return err
	}
	p.stats = pipeline.Stats{}
	p.ref, err = d.stable()
	return err
}

// run compares each pass's documents with the set-up pass's as soon as
// the pass ends. Keeping every pass for the check would make peak memory
// grow with the number of passes a run completes, so that a faster
// program would read as a memory regression. The comparison takes under
// 1% of a pass.
func (p *paperEval) run(deadline time.Time) (*opLog, error) {
	l := &opLog{}
	rec := l.recorder(func(error) {})
	for l.attempted == 0 || time.Now().Before(deadline) {
		start := time.Now()
		d, err := p.pass(rec, nil)
		if err != nil {
			return nil, err
		}
		p.passS = append(p.passS, time.Since(start).Seconds())
		docs, err := d.stable()
		if err != nil {
			return nil, err
		}
		for i := range docs {
			if !bytes.Equal(docs[i], p.ref[i]) {
				p.wrong++
			}
		}
	}
	return l, nil
}

// check counts the documents that differed from the set-up pass's, and
// requires every compiled program to pass the physical checker (each
// evaluation point is recompiled once for this).
func (p *paperEval) check() (int, error) {
	wrong := p.wrong
	for _, job := range paperJobs() {
		art, err := pipeline.CompileJob(job)
		if err == nil {
			err = checkPhysical(art)
		}
		if err != nil {
			wrong++
			fmt.Printf("check %s: %v\n", job.Key, err)
		}
	}
	return wrong, nil
}

// paperJobs returns every distinct evaluation point of a pass.
func paperJobs() []pipeline.Job {
	jobs := append(experiments.Table3Jobs(), experiments.Figure7Jobs()...)
	for _, f := range experiments.Figure6Families() {
		fj, err := experiments.Figure6Jobs(f)
		if err != nil {
			panic(err) // Figure6Families are Fig. 6 panels by definition
		}
		jobs = append(jobs, fj...)
	}
	seen := map[pipeline.Key]bool{}
	var out []pipeline.Job
	for _, j := range jobs {
		if !seen[j.Key] {
			seen[j.Key] = true
			out = append(out, j)
		}
	}
	return out
}

func (p *paperEval) outputs() ([]output, error) {
	var out []output
	for k, o := range p.outcomes {
		if k.Scheme != pipeline.Enola {
			out = append(out, output{o.Fidelity, o.Texe})
		}
	}
	return out, nil
}

// replayInputs are the pass's distinct benchmark instances, compiled
// with storage and by Enola.
func (p *paperEval) replayInputs() []replayInput {
	seen := map[string]bool{}
	var specs []experiments.Spec
	for _, j := range paperJobs() {
		if !seen[j.Key.Bench] {
			seen[j.Key.Bench] = true
			specs = append(specs, specOf(j.Key.Bench))
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].String() < specs[j].String() })
	if p.cfg.quick {
		specs = specs[:replayCount(true)]
	}
	out := make([]replayInput, len(specs))
	for i, sp := range specs {
		sp := sp
		out[i] = replayInput{
			name:   sp.String(),
			gen:    func() *circuit.Circuit { return mustCircuit(sp.Circuit()) },
			scheme: pipeline.WithStorage,
			aods:   1,
			probe: mustJSON(service.JobRequest{Compile: &service.CompileRequest{
				Workload: &service.WorkloadSpec{Family: string(sp.Family), Qubits: sp.Qubits}}}),
		}
	}
	return out
}

// specOf parses an experiments.Spec name ("QFT-60").
func specOf(bench string) experiments.Spec {
	for i := len(bench) - 1; i > 0; i-- {
		if bench[i] == '-' {
			n, err := strconv.Atoi(bench[i+1:])
			if err == nil {
				return experiments.Spec{Family: experiments.Family(bench[:i]), Qubits: n}
			}
		}
	}
	panic("bench: not a spec name: " + bench)
}

// report prints the pass-level view: the wall time of the whole
// evaluation, as a user of cmd/experiments -all sees it.
func (p *paperEval) report(out io.Writer) {
	n := len(p.passS)
	fmt.Fprintf(out, "paper-eval passes: n=%d eval_s_p50=%.4f eval_s_p75=%.4f\n", n, percentile(p.passS, 0.5), percentile(p.passS, 0.75))
}

func (p *paperEval) stack() *stack { return nil }
func (p *paperEval) close()        {}

// ---- the serving workloads -------------------------------------------

// Warm-up inputs come from a fixed seed, so every run warms up with the
// same work and set-up time does not vary with -seed. Their salts differ
// from the measured streams', so no warm-up body repeats a measured one.
const (
	warmSeed    = 0
	sessionSalt = 0xED17
	warmSalt    = 0x5EED
)

// coldCache bounds each backend's LRU on the workloads whose keys are all
// new. They never hit it, and a bound that fills early keeps peak memory
// from growing with the number of ops a run completes.
const coldCache = 1024

// httpBase is the serving tier and the closed-loop clients a serving
// workload drives.
type httpBase struct {
	cfg     config
	tr      *tracer
	st      *stack
	clients []*client
}

func (h *httpBase) start(dir string, cacheSize int) error {
	st, err := newStack(dir, cacheSize, h.tr)
	if err != nil {
		return err
	}
	h.st = st
	h.clients = nil
	for i := 0; i < nClients; i++ {
		h.clients = append(h.clients, newClient(st.front.URL, h.tr))
	}
	return nil
}

func (h *httpBase) stack() *stack { return h.st }

func (h *httpBase) close() {
	for _, c := range h.clients {
		c.close()
	}
	if h.st != nil {
		h.st.close()
		h.st = nil
	}
}

// warm runs n untimed tasks on both clients and fails on any error.
func (h *httpBase) warm(n int, task func(c *client, ci, i int, rec func(time.Time, error))) error {
	var next atomic.Int64
	l, err := closedLoop(h.clients, time.Time{}, &next, int64(n), task)
	if err == nil && l.failed > 0 {
		err = fmt.Errorf("%d of %d warm-up ops failed", l.failed, l.attempted)
	}
	return err
}

// reqID names op i for the spans; untraced runs send no header.
func (h *httpBase) reqID(kind string, i int) string {
	if h.tr == nil {
		return ""
	}
	return kind + "/" + strconv.Itoa(i)
}

// sampled reports whether op i is in the seeded 1-in-n check sample.
func sampled(seed int64, salt uint64, i, n int) bool {
	return newRNG(seed, salt^uint64(i)<<8).intn(n) == 0
}

// serveCold sends every request as a new key: cold compiles through the
// router, each written through to the shared store. With verify set it
// is verify-large: /v1/compile?verify=1 at oracle-sized registers.
type serveCold struct {
	httpBase
	verify    bool
	path      string
	s, warmup stream
	next      atomic.Int64
	mu        sync.Mutex
	kept      map[int][]byte
}

func newServeCold(cfg config, tr *tracer, verify bool) *serveCold {
	w := &serveCold{httpBase: httpBase{cfg: cfg, tr: tr}, verify: verify, path: "/v1/compile"}
	shapes, salt := paperShapes(cfg.quick), uint64(0xC01D)
	if verify {
		shapes, salt, w.path = verifyShapes(cfg.quick), 0x7E51, "/v1/compile?verify=1"
	}
	w.s = stream{shapes: shapes, seed: cfg.seed, salt: salt}
	w.warmup = stream{shapes: shapes, seed: warmSeed, salt: salt + 1}
	return w
}

// quality is the size of the quality set: the stream's first ops. It is
// one cycle, or for verify-large, whose 30 PowerMove points per cycle
// left the geomeans 2% apart from seed to seed, three.
func (w *serveCold) quality() int {
	if w.verify {
		return 3 * len(w.s.shapes)
	}
	return len(w.s.shapes)
}

func (w *serveCold) setup(dir string) error {
	w.next.Store(0)
	w.kept = map[int][]byte{}
	if err := w.start(dir, coldCache); err != nil {
		return err
	}
	n := 64
	if w.verify {
		n = 16
	}
	if w.cfg.quick {
		n = 4
	}
	return w.warm(n, func(c *client, _, i int, rec func(time.Time, error)) {
		start := time.Now()
		_, err := c.compile(w.path, mustJSON(w.warmup.at(i).request()), w.reqID("warm", i))
		rec(start, err)
	})
}

// sampled reports whether op i is in the seeded one-in-50 sample the
// check recompiles through the library.
func (w *serveCold) sampled(i int) bool { return sampled(w.cfg.seed, 0x5A4D, i, 50) }

func (w *serveCold) keep(i int) bool { return w.verify || i < w.quality() || w.sampled(i) }

func (w *serveCold) run(deadline time.Time) (*opLog, error) {
	minOps := int64(w.quality())
	if w.cfg.quick {
		minOps = 0
	}
	return closedLoop(w.clients, deadline, &w.next, minOps, func(c *client, _, i int, rec func(time.Time, error)) {
		body := mustJSON(w.s.at(i).request())
		start := time.Now()
		data, err := c.compile(w.path, body, w.reqID("op", i))
		rec(start, err)
		if err == nil && w.keep(i) {
			w.mu.Lock()
			w.kept[i] = data
			w.mu.Unlock()
		}
	})
}

// check: verify-large requires every response's verify summary to be
// clean; both workloads recompile a seeded 1-in-50 sample through the
// library and compare.
func (w *serveCold) check() (int, error) {
	wrong := 0
	for _, i := range sortedKeys(w.kept) {
		body := w.kept[i]
		var err error
		if w.verify {
			var resp *service.CompileResponse
			if resp, err = decodeResponse(body); err == nil {
				err = checkVerifySummary(resp)
			}
		}
		if err == nil && w.sampled(i) {
			err = checkServed(w.s.at(i), body)
		}
		if err != nil {
			wrong++
			fmt.Printf("check op %d: %v\n", i, err)
		}
	}
	return wrong, nil
}

func (w *serveCold) outputs() ([]output, error) {
	var out []output
	for i := 0; i < w.quality(); i++ {
		body, ok := w.kept[i]
		if !ok || w.s.at(i).Scheme == pipeline.Enola {
			continue
		}
		resp, err := decodeResponse(body)
		if err != nil {
			return nil, err
		}
		out = append(out, output{resp.Fidelity, resp.TexeUS})
	}
	return out, nil
}

func (w *serveCold) replayInputs() []replayInput {
	idx := newRNG(w.cfg.seed, 0x4E91).perm(w.quality())
	if n := replayCount(w.cfg.quick); len(idx) > n {
		idx = idx[:n]
	}
	out := make([]replayInput, len(idx))
	for j, i := range idx {
		out[j] = inputReplay(w.s.at(i), w.verify)
	}
	return out
}

// inputReplay is the replay of one generated request.
func inputReplay(in input, verify bool) replayInput {
	req := in.request()
	req.Verify = verify
	return replayInput{
		name:   in.bench(),
		gen:    in.circuit,
		scheme: in.Scheme,
		aods:   in.AODs,
		probe:  mustJSON(service.JobRequest{Compile: req}),
	}
}

// serveHot draws requests Zipf(s = 1.1) from keys compiled in setup: the
// paper's evaluation points, each under a seeded instance. Each backend's
// LRU holds 32 entries, so the tail is read from the shared store. The
// skew and the LRU size are assumed, not measured: the repository holds
// no trace of real request traffic.
type serveHot struct {
	httpBase
	keys   []input
	bodies [][]byte
	seq    []uint16 // the op sequence: key index per op
	ref    [][]byte // each key's setup response
	next   atomic.Int64
	seen   []map[int]map[string]int // per client: key → response body → count
}

func newServeHot(cfg config, tr *tracer) *serveHot {
	nOps := 1 << 20
	if cfg.quick {
		nOps = 1 << 12
	}
	w := &serveHot{httpBase: httpBase{cfg: cfg, tr: tr}, keys: hotKeys(cfg.seed, cfg.quick)}
	for _, in := range w.keys {
		w.bodies = append(w.bodies, mustJSON(in.request()))
	}
	nKeys := len(w.keys)
	// Which key is the i-th most popular is the same in every run, so the
	// seed moves neither the mix of circuit sizes nor the LRU's hit ratio;
	// it draws the instances and the order of the requests.
	rank := newRNG(warmSeed, 0x4077).perm(nKeys)
	z := rand.NewZipf(rand.New(rand.NewSource(cfg.seed)), 1.1, 1, uint64(nKeys-1))
	w.seq = make([]uint16, nOps)
	for i := range w.seq {
		w.seq[i] = uint16(rank[z.Uint64()])
	}
	return w
}

// hotKeys are serve-hot's keys: every paper point, in a fixed order, under
// an instance drawn from seed.
func hotKeys(seed int64, quick bool) []input {
	shapes := paperShapes(quick)
	keys := make([]input, len(shapes))
	for k, sh := range shapes {
		keys[k] = input{shape: sh, Seed: instanceSeed(seed, 0x4077, k)}
	}
	return keys
}

// setup compiles every key through the router, which leaves each on its
// backend's LRU (the most recent 32) and in the shared store.
func (w *serveHot) setup(dir string) error {
	w.next.Store(0)
	w.seen = make([]map[int]map[string]int, nClients)
	for i := range w.seen {
		w.seen[i] = map[int]map[string]int{}
	}
	if err := w.start(dir, 32); err != nil {
		return err
	}
	w.ref = make([][]byte, len(w.keys))
	return w.warm(len(w.keys), func(c *client, _, i int, rec func(time.Time, error)) {
		start := time.Now()
		data, err := c.compile("/v1/compile", w.bodies[i], w.reqID("key", i))
		rec(start, err)
		w.ref[i] = data
	})
}

func (w *serveHot) run(deadline time.Time) (*opLog, error) {
	return closedLoop(w.clients, deadline, &w.next, 0, func(c *client, ci, i int, rec func(time.Time, error)) {
		k := int(w.seq[i%len(w.seq)])
		start := time.Now()
		data, err := c.compile("/v1/compile", w.bodies[k], w.reqID("op", i))
		rec(start, err)
		if err == nil {
			m := w.seen[ci][k]
			if m == nil {
				m = map[string]int{}
				w.seen[ci][k] = m
			}
			m[string(data)]++
		}
	})
}

// check: every response must equal its key's setup response, apart from
// the cache flag and the measured times.
func (w *serveHot) check() (int, error) {
	wrong := 0
	for _, per := range w.seen {
		for k, bodies := range per {
			for body, n := range bodies {
				if err := sameResponse([]byte(body), w.ref[k]); err != nil {
					wrong += n
					fmt.Printf("check key %d: %v\n", k, err)
				}
			}
		}
	}
	return wrong, nil
}

func (w *serveHot) outputs() ([]output, error) {
	var out []output
	for k, body := range w.ref {
		if w.keys[k].Scheme == pipeline.Enola {
			continue
		}
		resp, err := decodeResponse(body)
		if err != nil {
			return nil, err
		}
		out = append(out, output{resp.Fidelity, resp.TexeUS})
	}
	return out, nil
}

func (w *serveHot) replayInputs() []replayInput {
	idx := newRNG(w.cfg.seed, 0x4E92).perm(len(w.keys))
	if n := replayCount(w.cfg.quick); len(idx) > n {
		idx = idx[:n]
	}
	out := make([]replayInput, len(idx))
	for j, k := range idx {
		out[j] = inputReplay(w.keys[k], false)
	}
	return out
}

// editAsync runs editing sessions as async jobs: each op submits a QASM
// body, follows the job's event stream to its end and fetches the
// result.
type editAsync struct {
	httpBase
	next atomic.Int64
	mu   sync.Mutex
	kept map[int][]byte // by op index session*10 + edit
}

const opsPerSession = editsPerSession + 1

// qualitySessions is the quality set: the first two cycles of sessions.
func (w *editAsync) qualitySessions() int {
	if w.cfg.quick {
		return 1
	}
	return 32
}

func (w *editAsync) setup(dir string) error {
	w.next.Store(0)
	w.kept = map[int][]byte{}
	if err := w.start(dir, coldCache); err != nil {
		return err
	}
	n := 4
	if w.cfg.quick {
		n = 1
	}
	return w.warm(n, func(c *client, _, s int, rec func(time.Time, error)) {
		for k, body := range sessionAt(warmSeed, warmSalt, s, w.cfg.quick).bodies() {
			start := time.Now()
			_, _, err := c.job(body, w.reqID("warm", s*opsPerSession+k))
			rec(start, err)
		}
	})
}

// sampled reports whether op is in the seeded one-in-20 sample the check
// compares with the library.
func (w *editAsync) sampled(op int) bool { return sampled(w.cfg.seed, 0xED1, op, 20) }

func (w *editAsync) keep(op int) bool { return op < w.qualitySessions()*opsPerSession || w.sampled(op) }

func (w *editAsync) run(deadline time.Time) (*opLog, error) {
	return closedLoop(w.clients, deadline, &w.next, int64(w.qualitySessions()), func(c *client, _, s int, rec func(time.Time, error)) {
		for k, body := range sessionAt(w.cfg.seed, sessionSalt, s, w.cfg.quick).bodies() {
			op := s*opsPerSession + k
			start := time.Now()
			data, _, err := c.job(body, w.reqID("op", op))
			rec(start, err)
			if err == nil && w.keep(op) {
				w.mu.Lock()
				w.kept[op] = data
				w.mu.Unlock()
			}
		}
	})
}

// check: a seeded 1-in-20 sample must equal a cold library compile of
// the same QASM.
func (w *editAsync) check() (int, error) {
	lib := service.New(service.Config{Workers: 1, SnapshotCache: -1})
	defer lib.Close()
	wrong := 0
	for _, op := range sortedKeys(w.kept) {
		if !w.sampled(op) {
			continue
		}
		src := qasm.Write(sessionAt(w.cfg.seed, sessionSalt, op/opsPerSession, w.cfg.quick).circuit(op % opsPerSession))
		resp, err := lib.Compile(context.Background(), &service.CompileRequest{QASM: src,
			CompileSpec: service.CompileSpec{Scheme: string(pipeline.WithStorage), Stable: true}})
		if err != nil {
			return 0, fmt.Errorf("library compile of op %d: %w", op, err)
		}
		want, err := service.EncodeJSON(resp)
		if err != nil {
			return 0, err
		}
		if err := sameResponse(w.kept[op], want); err != nil {
			wrong++
			fmt.Printf("check op %d: %v\n", op, err)
		}
	}
	return wrong, nil
}

func (w *editAsync) outputs() ([]output, error) {
	var out []output
	for op := 0; op < w.qualitySessions()*opsPerSession; op++ {
		body, ok := w.kept[op]
		if !ok {
			continue
		}
		resp, err := decodeResponse(body)
		if err != nil {
			return nil, err
		}
		out = append(out, output{resp.Fidelity, resp.TexeUS})
	}
	return out, nil
}

// replayInputs are the first sessions' ops, sent as the QASM the
// workload sends.
func (w *editAsync) replayInputs() []replayInput {
	var out []replayInput
	for op := 0; len(out) < replayCount(w.cfg.quick); op++ {
		sess := sessionAt(w.cfg.seed, sessionSalt, op/opsPerSession, w.cfg.quick)
		k := op % opsPerSession
		src := qasm.Write(sess.circuit(k))
		out = append(out, replayInput{
			name:   fmt.Sprintf("%s/edit%d", sess.name, k),
			gen:    func() *circuit.Circuit { return sess.circuit(k) },
			src:    src,
			scheme: pipeline.WithStorage,
			aods:   1,
			probe:  jobBody(src),
		})
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

func mustCircuit(c *circuit.Circuit, err error) *circuit.Circuit {
	if err != nil {
		panic(err) // paper specs name known families
	}
	return c
}
