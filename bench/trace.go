package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/pipeline"
	"powermove/internal/qasm"
	"powermove/internal/service"
	"powermove/internal/sim"
	"powermove/internal/store"
	"powermove/internal/verify"
)

// A traced run records spans from the benchmark's own code, around calls
// into each layer's public API: the client's request, the router's
// handler (fleet.proxy), the router's transport to a backend
// (fleet.forward), and each backend's handler (service.http). The
// X-Bench-Req header joins the spans of one request. Spans stay in
// memory and are written out when the run ends.

// span is one timed interval, in nanoseconds since the tracer started.
type span struct {
	Name  string `json:"name"`
	Req   string `json:"req"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer collects spans while on. A nil tracer records nothing and adds
// no wrappers, which is how the end-to-end runs use it.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	queue []float64 // jobs' admission-to-start waits, ms
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(name, req string, start, end time.Time) {
	if !t.enabled() || req == "" {
		return
	}
	s := span{Name: name, Req: req, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) addQueueWait(ms float64) {
	t.mu.Lock()
	t.queue = append(t.queue, ms)
	t.mu.Unlock()
}

// handler wraps h in a span named name.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, r.Header.Get(reqHeader), start, time.Now())
	})
}

// transport wraps the router's transport so each forwarded request is a
// fleet.forward span, ending when the router closes the backend's body.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &timingTransport{t: t, base: base}
}

type timingTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	req := r.Header.Get(reqHeader)
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.add("fleet.forward", req, start, time.Now())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { tt.t.add("fleet.forward", req, start, time.Now()) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span named parent, its duration minus the
// part of it that spans named child of the same request cover, in ms.
// With no child name it returns the plain durations.
func selfTimes(spans []span, parent, child string) []float64 {
	kids := make(map[string][]span)
	if child != "" {
		for _, s := range spans {
			if s.Name == child {
				kids[s.Req] = append(kids[s.Req], s)
			}
		}
	}
	var out []float64
	for _, p := range spans {
		if p.Name != parent {
			continue
		}
		var iv [][2]int64
		for _, c := range kids[p.Req] {
			a, b := max(c.Start, p.Start), min(c.End, p.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		out = append(out, float64(p.End-p.Start-covered(iv))/1e6)
	}
	return out
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// replayInput is one sampled input of a workload, replayed through the
// inner layers' public functions in the order a request meets them.
type replayInput struct {
	name string
	// gen generates the circuit (workload.*, experiments.Spec.Circuit).
	gen func() *circuit.Circuit
	// src is the QASM the workload sends, when it sends QASM; the
	// replay then compiles the parsed circuit. Otherwise the generated
	// circuit is rendered with qasm.Write for the parse timing.
	src    string
	scheme pipeline.Scheme
	aods   int
	// probe is the POST /v1/jobs body that sends the input through the
	// serving tier once.
	probe []byte
}

// layers are the inner-layer samples of one replay.
type layers struct {
	zonedSelf, enolaSelf     map[string]float64 // summed self ms per pass
	zonedTotal, enolaTotal   []float64
	stages, moves, coll, bat int
	slowestMS                float64
	slowestKey               string
	gen, parse, simMS        []float64
	physical, equivalence    []float64
	encode, put, get         []float64
	amps, violations         int64
}

// timed runs f inside a span of the replay and returns its ms.
func timed(tr *tracer, name, req string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	tr.add(name, req, start, end)
	return ms(end.Sub(start))
}

// replay sends every input once through circuit generation and QASM
// parsing, both compiler pipelines (the input's PowerMove scheme, with
// storage for Enola inputs, and the Enola baseline), the executor, the
// verifier, the service's encoder and a store the benchmark owns.
func replay(ins []replayInput, dir string, tr *tracer) (*layers, error) {
	st, err := store.Open(filepath.Join(dir, "replay-store"), 0)
	if err != nil {
		return nil, err
	}
	enola, err := compiler.Enola(compiler.EnolaConfig{Seed: 1})
	if err != nil {
		return nil, err
	}
	L := &layers{zonedSelf: map[string]float64{}, enolaSelf: map[string]float64{}}
	for i, in := range ins {
		req := "replay/" + strconv.Itoa(i)
		var c *circuit.Circuit
		L.gen = append(L.gen, timed(tr, "workload.gen", req, func() { c = in.gen() }))
		src := in.src
		if src == "" {
			src = qasm.Write(c)
		}
		var prog *qasm.Program
		L.parse = append(L.parse, timed(tr, "qasm.parse", req, func() { prog, err = qasm.Parse(in.name, src) }))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", in.name, err)
		}
		if in.src != "" {
			c = prog.Circuit
		}

		scheme := in.scheme
		if scheme == pipeline.Enola {
			scheme = pipeline.WithStorage
		}
		zoned, err := compiler.Zoned(compiler.ZonedConfig{UseStorage: scheme == pipeline.WithStorage, Seed: 1})
		if err != nil {
			return nil, err
		}
		var (
			zres *compiler.Result
			zx   *sim.Result
		)
		for _, run := range []struct {
			p     *compiler.Pipeline
			aods  int
			self  map[string]float64
			total *[]float64
			key   string
		}{
			{zoned, in.aods, L.zonedSelf, &L.zonedTotal, fmt.Sprintf("%s/%s/%daod", in.name, scheme, in.aods)},
			{enola, 1, L.enolaSelf, &L.enolaTotal, fmt.Sprintf("%s/enola/1aod", in.name)},
		} {
			hw := arch.New(arch.Config{Qubits: c.Qubits, AODs: run.aods})
			var res *compiler.Result
			d := timed(tr, "compiler."+run.p.Name(), req, func() { res, err = run.p.Run(c, hw) })
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", run.key, err)
			}
			*run.total = append(*run.total, d)
			for _, ps := range res.Stats.Passes {
				run.self[ps.Pass] += ms(ps.Duration)
			}
			if d > L.slowestMS {
				L.slowestMS, L.slowestKey = d, run.key
			}
			var x *sim.Result
			L.simMS = append(L.simMS, timed(tr, "sim.execute", req, func() { x, err = sim.Execute(res.Program, res.Initial) }))
			if err != nil {
				return nil, fmt.Errorf("replay %s: sim: %w", run.key, err)
			}
			if zres == nil {
				zres, zx = res, x
			}
		}
		L.stages += zres.Stats.Stages
		L.moves += zres.Stats.Moves
		L.coll += zres.Stats.CollMoves
		L.bat += zres.Stats.Batches

		var phys, eq *verify.Report
		L.physical = append(L.physical, timed(tr, "verify.physical", req, func() { phys = verify.CheckPhysical(zres.Program, zres.Initial) }))
		L.equivalence = append(L.equivalence, timed(tr, "verify.equivalence", req, func() { eq = verify.CheckEquivalence(c, zres.Program) }))
		L.violations += int64(len(phys.Violations) + len(eq.Violations))
		if eq.Oracle != nil {
			L.amps += eq.Oracle.Amps
		}

		resp := &service.CompileResponse{Bench: in.name, Scheme: string(scheme), AODs: in.aods, Qubits: c.Qubits,
			Fidelity: zx.Fidelity, Components: zx.Components, TexeUS: zx.Time, TcompMS: ms(zres.Stats.CompileTime),
			Stages: zx.Stages, Moves: zres.Stats.Moves, Passes: zres.Stats.Passes}
		L.encode = append(L.encode, timed(tr, "service.encode", req, func() { _, err = service.EncodeJSON(resp) }))
		if err != nil {
			return nil, err
		}
		// The store holds compact outcome JSON, as the service's disk
		// tier writes it.
		doc, err := json.Marshal(pipeline.Outcome{Fidelity: zx.Fidelity, Components: zx.Components, Texe: zx.Time,
			Tcomp: zres.Stats.CompileTime, Stages: zx.Stages, Moves: zres.Stats.Moves, Passes: zres.Stats.Passes})
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s#%d", in.name, i)
		L.put = append(L.put, timed(tr, "store.put", req, func() { err = st.Put(key, doc) }))
		if err != nil {
			return nil, fmt.Errorf("replay: store put: %w", err)
		}
		var got []byte
		var ok bool
		L.get = append(L.get, timed(tr, "store.get", req, func() { got, ok = st.Get(key) }))
		if !ok || !bytes.Equal(got, doc) {
			return nil, fmt.Errorf("replay: store returned a different entry for %s", key)
		}
	}
	return L, nil
}
