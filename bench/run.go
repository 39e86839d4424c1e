package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // directory for the span file of a traced run
	quick    bool
	dir      string // scratch root for stores; this run's files are removed at exit
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome. The line the benchmark prints
// last holds its first four fields; Samples gives each timing's sample
// count.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
}

// opLog accumulates the ops of one timed phase.
type opLog struct {
	lat               []float64 // ms; a failed op counts as +Inf
	attempted, failed int
	elapsed, cpu      time.Duration
	rssPeaks          []float64 // MiB, one per rssWindow
	alloc, gcPauseNS  uint64
	gcCycles          uint32
}

func (l *opLog) opsPerS() float64 { return float64(l.attempted) / l.elapsed.Seconds() }

func (l *opLog) merge(o *opLog) {
	l.lat = append(l.lat, o.lat...)
	l.attempted += o.attempted
	l.failed += o.failed
}

// recorder returns the per-op callback of one closed-loop client. It
// reports an abort once maxFailures ops in a row have failed.
func (l *opLog) recorder(abort func(error)) func(start time.Time, err error) {
	consecutive := 0
	return func(start time.Time, err error) {
		l.attempted++
		if err == nil {
			consecutive = 0
			l.lat = append(l.lat, ms(time.Since(start)))
			return
		}
		l.failed++
		l.lat = append(l.lat, math.Inf(1))
		if consecutive++; consecutive == maxFailures {
			abort(fmt.Errorf("aborting after %d consecutive failed ops; last: %w", maxFailures, err))
		}
	}
}

// maxFailures is how many ops in a row may fail before a workload gives
// up instead of hanging on a dead backend.
const maxFailures = 100

// nClients is the closed loop's client count: one per CPU of the
// reference host, each with one keep-alive connection.
const nClients = 2

// closedLoop runs one goroutine per client. Each repeatedly takes the
// next task index and runs it, reporting every op through rec, until the
// deadline has passed and at least minTasks tasks have been taken.
func closedLoop(clients []*client, deadline time.Time, next *atomic.Int64, minTasks int64,
	task func(c *client, ci, i int, rec func(time.Time, error))) (*opLog, error) {
	logs := make([]opLog, len(clients))
	var (
		stop    atomic.Bool
		errOnce sync.Once
		abort   error
		wg      sync.WaitGroup
	)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			rec := logs[ci].recorder(func(err error) {
				errOnce.Do(func() { abort = err })
				stop.Store(true)
			})
			for !stop.Load() {
				i := next.Add(1) - 1
				if i >= minTasks && time.Now().After(deadline) {
					return
				}
				task(c, ci, int(i), rec)
			}
		}(ci, c)
	}
	wg.Wait()
	out := &opLog{}
	for i := range logs {
		out.merge(&logs[i])
	}
	return out, abort
}

// output is the quality of one compiled program: its fidelity and its
// execution time on the modelled hardware, in µs.
type output struct{ fidelity, texeUS float64 }

// workloadRun is one of the five workloads. A run calls setup (several
// times, keeping the last), then run once per timed phase, then check.
type workloadRun interface {
	// setup brings the workload from nothing to its measured state,
	// using dir for anything on disk.
	setup(dir string) error
	// run drives ops until the deadline.
	run(deadline time.Time) (*opLog, error)
	// check verifies the recorded outputs and returns the number of ops
	// whose output is wrong.
	check() (int, error)
	// outputs are the PowerMove outputs of the workload's quality set: a
	// fixed, seed-derived set of its ops.
	outputs() ([]output, error)
	// replayInputs is the traced run's seeded sample of inputs.
	replayInputs() []replayInput
	// stack is the serving tier the workload drives, or nil.
	stack() *stack
	close()
}

func newWorkloadRun(cfg config, tr *tracer) (workloadRun, error) {
	switch cfg.workload {
	case "paper-eval":
		return &paperEval{cfg: cfg}, nil
	case "serve-cold":
		return newServeCold(cfg, tr, false), nil
	case "serve-hot":
		return newServeHot(cfg, tr), nil
	case "edit-async":
		return &editAsync{httpBase: httpBase{cfg: cfg, tr: tr}}, nil
	case "verify-large":
		return newServeCold(cfg, tr, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runWorkload runs one workload and computes its metrics: the
// end-to-end set, or with cfg.trace the per-layer set. Human-readable
// lines go to out.
func runWorkload(cfg config, out io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	w, err := newWorkloadRun(cfg, tr)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set up several times from nothing and report the median, so work
	// moved into set-up shows and one slow start does not decide it.
	setups := 5
	if cfg.quick {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.close()
		}
		dir := filepath.Join(root, "setup"+strconv.Itoa(i))
		start := time.Now()
		if err := w.setup(dir); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.close()

	phase := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// Half untraced, half traced: the difference is the tracing
		// overhead.
		phase /= 2
	}
	main, err := measure(w, phase)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	all := &opLog{}
	all.merge(main)
	var traced *opLog
	if cfg.trace {
		tr.on.Store(true)
		if traced, err = measure(w, phase); err != nil {
			return nil, fmt.Errorf("%s traced: %w", cfg.workload, err)
		}
		all.merge(traced)
	}
	wrong, err := w.check()
	if err != nil {
		return nil, fmt.Errorf("%s check: %w", cfg.workload, err)
	}
	res := &result{Attempted: all.attempted, Failed: all.failed + wrong, Samples: map[string]int{}}
	vals := map[string]float64{}
	if cfg.trace {
		if err := perLayerMetrics(cfg, w, tr, main, traced, root, vals, res, out); err != nil {
			return nil, fmt.Errorf("%s trace: %w", cfg.workload, err)
		}
	} else {
		if err := endToEndMetrics(w, main, setupS, vals, res, out); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res.Metrics = make(map[string]metric, len(specs))
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s has no finite value (%v)", cfg.workload, m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs one timed phase, with the process's CPU time and
// allocation counters around it.
func measure(w workloadRun, d time.Duration) (*opLog, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss, err := startRSSWindows()
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	l, err := w.run(start.Add(d))
	peaks, rssErr := rss.finish()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	l.elapsed = time.Since(start)
	l.cpu = cpuTime() - cpu0
	l.rssPeaks = peaks
	runtime.ReadMemStats(&m1)
	l.alloc = m1.TotalAlloc - m0.TotalAlloc
	l.gcCycles = m1.NumGC - m0.NumGC
	l.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	if l.attempted == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	return l, nil
}

func endToEndMetrics(w workloadRun, l *opLog, setupS []float64, vals map[string]float64, res *result, out io.Writer) error {
	vals["setup_s"] = median(setupS)
	vals["ops_per_s"] = l.opsPerS()
	vals["cpu_ms_per_op"] = ms(l.cpu) / float64(l.attempted)
	vals["lat_ms_p50"] = percentile(l.lat, 0.5)
	vals["lat_ms_p90"] = percentile(l.lat, 0.9)
	vals["peak_rss_mb"] = median(l.rssPeaks)
	outs, err := w.outputs()
	if err != nil {
		return err
	}
	fids, texes := make([]float64, len(outs)), make([]float64, len(outs))
	for i, o := range outs {
		fids[i], texes[i] = o.fidelity, o.texeUS/1000
	}
	if vals["fidelity_geomean"], err = geomean(fids); err != nil {
		return fmt.Errorf("fidelity: %w", err)
	}
	if vals["texe_ms_geomean"], err = geomean(texes); err != nil {
		return fmt.Errorf("texe: %w", err)
	}
	n := len(l.lat)
	for k, v := range map[string]int{"setup_s": len(setupS), "ops": l.attempted, "latencies": n, "quality_set": len(outs), "rss_windows": len(l.rssPeaks)} {
		res.Samples[k] = v
	}
	if q := tailPercentile(n); q > 0 {
		fmt.Fprintf(out, "tail: p%g = %.4f ms is the highest percentile with at least 10 of %d samples beyond it\n",
			100*q, percentile(l.lat, q), n)
	}
	if p, ok := w.(*paperEval); ok {
		p.report(out)
	}
	return nil
}

// perLayerMetrics assembles the traced run's numbers: the replay through
// the inner layers, one probe of the sample through the serving tier,
// the tier's own counters, and the spans.
func perLayerMetrics(cfg config, w workloadRun, tr *tracer, main, traced *opLog, root string, vals map[string]float64, res *result, out io.Writer) error {
	ins := w.replayInputs()
	L, err := replay(ins, root, tr)
	if err != nil {
		return err
	}
	// The probe sends the sample through the serving tier as async jobs,
	// so every workload's traced run measures the fleet, service and
	// jobs layers; paper-eval, which has no tier of its own, gets one.
	// Its clients run concurrently, as the workload's do, so jobs queue
	// behind each other. Each job's snapshot, read for its queue wait,
	// is a request the timed phases never make.
	st := w.stack()
	if st == nil {
		if st, err = newStack(filepath.Join(root, "probe"), 0, tr); err != nil {
			return err
		}
		defer st.close()
	}
	clients := make([]*client, nClients)
	for i := range clients {
		clients[i] = newClient(st.front.URL, tr)
		defer clients[i].close()
	}
	var next atomic.Int64
	probe, err := closedLoop(clients, time.Time{}, &next, int64(len(ins)), func(c *client, _, i int, rec func(time.Time, error)) {
		req := "probe/" + strconv.Itoa(i)
		start := time.Now()
		_, id, err := c.job(ins[i].probe, req)
		var wait float64
		if err == nil {
			wait, err = c.queueWait(id, req)
		}
		rec(start, err)
		if err != nil {
			fmt.Fprintf(out, "probe %s: %v\n", ins[i].name, err)
			return
		}
		tr.addQueueWait(wait)
	})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	res.Attempted += probe.attempted
	res.Failed += probe.failed
	tr.on.Store(false)
	ctr, err := st.counters()
	if err != nil {
		return err
	}
	if p, ok := w.(*paperEval); ok {
		ctr.compiles += int64(p.stats.Compiles)
		ctr.cacheHits += int64(p.stats.CacheHits)
		ctr.cacheMisses += int64(p.stats.Compiles)
	}

	zn, en := float64(len(L.zonedTotal)), float64(len(L.enolaTotal))
	for _, p := range zonedPasses {
		vals["compiler.zoned."+p+".self_ms"] = L.zonedSelf[p] / zn
	}
	for _, p := range enolaPasses {
		vals["compiler.enola."+p+".self_ms"] = L.enolaSelf[p] / en
	}
	vals["compiler.zoned.total_ms"] = sum(L.zonedTotal) / zn
	vals["compiler.enola.total_ms"] = sum(L.enolaTotal) / en
	vals["compiler.stages"] = float64(L.stages) / zn
	vals["compiler.moves"] = float64(L.moves) / zn
	vals["compiler.coll_moves"] = float64(L.coll) / zn
	vals["compiler.batches"] = float64(L.bat) / zn
	vals["pipeline.slowest_job_ms"] = L.slowestMS
	fmt.Fprintf(out, "slowest replayed compile: %s, %.3f ms\n", L.slowestKey, L.slowestMS)
	vals["pipeline.cache_hit_ratio"] = ratio(ctr.cacheHits, ctr.cacheHits+ctr.cacheMisses)
	vals["pipeline.compiles"] = float64(ctr.compiles)
	vals["sim.execute_ms_p50"] = percentile(L.simMS, 0.5)
	vals["sim.execute_ms_total"] = sum(L.simMS)
	vals["verify.physical_ms_p50"] = percentile(L.physical, 0.5)
	vals["verify.equivalence_ms_p50"] = percentile(L.equivalence, 0.5)
	vals["verify.oracle_amps"] = float64(L.amps)
	vals["verify.violations"] = float64(L.violations)
	vals["store.put_ms_p50"] = percentile(L.put, 0.5)
	vals["store.get_ms_p50"] = percentile(L.get, 0.5)
	vals["store.hit_ratio"] = ratio(ctr.storeHits, ctr.storeHits+ctr.storeMisses)
	vals["store.corrupt"] = float64(ctr.storeCorrupt)
	vals["service.deduped"] = float64(ctr.deduped)
	vals["service.encode_ms_p50"] = percentile(L.encode, 0.5)
	vals["incremental.prefix_hit_ratio"] = ratio(ctr.prefixHits, ctr.probes)
	vals["incremental.warm_starts"] = float64(ctr.warmStarts)
	vals["qasm.parse_ms_p50"] = percentile(L.parse, 0.5)
	vals["workload.gen_ms_p50"] = percentile(L.gen, 0.5)
	vals["jobs.attached"] = float64(ctr.attached)
	vals["jobs.shed"] = float64(ctr.shed)
	vals["fleet.retried"] = float64(ctr.retried)
	vals["fleet.failovers"] = float64(ctr.failovers)

	tr.mu.Lock()
	spans, queue := tr.spans, tr.queue
	tr.mu.Unlock()
	proxy := selfTimes(spans, "fleet.proxy", "fleet.forward")
	backend := selfTimes(spans, "service.http", "")
	events := selfTimes(spans, "client.events", "")
	vals["jobs.queue_wait_ms_p50"] = percentile(queue, 0.5)
	vals["jobs.queue_wait_ms_p99"] = percentile(queue, 0.99)
	vals["jobs.events_ms_p50"] = percentile(events, 0.5)
	vals["fleet.self_ms_p50"] = percentile(proxy, 0.5)
	vals["fleet.self_ms_p99"] = percentile(proxy, 0.99)
	vals["fleet.forward_self_ms_p50"] = percentile(selfTimes(spans, "fleet.forward", "service.http"), 0.5)
	vals["service.http_self_ms_p50"] = percentile(backend, 0.5)
	vals["service.http_self_ms_p99"] = percentile(backend, 0.99)

	// Allocation and GC come from the untraced half, so the spans do not
	// count against the program.
	vals["runtime.alloc_kb_per_op"] = float64(main.alloc) / 1024 / float64(main.attempted)
	vals["runtime.gc_cycles"] = float64(main.gcCycles)
	vals["runtime.gc_pause_ms"] = float64(main.gcPauseNS) / 1e6
	vals["trace.overhead_pct"] = 100 * (main.opsPerS() - traced.opsPerS()) / main.opsPerS()

	for k, v := range map[string]int{"replay": len(ins), "fleet.proxy": len(proxy), "service.http": len(backend),
		"jobs.queue_wait": len(queue), "jobs.events": len(events), "untraced_ops": main.attempted,
		"traced_ops": traced.attempted, "probe_ops": probe.attempted} {
		res.Samples[k] = v
	}
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
