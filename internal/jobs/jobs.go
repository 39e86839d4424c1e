// Package jobs is the async job subsystem behind the service's /v1/jobs
// API: a bounded admission queue with explicit load-shedding, a worker
// pool draining it, job lifecycle states with per-state counters and a
// queue-latency histogram, cancellation, TTL'd retention of finished
// jobs, and a per-job event stream for SSE progress.
//
// The lifecycle is
//
//	queued ──────> running ──────> done | failed
//	   │              │
//	   └──────────────┴──────────> canceled
//
// Admission is strict: when the queue holds Depth jobs, Submit returns
// ErrFull and the caller sheds load (HTTP 429 + Retry-After) instead of
// queueing unbounded work. Within the queue, higher Priority runs first
// and equal priorities run FIFO.
//
// A submission carrying a non-empty Key whose key already has an active
// (queued or running) job does not consume a queue slot: it attaches to
// that leader and runs only once the leader finishes — by then the
// outcome is in the compile cache, so the follower's run is a cache hit
// and the pair costs one compile. If the leader is canceled instead, its
// followers are re-admitted through the normal bounded queue.
//
// The manager knows nothing about compiles: execution is delegated to
// the configured Runner, which receives the job's context (canceled by
// DELETE or manager shutdown) and a progress callback feeding the job's
// event stream.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle position.
type State string

// The job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Error is the structured failure attached to failed and canceled jobs;
// Code uses the service's stable machine-readable error codes.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Event is one entry of a job's event stream, named for the SSE event
// field: "state" events carry a stateData document, "progress" events a
// {"done","total"} document.
type Event struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// stateData is the payload of a "state" event.
type stateData struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	AttachedTo string `json:"attached_to,omitempty"`
	Error      *Error `json:"error,omitempty"`
}

// Snapshot is the public view of a job at one instant.
type Snapshot struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    State  `json:"state"`
	Priority int    `json:"priority,omitempty"`
	// Created/Started/Finished timestamp the lifecycle transitions.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// QueueMS is the measured admission-to-start latency.
	QueueMS float64 `json:"queue_ms,omitempty"`
	// AttachedTo names the leader this job attached to, when it rode an
	// in-flight submission of the same key instead of a queue slot.
	AttachedTo string `json:"attached_to,omitempty"`
	// Request echoes the submitted payload; Result carries the outcome
	// document once done. Both are omitted from List snapshots.
	Request json.RawMessage `json:"request,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	// Error is set on failed and canceled jobs.
	Error *Error `json:"error,omitempty"`
}

// Spec describes one submission.
type Spec struct {
	// Kind tags the work for the Runner's dispatch.
	Kind string
	// Payload is the opaque request document handed to the Runner and
	// echoed in snapshots.
	Payload json.RawMessage
	// Priority orders the queue: higher runs first, equal is FIFO.
	// Valid range [0, MaxPriority].
	Priority int
	// Key, when non-empty, is the job's dedup identity: a submission
	// whose key has an active job attaches to it instead of enqueueing.
	Key string
}

// MaxPriority bounds Spec.Priority.
const MaxPriority = 9

// Runner executes one job: ctx is canceled by DELETE /v1/jobs/{id} and
// by manager shutdown; progress feeds the job's event stream. The
// returned bytes become the job's result document.
type Runner func(ctx context.Context, snap Snapshot, progress func(done, total int)) (json.RawMessage, error)

// Config sizes a Manager.
type Config struct {
	// Depth bounds the admission queue; submissions beyond it shed with
	// ErrFull. Values < 1 select 256.
	Depth int
	// Workers is the number of jobs drained concurrently; values < 1
	// select 2.
	Workers int
	// TTL is how long finished jobs (and their results) are retained
	// for polling; values <= 0 select 15 minutes.
	TTL time.Duration
	// GCInterval is the retention sweep period; values <= 0 select
	// TTL/4 clamped to [100ms, 30s].
	GCInterval time.Duration
	// Run executes jobs. Required.
	Run Runner
	// CodeOf maps a Runner error to a stable machine-readable code for
	// the job's Error; nil maps everything to "internal".
	CodeOf func(error) string
	// IDPrefix, when non-empty, prefixes every job id as "<prefix>.jNN-..."
	// — the backend-identity half of fleet routing: a router in front of
	// N daemons recovers which backend owns a job from the id alone, so
	// polling a job needs no router-side state. Must not contain ".".
	IDPrefix string
	// Speculate, when set, is the idle-slot policy: a worker that finds
	// the queue empty offers its slot to this hook before blocking. The
	// hook performs at most one unit of opportunistic work (the service
	// precompiles a likely ablation variant) and reports whether it did
	// anything. Admitted jobs strictly precede speculation — the hook is
	// only ever invoked from a worker holding a drained queue, and the
	// ctx is canceled the moment real work is admitted or the manager
	// closes, so speculative work never delays an admitted job.
	Speculate func(context.Context) bool
}

// Sentinel errors of the admission and lookup surface.
var (
	// ErrFull reports a shed submission: the queue is at Depth.
	ErrFull = errors.New("jobs: queue full")
	// ErrNotFound reports an unknown (or TTL-expired) job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal reports a cancel of an already-finished job.
	ErrTerminal = errors.New("jobs: job already finished")
	// ErrClosed reports a submission to a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
)

// latencyBucketsMS are the queue-latency histogram's upper bounds; the
// final implicit bucket is +Inf.
var latencyBucketsMS = []float64{1, 5, 25, 100, 500, 2500}

// Histogram is a fixed-bucket latency histogram.
type Histogram struct {
	// BucketMS are upper bounds in milliseconds; Counts has one more
	// entry than BucketMS — the overflow bucket.
	BucketMS []float64 `json:"bucket_ms"`
	Counts   []int64   `json:"counts"`
	Count    int64     `json:"count"`
	TotalMS  float64   `json:"total_ms"`
}

// NewHistogram returns an empty histogram over the package's standard
// latency buckets, for consumers (the fleet router's per-backend
// latency metrics) that want buckets comparable with the queue's.
func NewHistogram() Histogram {
	return Histogram{BucketMS: latencyBucketsMS, Counts: make([]int64, len(latencyBucketsMS)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.observe(d) }

func (h *Histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.Counts[i]++
	h.Count++
	h.TotalMS += ms
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed values
// in milliseconds: the upper bound of the bucket holding the q-th
// observation. A quantile landing in the overflow bucket has no upper
// bound to report, so it answers twice the last finite bound or the
// observed mean, whichever is larger (a queue draining far beyond the
// bucket range is better described by its mean than by a fixed bound).
// Returns 0 while the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.BucketMS) == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.BucketMS) {
				return h.BucketMS[i]
			}
			break
		}
	}
	over := 2 * h.BucketMS[len(h.BucketMS)-1]
	if mean := h.TotalMS / float64(h.Count); mean > over {
		return mean
	}
	return over
}

// Metrics is the /metrics view of the subsystem: cumulative per-state
// transition counters, current gauges, and the queue-latency histogram.
type Metrics struct {
	// Depth and Capacity describe the admission queue right now.
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	Workers  int `json:"workers"`
	// Running and Retained are current gauges: jobs executing, and jobs
	// held in memory (including finished ones awaiting TTL expiry).
	Running  int `json:"running"`
	Retained int `json:"retained"`
	// Cumulative transition counters.
	Submitted int64 `json:"submitted"`
	Started   int64 `json:"started"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Attached counts submissions that rode an active job of their key
	// instead of a queue slot; Shed counts submissions rejected with
	// ErrFull (HTTP 429s).
	Attached int64 `json:"attached"`
	Shed     int64 `json:"shed"`
	// Speculations counts productive idle-slot speculation hook runs.
	Speculations int64 `json:"speculations,omitempty"`
	// QueueLatency is the admission-to-start histogram.
	QueueLatency Histogram `json:"queue_latency"`
}

// job is the manager's internal record.
type job struct {
	id       string
	seq      int64
	kind     string
	key      string
	priority int
	state    State

	created  time.Time
	started  time.Time
	finished time.Time

	payload json.RawMessage
	result  json.RawMessage
	jerr    *Error

	cancelRequested bool
	cancel          context.CancelFunc // non-nil while running

	attachedTo string
	followers  []*job

	// events is the replayable history; progress events are collapsed
	// to the latest so a 1000-point batch doesn't retain 1000 entries.
	events      []Event
	progressIdx int // index of the history's progress event, -1 if none
	subs        []chan Event
}

// Manager owns the queue, the worker pool, the job table, and the
// retention janitor. Construct with NewManager; stop with Close.
type Manager struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond

	jobs   map[string]*job
	order  []*job          // creation order, for List
	queues [][]*job        // index = priority; FIFO within
	byKey  map[string]*job // active leader per dedup key
	depth  int
	seq    int64
	closed bool
	stop   chan struct{}

	submitted, started     int64
	done, failed, canceled int64
	attached, shed         int64
	hist                   Histogram

	// Speculation bookkeeping: in-flight hook invocations by sequence
	// (so admission can cancel them) and a count of productive ones.
	specSeq      int64
	specCancels  map[int64]context.CancelFunc
	speculations int64

	// panics counts recovered Runner panics.
	panics atomic.Int64
}

// NewManager starts a manager: Workers drainer goroutines plus the
// retention janitor. Close releases them.
func NewManager(cfg Config) *Manager {
	if cfg.Depth < 1 {
		cfg.Depth = 256
	}
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Minute
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = cfg.TTL / 4
		if cfg.GCInterval < 100*time.Millisecond {
			cfg.GCInterval = 100 * time.Millisecond
		}
		if cfg.GCInterval > 30*time.Second {
			cfg.GCInterval = 30 * time.Second
		}
	}
	if cfg.Run == nil {
		panic("jobs: Config.Run is required")
	}
	m := &Manager{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		queues: make([][]*job, MaxPriority+1),
		byKey:  make(map[string]*job),
		stop:   make(chan struct{}),
		hist:   Histogram{BucketMS: latencyBucketsMS, Counts: make([]int64, len(latencyBucketsMS)+1)},
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	go m.janitor()
	return m
}

// Close stops admission, cancels running jobs, and releases the workers
// and the janitor. In-flight Runner calls are canceled via their ctx but
// not waited for.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.stop)
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancelRequested = true
			j.cancel()
		}
	}
	m.cancelSpeculationsLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Submit admits one job, returning its initial snapshot. ErrFull means
// the queue is at capacity and the submission was shed.
func (m *Manager) Submit(spec Spec) (Snapshot, error) {
	if spec.Priority < 0 || spec.Priority > MaxPriority {
		return Snapshot{}, fmt.Errorf("jobs: priority %d out of range [0, %d]", spec.Priority, MaxPriority)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrClosed
	}
	if spec.Key != "" {
		if leader, ok := m.byKey[spec.Key]; ok && !leader.state.Terminal() {
			j := m.newJobLocked(spec)
			j.attachedTo = leader.id
			leader.followers = append(leader.followers, j)
			m.attached++
			m.emitStateLocked(j)
			return j.snapshot(true), nil
		}
	}
	if m.depth >= m.cfg.Depth {
		m.shed++
		return Snapshot{}, ErrFull
	}
	j := m.newJobLocked(spec)
	if spec.Key != "" {
		m.byKey[spec.Key] = j
	}
	m.queues[j.priority] = append(m.queues[j.priority], j)
	m.depth++
	m.cancelSpeculationsLocked()
	m.emitStateLocked(j)
	m.cond.Signal()
	return j.snapshot(true), nil
}

// newJobLocked allocates and registers a queued job. Called with m.mu
// held.
func (m *Manager) newJobLocked(spec Spec) *job {
	m.seq++
	var nonce [4]byte
	rand.Read(nonce[:])
	id := fmt.Sprintf("j%06x-%s", m.seq, hex.EncodeToString(nonce[:]))
	if m.cfg.IDPrefix != "" {
		id = m.cfg.IDPrefix + "." + id
	}
	j := &job{
		id:          id,
		seq:         m.seq,
		kind:        spec.Kind,
		key:         spec.Key,
		priority:    spec.Priority,
		state:       StateQueued,
		created:     time.Now(),
		payload:     spec.Payload,
		progressIdx: -1,
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.submitted++
	return j
}

// worker drains the queue until the manager closes. A worker that finds
// the queue drained offers its slot to the speculation hook before
// blocking; any admitted job preempts further speculation because the
// loop re-checks the queue after every hook invocation and the hook is
// never entered while a job is queued.
func (m *Manager) worker() {
	for {
		m.mu.Lock()
		var j *job
		for {
			if j = m.popLocked(); j != nil || m.closed {
				break
			}
			if m.cfg.Speculate != nil {
				did := m.trySpeculateLocked()
				if did || m.closed || m.depth > 0 {
					continue // re-evaluate queue and shutdown at the top
				}
			}
			m.cond.Wait()
		}
		if j == nil { // closed and drained
			m.mu.Unlock()
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		m.startLocked(j, cancel)
		m.mu.Unlock()
		m.execute(ctx, j)
	}
}

// trySpeculateLocked runs one speculation hook invocation, dropping the
// lock around the hook itself. The hook's context is canceled when a
// real job is admitted or the manager closes. Returns whether the hook
// did work. Called with m.mu held; returns with it held.
func (m *Manager) trySpeculateLocked() bool {
	m.specSeq++
	id := m.specSeq
	ctx, cancel := context.WithCancel(context.Background())
	if m.specCancels == nil {
		m.specCancels = make(map[int64]context.CancelFunc)
	}
	m.specCancels[id] = cancel
	m.mu.Unlock()
	did := m.cfg.Speculate(ctx)
	cancel()
	m.mu.Lock()
	delete(m.specCancels, id)
	if did {
		m.speculations++
	}
	return did
}

// cancelSpeculationsLocked cancels every in-flight speculation hook so
// admitted work reclaims the workers immediately. Called with m.mu held;
// each hook invocation removes its own entry when it returns.
func (m *Manager) cancelSpeculationsLocked() {
	for _, cancel := range m.specCancels {
		cancel()
	}
}

// Kick wakes idle workers so they re-poll the speculation hook — the
// hook's owner calls it after enqueueing new speculative work. A no-op
// without a configured hook or after Close.
func (m *Manager) Kick() {
	m.mu.Lock()
	if !m.closed && m.cfg.Speculate != nil {
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// popLocked removes the next runnable job: highest priority first, FIFO
// within. Entries canceled while queued are skipped (their accounting
// happened at cancel time).
func (m *Manager) popLocked() *job {
	for p := MaxPriority; p >= 0; p-- {
		q := m.queues[p]
		for len(q) > 0 {
			j := q[0]
			q = q[1:]
			if j.state == StateQueued {
				m.queues[p] = q
				m.depth--
				return j
			}
		}
		m.queues[p] = q
	}
	return nil
}

// startLocked transitions a job to running. Called with m.mu held.
func (m *Manager) startLocked(j *job, cancel context.CancelFunc) {
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	m.started++
	m.hist.observe(j.started.Sub(j.created))
	m.emitStateLocked(j)
}

// execute runs one job through the Runner and records its terminal
// state.
func (m *Manager) execute(ctx context.Context, j *job) {
	out, err := m.run(ctx, j)
	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	switch {
	case j.cancelRequested || errors.Is(err, context.Canceled):
		m.finishLocked(j, StateCanceled, nil, &Error{Code: "canceled", Message: "job canceled"})
	case err != nil:
		code := "internal"
		var panicked *runnerPanic
		if m.cfg.CodeOf != nil && !errors.As(err, &panicked) {
			code = m.cfg.CodeOf(err)
		}
		m.finishLocked(j, StateFailed, nil, &Error{Code: code, Message: err.Error()})
	default:
		m.finishLocked(j, StateDone, out, nil)
	}
}

// run calls the Runner. A panic inside it becomes the job's error, with
// the stack, so one bad job fails instead of the process and every job
// in flight.
func (m *Manager) run(ctx context.Context, j *job) (out json.RawMessage, err error) {
	defer func() {
		if v := recover(); v != nil {
			m.panics.Add(1)
			out, err = nil, &runnerPanic{value: v, stack: debug.Stack()}
		}
	}()
	return m.cfg.Run(ctx, j.snapshot(true), func(done, total int) {
		m.emitProgress(j, done, total)
	})
}

// runnerPanic is a recovered Runner panic. Its job fails with code
// "internal" whatever Config.CodeOf says.
type runnerPanic struct {
	value any
	stack []byte
}

func (p *runnerPanic) Error() string { return fmt.Sprintf("jobs: panic: %v\n%s", p.value, p.stack) }

// Panics returns the number of Runner panics the manager has recovered.
func (m *Manager) Panics() int64 { return m.panics.Load() }

// finishLocked records a terminal state, notifies subscribers, and
// settles followers: a done or failed leader releases them to run
// directly (their outcome is by now a cache hit — or the identical
// cached failure), a canceled leader re-admits them through the bounded
// queue. Called with m.mu held.
func (m *Manager) finishLocked(j *job, state State, result json.RawMessage, jerr *Error) {
	j.state = state
	j.finished = time.Now()
	j.result = result
	j.jerr = jerr
	switch state {
	case StateDone:
		m.done++
	case StateFailed:
		m.failed++
	case StateCanceled:
		m.canceled++
	}
	m.emitStateLocked(j)
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	if j.key != "" && m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	followers := j.followers
	j.followers = nil
	for _, f := range followers {
		if f.state != StateQueued || f.cancelRequested {
			continue // canceled while attached; already settled
		}
		if state == StateCanceled {
			m.readmitLocked(f)
		} else {
			go m.runFollower(f)
		}
	}
}

// readmitLocked moves a follower of a canceled leader into the normal
// queue, shedding it if the queue is full. Called with m.mu held.
func (m *Manager) readmitLocked(f *job) {
	if m.closed {
		m.finishLocked(f, StateCanceled, nil, &Error{Code: "canceled", Message: "job canceled: service shutting down"})
		return
	}
	if m.depth >= m.cfg.Depth {
		m.shed++
		m.finishLocked(f, StateFailed, nil, &Error{Code: "queue_full", Message: "leader canceled and the queue is full"})
		return
	}
	f.attachedTo = ""
	if f.key != "" {
		if _, taken := m.byKey[f.key]; !taken {
			m.byKey[f.key] = f
		}
	}
	m.queues[f.priority] = append(m.queues[f.priority], f)
	m.depth++
	m.cancelSpeculationsLocked()
	m.cond.Signal()
}

// runFollower executes a released follower outside the worker pool: its
// leader already computed the outcome, so this run is a cache hit and
// costs no compile slot (any genuine compile underneath is still
// bounded by the service's compile semaphore).
func (m *Manager) runFollower(f *job) {
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	if f.state != StateQueued || f.cancelRequested {
		m.mu.Unlock()
		cancel()
		return
	}
	m.startLocked(f, cancel)
	m.mu.Unlock()
	m.execute(ctx, f)
}

// Cancel requests a job's cancellation: queued (or attached) jobs settle
// to canceled immediately and never run; running jobs have their context
// canceled and settle when the Runner returns. Canceling a finished job
// returns ErrTerminal with the job's final snapshot.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	switch {
	case j.state.Terminal():
		return j.snapshot(true), ErrTerminal
	case j.state == StateQueued:
		j.cancelRequested = true
		if j.attachedTo == "" {
			m.depth-- // popLocked will skip the stale queue entry
		}
		m.finishLocked(j, StateCanceled, nil, &Error{Code: "canceled", Message: "job canceled"})
	default: // running
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.snapshot(true), nil
}

// Get returns a job's current snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.snapshot(true), nil
}

// Result returns a done job's result document verbatim. The boolean
// reports whether the job is done; ErrNotFound reports an unknown id.
func (m *Manager) Result(id string) (json.RawMessage, State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, "", ErrNotFound
	}
	return j.result, j.state, nil
}

// Filter narrows List.
type Filter struct {
	// State and Kind, when non-empty, select matching jobs only.
	State State
	Kind  string
	// Limit caps the result count, keeping the most recent; <= 0 means
	// no cap.
	Limit int
}

// List returns job snapshots in creation order, without request/result
// payloads.
func (m *Manager) List(f Filter) []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.order))
	for _, j := range m.order {
		if f.State != "" && j.state != f.State {
			continue
		}
		if f.Kind != "" && j.kind != f.Kind {
			continue
		}
		out = append(out, j.snapshot(false))
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Subscribe opens a job's event stream: the returned history replays
// everything so far, and live events follow on ch until the job reaches
// a terminal state, when ch is closed. ch is nil if the job is already
// terminal. Call cancel to detach early.
func (m *Manager) Subscribe(id string) (history []Event, ch <-chan Event, cancel func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	history = append([]Event(nil), j.events...)
	if j.state.Terminal() {
		return history, nil, func() {}, nil
	}
	c := make(chan Event, 64)
	j.subs = append(j.subs, c)
	cancel = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, sub := range j.subs {
			if sub == c {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				close(c)
				return
			}
		}
	}
	return history, c, cancel, nil
}

// Metrics returns the subsystem's accounting snapshot.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	running := 0
	for _, j := range m.jobs {
		if j.state == StateRunning {
			running++
		}
	}
	h := m.hist
	h.Counts = append([]int64(nil), m.hist.Counts...)
	return Metrics{
		Depth:        m.depth,
		Capacity:     m.cfg.Depth,
		Workers:      m.cfg.Workers,
		Running:      running,
		Retained:     len(m.jobs),
		Submitted:    m.submitted,
		Started:      m.started,
		Done:         m.done,
		Failed:       m.failed,
		Canceled:     m.canceled,
		Attached:     m.attached,
		Shed:         m.shed,
		Speculations: m.speculations,
		QueueLatency: h,
	}
}

// TTL returns the configured retention window.
func (m *Manager) TTL() time.Duration { return m.cfg.TTL }

// The Retry-After hint's clamp: never tell a shed client to come back
// sooner than a second or later than half a minute.
const (
	minRetryAfter = time.Second
	maxRetryAfter = 30 * time.Second
)

// RetryAfter estimates how long a shed submission should wait before
// retrying: the live queue-latency histogram's p50 — how long a freshly
// admitted job has been waiting for a worker — clamped to
// [1s, 30s] and rounded up to whole seconds (Retry-After's resolution).
// A constant hint would synchronize every shed client's retry into the
// same instant; deriving it from the drain rate spreads fleet retries
// (and a router's failover traffic) across the window the queue
// actually needs to open a slot.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	p50 := m.hist.Quantile(0.5)
	m.mu.Unlock()
	d := time.Duration(p50 * float64(time.Millisecond))
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	// Round up to whole seconds so the HTTP header never under-promises.
	return (d + time.Second - 1) / time.Second * time.Second
}

// janitor drops finished jobs older than the TTL.
func (m *Manager) janitor() {
	ticker := time.NewTicker(m.cfg.GCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.purge(time.Now().Add(-m.cfg.TTL))
		}
	}
}

// purge removes terminal jobs finished before cutoff.
func (m *Manager) purge(cutoff time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.order[:0]
	for _, j := range m.order {
		if j.state.Terminal() && j.finished.Before(cutoff) {
			delete(m.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// emitStateLocked appends and fans out a state event. Called with m.mu
// held.
func (m *Manager) emitStateLocked(j *job) {
	data, err := json.Marshal(stateData{ID: j.id, State: j.state, AttachedTo: j.attachedTo, Error: j.jerr})
	if err != nil {
		return
	}
	m.fanoutLocked(j, Event{Name: "state", Data: data})
}

// emitProgress appends and fans out a progress event, collapsing the
// history to the latest progress point.
func (m *Manager) emitProgress(j *job, done, total int) {
	data, err := json.Marshal(struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}{done, total})
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ev := Event{Name: "progress", Data: data}
	if j.progressIdx >= 0 {
		j.events[j.progressIdx] = ev
	} else {
		j.events = append(j.events, ev)
		j.progressIdx = len(j.events) - 1
	}
	m.sendLocked(j, ev)
}

// fanoutLocked appends ev to the history and sends it to subscribers.
func (m *Manager) fanoutLocked(j *job, ev Event) {
	j.events = append(j.events, ev)
	m.sendLocked(j, ev)
}

// sendLocked delivers ev to subscribers, dropping it for any whose
// buffer is full — a slow SSE consumer loses intermediate events, never
// the terminal state (the handler re-reads the job after the channel
// closes).
func (m *Manager) sendLocked(j *job, ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// snapshot renders the job's public view. Called with m.mu held.
func (j *job) snapshot(payloads bool) Snapshot {
	s := Snapshot{
		ID:         j.id,
		Kind:       j.kind,
		State:      j.state,
		Priority:   j.priority,
		Created:    j.created,
		AttachedTo: j.attachedTo,
		Error:      j.jerr,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
		s.QueueMS = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if payloads {
		s.Request = j.payload
		s.Result = j.result
	}
	return s
}
