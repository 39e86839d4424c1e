package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateRunner blocks each job until released (or its ctx cancels),
// recording which jobs ran.
type gateRunner struct {
	mu      sync.Mutex
	ran     []string
	gates   map[string]chan struct{} // keyed by job kind; nil gate = run immediately
	started chan string
}

func newGateRunner() *gateRunner {
	return &gateRunner{gates: make(map[string]chan struct{}), started: make(chan string, 64)}
}

func (g *gateRunner) gate(kind string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	g.gates[kind] = ch
	return ch
}

func (g *gateRunner) run(ctx context.Context, snap Snapshot, progress func(done, total int)) (json.RawMessage, error) {
	g.mu.Lock()
	gate := g.gates[snap.Kind]
	g.mu.Unlock()
	select {
	case g.started <- snap.ID:
	default:
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	g.mu.Lock()
	g.ran = append(g.ran, snap.ID)
	g.mu.Unlock()
	return json.RawMessage(fmt.Sprintf(`{"job":%q}`, snap.ID)), nil
}

func (g *gateRunner) didRun(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.ran {
		if r == id {
			return true
		}
	}
	return false
}

func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if snap.State == want {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, snap.State, want)
	return Snapshot{}
}

// TestShedAtDepth: the queue admits exactly Depth jobs beyond the ones
// running; the next submission sheds with ErrFull and is counted.
func TestShedAtDepth(t *testing.T) {
	g := newGateRunner()
	release := g.gate("blocked")
	m := NewManager(Config{Depth: 3, Workers: 1, Run: g.run})
	defer m.Close()

	// Occupy the single worker.
	if _, err := m.Submit(Spec{Kind: "blocked"}); err != nil {
		t.Fatal(err)
	}
	<-g.started

	// Fill the queue to depth.
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(Spec{Kind: "blocked"}); err != nil {
			t.Fatalf("submission %d within depth: %v", i, err)
		}
	}
	if _, err := m.Submit(Spec{Kind: "blocked"}); !errors.Is(err, ErrFull) {
		t.Fatalf("submission beyond depth: err = %v, want ErrFull", err)
	}
	met := m.Metrics()
	if met.Shed != 1 || met.Depth != 3 || met.Capacity != 3 {
		t.Errorf("metrics = depth %d/%d shed %d, want 3/3 with 1 shed", met.Depth, met.Capacity, met.Shed)
	}
	close(release)
}

// TestPriorityFIFO: higher priority pops first; equal priorities run in
// submission order.
func TestPriorityFIFO(t *testing.T) {
	g := newGateRunner()
	release := g.gate("plug")
	m := NewManager(Config{Depth: 10, Workers: 1, Run: g.run})
	defer m.Close()

	if _, err := m.Submit(Spec{Kind: "plug"}); err != nil {
		t.Fatal(err)
	}
	<-g.started

	var ids []string
	for _, p := range []int{0, 2, 0, 2, 5} {
		s, err := m.Submit(Spec{Kind: "w", Priority: p})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	close(release)
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}

	g.mu.Lock()
	order := append([]string(nil), g.ran...)
	g.mu.Unlock()
	// ran[0] is the plug; expect 5, then the 2s in order, then the 0s.
	want := []string{ids[4], ids[1], ids[3], ids[0], ids[2]}
	for i, id := range want {
		if order[i+1] != id {
			t.Fatalf("run order %v, want plug then %v", order, want)
		}
	}
	if h := m.Metrics().QueueLatency; h.Count != 6 {
		t.Errorf("latency histogram observed %d starts, want 6", h.Count)
	}
}

// TestCancelQueued: a job canceled while queued never runs and frees
// its queue slot.
func TestCancelQueued(t *testing.T) {
	g := newGateRunner()
	release := g.gate("plug")
	m := NewManager(Config{Depth: 2, Workers: 1, Run: g.run})
	defer m.Close()

	if _, err := m.Submit(Spec{Kind: "plug"}); err != nil {
		t.Fatal(err)
	}
	<-g.started
	victim, err := m.Submit(Spec{Kind: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Cancel(victim.ID)
	if err != nil || snap.State != StateCanceled {
		t.Fatalf("Cancel = %+v, %v; want immediate canceled", snap, err)
	}
	if snap.Error == nil || snap.Error.Code != "canceled" {
		t.Errorf("canceled job error = %+v, want code canceled", snap.Error)
	}
	// The slot freed: two more submissions fit in a depth-2 queue.
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(Spec{Kind: "filler"}); err != nil {
			t.Fatalf("slot not freed after queued cancel: %v", err)
		}
	}
	close(release)
	waitState(t, m, victim.ID, StateCanceled)
	time.Sleep(20 * time.Millisecond) // let the queue drain fully
	if g.didRun(victim.ID) {
		t.Error("canceled-while-queued job was executed")
	}
	if _, err := m.Cancel(victim.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("re-cancel of terminal job: err = %v, want ErrTerminal", err)
	}
}

// TestCancelRunning: canceling a running job cancels its Runner ctx and
// settles it as canceled.
func TestCancelRunning(t *testing.T) {
	g := newGateRunner()
	g.gate("blocked") // never released: only ctx can free the runner
	m := NewManager(Config{Depth: 4, Workers: 1, Run: g.run})
	defer m.Close()

	snap, err := m.Submit(Spec{Kind: "blocked"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, snap.ID, StateCanceled)
	if final.Error == nil || final.Error.Code != "canceled" {
		t.Errorf("error = %+v, want canceled code", final.Error)
	}
	if g.didRun(snap.ID) {
		t.Error("canceled runner recorded a completed run")
	}
}

// TestFailedJob: a Runner error surfaces as failed with the mapped code.
func TestFailedJob(t *testing.T) {
	sentinel := errors.New("boom")
	m := NewManager(Config{Depth: 4, Workers: 1,
		Run: func(ctx context.Context, snap Snapshot, progress func(int, int)) (json.RawMessage, error) {
			return nil, sentinel
		},
		CodeOf: func(err error) string {
			if errors.Is(err, sentinel) {
				return "invalid_request"
			}
			return "internal"
		},
	})
	defer m.Close()
	snap, err := m.Submit(Spec{Kind: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, snap.ID, StateFailed)
	if final.Error == nil || final.Error.Code != "invalid_request" || final.Error.Message != "boom" {
		t.Errorf("failed job error = %+v", final.Error)
	}
	if met := m.Metrics(); met.Failed != 1 {
		t.Errorf("failed counter = %d, want 1", met.Failed)
	}
}

// TestRunnerPanicFailsOnlyThatJob: a Runner that panics on one job
// marks that job failed with code "internal" — whatever CodeOf says —
// and the one worker goes on to complete the next job.
func TestRunnerPanicFailsOnlyThatJob(t *testing.T) {
	m := NewManager(Config{Depth: 4, Workers: 1,
		Run: func(ctx context.Context, snap Snapshot, progress func(int, int)) (json.RawMessage, error) {
			if snap.Kind == "bad" {
				panic("runner bug")
			}
			return json.RawMessage(`{"ok":true}`), nil
		},
		CodeOf: func(error) string { return "invalid_request" },
	})
	defer m.Close()
	bad, err := m.Submit(Spec{Kind: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.Submit(Spec{Kind: "good"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, bad.ID, StateFailed)
	if final.Error == nil || final.Error.Code != "internal" || !strings.Contains(final.Error.Message, "runner bug") ||
		strings.Contains(final.Error.Message, "goroutine ") {
		t.Errorf("panicked job error = %+v", final.Error)
	}
	waitState(t, m, good.ID, StateDone)
	if got := m.Panics(); got != 1 {
		t.Errorf("Panics() = %d, want 1", got)
	}
}

// TestTTLPurge: finished jobs vanish after the TTL; running jobs are
// retained.
func TestTTLPurge(t *testing.T) {
	g := newGateRunner()
	g.gate("held")
	m := NewManager(Config{Depth: 4, Workers: 2, TTL: 10 * time.Millisecond, GCInterval: 5 * time.Millisecond, Run: g.run})
	defer m.Close()

	done, err := m.Submit(Spec{Kind: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	held, err := m.Submit(Spec{Kind: "held"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, done.ID, StateDone)

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := m.Get(done.ID); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job not purged after TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Get(held.ID); err != nil {
		t.Errorf("running job purged: %v", err)
	}
}

// TestEvents: subscribers replay history and receive live transitions;
// progress events collapse in history but stream live.
func TestEvents(t *testing.T) {
	progressed := make(chan struct{})
	release := make(chan struct{})
	m := NewManager(Config{Depth: 4, Workers: 1,
		Run: func(ctx context.Context, snap Snapshot, progress func(int, int)) (json.RawMessage, error) {
			progress(1, 3)
			progress(2, 3)
			close(progressed)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return json.RawMessage(`{"ok":true}`), nil
		},
	})
	defer m.Close()

	snap, err := m.Submit(Spec{Kind: "ev"})
	if err != nil {
		t.Fatal(err)
	}
	<-progressed
	history, ch, cancel, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// History: queued state, running state, one collapsed progress.
	var progressEvents, stateEvents int
	for _, ev := range history {
		switch ev.Name {
		case "progress":
			progressEvents++
		case "state":
			stateEvents++
		}
	}
	if stateEvents != 2 || progressEvents != 1 {
		t.Fatalf("history = %d state / %d progress events, want 2/1 (collapsed)", stateEvents, progressEvents)
	}
	var last struct {
		Done, Total int
	}
	if err := json.Unmarshal(history[len(history)-1].Data, &last); err != nil || last.Done != 2 {
		t.Errorf("collapsed progress = %+v (%v), want latest point (2/3)", last, err)
	}

	close(release)
	var sawDone bool
	for ev := range ch {
		if ev.Name == "state" {
			var sd struct {
				State State `json:"state"`
			}
			json.Unmarshal(ev.Data, &sd)
			if sd.State == StateDone {
				sawDone = true
			}
		}
	}
	if !sawDone {
		t.Error("live channel closed without delivering the done state")
	}

	// Subscribing to a terminal job: history only, nil channel.
	history2, ch2, _, err := m.Subscribe(snap.ID)
	if err != nil || ch2 != nil || len(history2) == 0 {
		t.Errorf("terminal subscribe = %d events, ch=%v, err=%v", len(history2), ch2, err)
	}
}

// TestListFilter: state/kind filters and the recency limit.
func TestListFilter(t *testing.T) {
	g := newGateRunner()
	g.gate("held")
	m := NewManager(Config{Depth: 8, Workers: 1, Run: g.run})
	defer m.Close()

	held, _ := m.Submit(Spec{Kind: "held"})
	<-g.started
	var quick []Snapshot
	for i := 0; i < 3; i++ {
		s, err := m.Submit(Spec{Kind: "quick"})
		if err != nil {
			t.Fatal(err)
		}
		quick = append(quick, s)
	}
	canceled, _ := m.Submit(Spec{Kind: "quick"})
	m.Cancel(canceled.ID)
	waitState(t, m, canceled.ID, StateCanceled)

	if got := m.List(Filter{Kind: "held"}); len(got) != 1 || got[0].ID != held.ID {
		t.Errorf("kind filter returned %d jobs", len(got))
	}
	if got := m.List(Filter{State: StateCanceled}); len(got) != 1 || got[0].ID != canceled.ID {
		t.Errorf("state filter returned %d jobs", len(got))
	}
	if got := m.List(Filter{Limit: 2}); len(got) != 2 || got[1].ID != canceled.ID {
		t.Errorf("limit filter = %d jobs, want the 2 most recent", len(got))
	}
	if got := m.List(Filter{}); len(got) != 5 {
		t.Errorf("unfiltered list = %d jobs, want 5", len(got))
	} else if got[0].Request != nil || got[0].Result != nil {
		t.Error("list snapshots must omit request/result payloads")
	}
	_ = quick
}

// TestCloseCancelsRunning: Close cancels in-flight runners and rejects
// new submissions.
func TestCloseCancelsRunning(t *testing.T) {
	g := newGateRunner()
	g.gate("held")
	m := NewManager(Config{Depth: 4, Workers: 1, Run: g.run})
	snap, err := m.Submit(Spec{Kind: "held"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	m.Close()
	waitState(t, m, snap.ID, StateCanceled)
	if _, err := m.Submit(Spec{Kind: "late"}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestConcurrentChurn hammers submit/cancel/get from many goroutines;
// meaningful under -race.
func TestConcurrentChurn(t *testing.T) {
	var runs atomic.Int64
	m := NewManager(Config{Depth: 64, Workers: 4,
		Run: func(ctx context.Context, snap Snapshot, progress func(int, int)) (json.RawMessage, error) {
			runs.Add(1)
			progress(1, 1)
			return json.RawMessage(`{}`), nil
		},
	})
	defer m.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				snap, err := m.Submit(Spec{Kind: "churn", Priority: i % 3})
				if errors.Is(err, ErrFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 4 {
				case 0:
					m.Cancel(snap.ID)
				case 1:
					m.Get(snap.ID)
				case 2:
					if _, ch, cancel, err := m.Subscribe(snap.ID); err == nil {
						go func() {
							for range ch {
							}
						}()
						defer cancel()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		met := m.Metrics()
		if met.Depth == 0 && met.Running == 0 {
			if met.Done+met.Failed+met.Canceled != met.Submitted {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("queue never drained: %+v", m.Metrics())
}
