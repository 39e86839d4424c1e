package pipeline_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"powermove/internal/circuit"
	"powermove/internal/pipeline"
)

// The tests in this file pin the cache entry's rule: a compile takes a
// slot of Options.Sem only while it compiles, every request for a key
// waits on the key's one entry under its own context, and the compile
// is canceled only when its last waiter leaves.

func tiny() (*circuit.Circuit, error) {
	c := circuit.New("tiny", 4)
	c.AddBlock(0, circuit.NewCZ(0, 1), circuit.NewCZ(2, 3))
	return c, nil
}

// gatedJob is a job whose circuit generator — which runs inside the
// cache's computation, holding a compile slot — signals entered and then
// blocks until release is closed.
func gatedJob(bench string, entered chan<- struct{}, release <-chan struct{}) pipeline.Job {
	return pipeline.NewJob(bench, pipeline.NonStorage, 1, func() (*circuit.Circuit, error) {
		entered <- struct{}{}
		<-release
		return tiny()
	})
}

// countedJob is a job whose circuit generator counts its calls.
func countedJob(bench string, calls *atomic.Int32) pipeline.Job {
	return pipeline.NewJob(bench, pipeline.NonStorage, 1, func() (*circuit.Circuit, error) {
		calls.Add(1)
		return tiny()
	})
}

// runOne runs job alone and returns its result and whichever error the
// run or the job reported.
func runOne(ctx context.Context, job pipeline.Job, opts pipeline.Options) (pipeline.Result, error) {
	results, _, err := pipeline.Run(ctx, []pipeline.Job{job}, opts)
	if err != nil {
		return pipeline.Result{}, err
	}
	return results[0], results[0].Err
}

type ran struct {
	r   pipeline.Result
	err error
}

// goRun runs job alone in the background.
func goRun(ctx context.Context, job pipeline.Job, opts pipeline.Options) <-chan ran {
	ch := make(chan ran, 1)
	go func() {
		r, err := runOne(ctx, job, opts)
		ch <- ran{r, err}
	}()
	return ch
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

// blockSlot starts a compile of key "blocker" that holds one slot of
// opts.Sem until the returned release func is called; release waits for
// it to finish.
func blockSlot(t *testing.T, opts pipeline.Options) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	done := goRun(context.Background(), gatedJob("blocker", entered, gate), opts)
	<-entered
	return func() {
		close(gate)
		if d := <-done; d.err != nil {
			t.Fatalf("blocker: %v", d.err)
		}
	}
}

// TestResidentKeyNeedsNoSlot: a request for a resident key is served
// while the only compile slot is held by a running compile — a hit
// never waits for a slot.
func TestResidentKeyNeedsNoSlot(t *testing.T) {
	opts := pipeline.Options{Workers: 1, Cache: pipeline.NewCache(), Sem: make(chan struct{}, 1)}
	resident := pipeline.NewJob("resident", pipeline.NonStorage, 1, tiny)
	if _, err := runOne(context.Background(), resident, opts); err != nil {
		t.Fatal(err)
	}
	release := blockSlot(t, opts)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	r, err := runOne(ctx, resident, opts)
	if err != nil {
		t.Fatalf("resident key not served while the only slot is held: %v", err)
	}
	if !r.Cached {
		t.Error("resident key reported a fresh compile")
	}
}

// TestWaiterHoldsNoSlot: with two slots, a request waiting on another
// request's compile of key k holds no slot, so a request for key j
// still compiles and completes while k's compile holds the other.
func TestWaiterHoldsNoSlot(t *testing.T) {
	cache := pipeline.NewCache()
	opts := pipeline.Options{Workers: 1, Cache: cache, Sem: make(chan struct{}, 2)}
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	k := gatedJob("k", entered, gate)
	first := goRun(context.Background(), k, opts)
	<-entered
	second := goRun(context.Background(), k, opts)
	waitFor(t, func() bool { return cache.Joins() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := runOne(ctx, pipeline.NewJob("j", pipeline.NonStorage, 1, tiny), opts)
	if err != nil || r.Cached {
		t.Fatalf("key j while k compiled and a request waited on k: cached=%v err=%v", r.Cached, err)
	}

	close(gate)
	for _, ch := range []<-chan ran{first, second} {
		if d := <-ch; d.err != nil {
			t.Fatal(d.err)
		}
	}
	if got := cache.Compiles(); got != 2 {
		t.Errorf("Compiles() = %d, want 2 (k once, j once)", got)
	}
}

// TestLastWaiterLeavingDropsCompile: when the only request for a key
// leaves while its compile still waits for a slot, the compile is
// dropped — it never runs, even after the slot frees — and a later
// request for the key compiles once, with no trace of the cancellation.
func TestLastWaiterLeavingDropsCompile(t *testing.T) {
	cache := pipeline.NewCache()
	opts := pipeline.Options{Workers: 1, Cache: cache, Sem: make(chan struct{}, 1)}
	release := blockSlot(t, opts)

	var calls atomic.Int32
	k := countedJob("k", &calls)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := goRun(ctx, k, opts)
	waitFor(t, func() bool { return cache.Len() == 2 }) // k's entry waits for the slot
	cancel()
	if d := <-waiter; !errors.Is(d.err, context.Canceled) {
		t.Fatalf("leaving request got %v, want context.Canceled", d.err)
	}

	release()
	waitFor(t, func() bool { return cache.Len() == 1 }) // k's dropped entry is evicted
	if got := cache.Compiles(); got != 1 || calls.Load() != 0 {
		t.Fatalf("after the slot freed: Compiles() = %d, k generated %d times; want 1 and 0 (only the blocker compiled)", got, calls.Load())
	}

	r, err := runOne(context.Background(), k, opts)
	if err != nil || r.Cached || r.Outcome.Stages == 0 {
		t.Fatalf("later request: cached=%v err=%v outcome=%+v; want a fresh compile", r.Cached, err, r.Outcome)
	}
	if got := cache.Compiles(); got != 2 || calls.Load() != 1 {
		t.Errorf("Compiles() = %d, k generated %d times; want 2 and 1", got, calls.Load())
	}
}

// TestWaiterLeavingKeepsCompileForOthers: when the request that started
// a compile leaves while another request still waits for it, the compile
// goes on, and the other request gets its outcome from that one compile.
func TestWaiterLeavingKeepsCompileForOthers(t *testing.T) {
	cache := pipeline.NewCache()
	opts := pipeline.Options{Workers: 1, Cache: cache, Sem: make(chan struct{}, 1)}
	release := blockSlot(t, opts)

	var calls atomic.Int32
	k := countedJob("k", &calls)
	ctx, cancel := context.WithCancel(context.Background())
	starter := goRun(ctx, k, opts)
	waitFor(t, func() bool { return cache.Len() == 2 }) // k's entry waits for the slot
	other := goRun(context.Background(), k, opts)
	waitFor(t, func() bool { return cache.Joins() == 1 })
	cancel()
	if d := <-starter; !errors.Is(d.err, context.Canceled) {
		t.Fatalf("leaving request got %v, want context.Canceled", d.err)
	}

	release()
	d := <-other
	if d.err != nil || d.r.Outcome.Stages == 0 {
		t.Fatalf("remaining waiter: err=%v outcome=%+v", d.err, d.r.Outcome)
	}
	if calls.Load() != 1 || cache.Compiles() != 2 {
		t.Errorf("k generated %d times, Compiles() = %d; want 1 and 2 (blocker and k)", calls.Load(), cache.Compiles())
	}
}

// gateTier is a second tier whose reads signal entered and block until
// release is closed, then miss.
type gateTier struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gateTier) Get(pipeline.Key, string) (pipeline.Outcome, bool) {
	g.entered <- struct{}{}
	<-g.release
	return pipeline.Outcome{}, false
}

func (g *gateTier) Put(pipeline.Key, string, pipeline.Outcome) {}

// TestLeftEntryIsReplaced: a request that arrives after the last waiter
// of a computation left, while that computation is still on its way to
// a slot, starts afresh instead of joining it, so it never receives the
// cancellation of the request that left.
func TestLeftEntryIsReplaced(t *testing.T) {
	tier := &gateTier{entered: make(chan struct{}, 2), release: make(chan struct{})}
	cache := pipeline.NewCache()
	cache.SetTier(tier)
	opts := pipeline.Options{Workers: 1, Cache: cache, Sem: make(chan struct{}, 1)}
	var calls atomic.Int32
	k := countedJob("k", &calls)

	ctx, cancel := context.WithCancel(context.Background())
	left := goRun(ctx, k, opts)
	<-tier.entered // the first computation reads the tier
	cancel()
	if d := <-left; !errors.Is(d.err, context.Canceled) {
		t.Fatalf("leaving request got %v, want context.Canceled", d.err)
	}
	later := goRun(context.Background(), k, opts)
	select {
	case <-tier.entered: // a second computation started
	case <-time.After(5 * time.Second):
		t.Fatal("the later request joined the computation whose last waiter left")
	}
	close(tier.release)
	d := <-later
	if d.err != nil || d.r.Cached || d.r.Outcome.Stages == 0 {
		t.Fatalf("later request: cached=%v err=%v outcome=%+v; want its own fresh compile", d.r.Cached, d.err, d.r.Outcome)
	}
	if calls.Load() != 1 || cache.Joins() != 0 {
		t.Errorf("k generated %d times, Joins() = %d; want 1 and 0", calls.Load(), cache.Joins())
	}
}
