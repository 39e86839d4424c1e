package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/store"
)

// memTier is an in-memory Tier for observing read-through/write-through
// behavior.
type memTier struct {
	mu   sync.Mutex
	m    map[Key]Outcome
	gets int
	puts int
}

func (t *memTier) Get(key Key, canon string) (Outcome, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	o, ok := t.m[key]
	return o, ok
}

func (t *memTier) Put(key Key, canon string, o Outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[Key]Outcome)
	}
	t.m[key] = o
	t.puts++
}

func tierJob(n int) Job {
	return NewJob("tier-test", WithStorage, 1, func() (*circuit.Circuit, error) {
		c := circuit.New("tier-test", n)
		c.AddBlock(0, circuit.NewCZ(0, 1))
		return c, nil
	})
}

// TestTierWriteThrough: a fresh compile lands in the tier; a second
// cache over the same tier serves it without compiling, reporting the
// job cached.
func TestTierWriteThrough(t *testing.T) {
	tier := &memTier{}
	c1 := NewCache()
	c1.SetTier(tier)
	results, stats, err := Run(context.Background(), []Job{tierJob(4)}, Options{Workers: 1, Cache: c1})
	if err != nil || results[0].Err != nil {
		t.Fatal(err, results[0].Err)
	}
	if results[0].Cached || stats.Compiles != 1 {
		t.Fatalf("cold run: cached=%v compiles=%d, want fresh compile", results[0].Cached, stats.Compiles)
	}
	if tier.puts != 1 {
		t.Fatalf("tier puts = %d, want 1 (write-through)", tier.puts)
	}

	c2 := NewCache() // a "restarted" in-memory cache sharing the tier
	c2.SetTier(tier)
	results2, stats2, err := Run(context.Background(), []Job{tierJob(4)}, Options{Workers: 1, Cache: c2})
	if err != nil || results2[0].Err != nil {
		t.Fatal(err, results2[0].Err)
	}
	if !results2[0].Cached || stats2.Compiles != 0 || stats2.CacheHits != 1 {
		t.Fatalf("tier run: cached=%v compiles=%d hits=%d, want tier hit", results2[0].Cached, stats2.Compiles, stats2.CacheHits)
	}
	got, want := results2[0].Outcome, results[0].Outcome
	if got.Fidelity != want.Fidelity || got.Stages != want.Stages || got.Moves != want.Moves {
		t.Errorf("tier outcome diverged: %+v vs %+v", got, want)
	}

	// The in-memory cache now holds the entry: a repeat must not
	// consult the tier again.
	gets := tier.gets
	if _, _, err := Run(context.Background(), []Job{tierJob(4)}, Options{Workers: 1, Cache: c2}); err != nil {
		t.Fatal(err)
	}
	if tier.gets != gets {
		t.Errorf("repeat request consulted the tier (%d -> %d gets)", gets, tier.gets)
	}
}

// TestDiskTierRoundTrip: the store-backed tier round-trips a full
// Outcome — including the pass breakdown and a verify summary — through
// JSON on disk.
func TestDiskTierRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tier := DiskTier(st)

	job := tierJob(4)
	job.Key.Verify = true
	c1 := NewCache()
	c1.SetTier(tier)
	results, _, err := Run(context.Background(), []Job{job}, Options{Workers: 1, Cache: c1})
	if err != nil || results[0].Err != nil {
		t.Fatal(err, results[0].Err)
	}
	want := results[0].Outcome
	if want.Verify == nil || len(want.Passes) == 0 {
		t.Fatalf("test outcome lacks verify/passes: %+v", want)
	}

	got, ok := tier.Get(job.Key, job.Key.String())
	if !ok {
		t.Fatal("disk tier missed a just-written key")
	}
	if got.Fidelity != want.Fidelity || got.Stages != want.Stages ||
		got.Verify == nil || got.Verify.Violations != want.Verify.Violations ||
		len(got.Passes) != len(want.Passes) {
		t.Errorf("disk round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if st.Stats().Hits != 1 {
		t.Errorf("store stats = %+v, want 1 hit", st.Stats())
	}
}

// TestCanceledErrorNotCached: a computation failing with a cancellation
// error must not poison the cache entry for later callers.
func TestCanceledErrorNotCached(t *testing.T) {
	c := NewCache()
	key := Key{Bench: "x", Scheme: WithStorage, AODs: 1}
	_, err, _ := c.getOrCompute(context.Background(), key, key.String(), nil, func() (Outcome, error) {
		return Outcome{}, context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	ran := false
	o, err, hit := c.getOrCompute(context.Background(), key, key.String(), nil, func() (Outcome, error) {
		ran = true
		return Outcome{Stages: 7}, nil
	})
	if !ran || err != nil || hit || o.Stages != 7 {
		t.Errorf("retry after cancellation: ran=%v err=%v hit=%v outcome=%+v; want a fresh compute", ran, err, hit, o)
	}
}
