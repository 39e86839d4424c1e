package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/isa"
	"powermove/internal/workload"
)

// incrCircuit builds a deterministic multi-block circuit; mutTail != 0
// perturbs the last block, mutHead != 0 the first.
func incrCircuit(n, blocks, mutHead, mutTail int) *circuit.Circuit {
	c := circuit.New("incr", n)
	for i := 0; i < blocks; i++ {
		a := i % (n - 3)
		oneQ := i % 3
		if i == 0 {
			oneQ += mutHead
		}
		if i == blocks-1 {
			oneQ += mutTail
		}
		c.AddBlock(oneQ, circuit.NewCZ(a, a+1), circuit.NewCZ(a+2, a+3))
	}
	return c
}

// incrJob wraps circ as a with-storage job under bench (distinct benches
// defeat the outcome cache so the snapshot path actually runs).
func incrJob(bench string, circ *circuit.Circuit, aods int) Job {
	return circJob(bench, circ, WithStorage, aods)
}

func circJob(bench string, circ *circuit.Circuit, scheme Scheme, aods int) Job {
	return NewJob(bench, scheme, aods, func() (*circuit.Circuit, error) { return circ, nil })
}

// compile runs job alone on a private cache — through snaps, or cold
// when snaps is nil, the byte-identity reference — and returns its
// result and compiled program.
func compile(t *testing.T, snaps *SnapshotStore, job Job) (Result, *isa.Program) {
	t.Helper()
	var prog *isa.Program
	job.Keep = func(a Artifacts) { prog = a.Program }
	results, _, err := Run(context.Background(), []Job{job},
		Options{Workers: 1, Cache: NewCache(), Snapshots: snaps})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	return results[0], prog
}

// identical asserts a snapshot-assisted outcome is byte-identical to
// the cold reference: same stabilized outcome (counters, fidelity,
// per-pass calls and counter deltas) and same program.
func identical(t *testing.T, label string, got, want Result, gotProg, wantProg *isa.Program) {
	t.Helper()
	g, w := got.Outcome, want.Outcome
	g.Tcomp, w.Tcomp = 0, 0
	g.Passes = g.Passes.Stabilized()
	w.Passes = w.Passes.Stabilized()
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: outcome diverged from cold compile:\n got %+v\nwant %+v", label, g, w)
	}
	if gotProg != nil && wantProg != nil && !reflect.DeepEqual(gotProg.Instr, wantProg.Instr) {
		t.Errorf("%s: program diverged from cold compile", label)
	}
}

// TestIncrementalPrefixReuse is the prefix-reuse correctness table: a
// request sharing a block prefix with a cached compile resumes (and
// stays byte-identical to cold); a divergent first block gets no
// prefix; an identical circuit under a different bench replays the full
// prefix; an architecture change invalidates everything.
func TestIncrementalPrefixReuse(t *testing.T) {
	const n, blocks = 12, 10
	seedCirc := incrCircuit(n, blocks, 0, 0)

	cases := []struct {
		name       string
		circ       *circuit.Circuit
		aods       int
		prefixHits int64 // delta expected from this request
	}{
		{"identical-other-bench", incrCircuit(n, blocks, 0, 0), 1, 1},
		{"shared-prefix-tail-mutated", incrCircuit(n, blocks, 0, 2), 1, 1},
		{"divergent-first-block", incrCircuit(n, blocks, 2, 0), 1, 0},
		{"arch-change-full-invalidation", incrCircuit(n, blocks, 0, 0), 2, 0},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snaps := NewSnapshotStore(0)
			// Seed the store with the donor compile (cold: empty store).
			seedRes, seedProg := compile(t, snaps, incrJob("seed", seedCirc, 1))
			if st := snaps.Stats(); st.PrefixHits != 0 || st.Entries != 1 {
				t.Fatalf("seeding: stats = %+v, want 1 entry, 0 hits", st)
			}
			coldSeed, coldSeedProg := compile(t, nil, incrJob("seed", seedCirc, 1))
			identical(t, "seed", seedRes, coldSeed, seedProg, coldSeedProg)

			before := snaps.Stats()
			bench := fmt.Sprintf("case-%d", i)
			res, prog := compile(t, snaps, incrJob(bench, tc.circ, tc.aods))
			after := snaps.Stats()
			if got := after.PrefixHits - before.PrefixHits; got != tc.prefixHits {
				t.Errorf("prefix hits delta = %d, want %d", got, tc.prefixHits)
			}
			if after.Probes != before.Probes+1 {
				t.Errorf("probes delta = %d, want 1", after.Probes-before.Probes)
			}
			if tc.prefixHits > 0 && after.SavedMS <= before.SavedMS {
				t.Errorf("prefix hit did not grow the saved-time ledger: %v -> %v", before.SavedMS, after.SavedMS)
			}

			// Every row of the table — resumed or cold — must be
			// byte-identical to a cold compile of its circuit.
			coldRef, coldProg := compile(t, nil, incrJob(bench, tc.circ, tc.aods))
			identical(t, tc.name, res, coldRef, prog, coldProg)
		})
	}
}

// TestIncrementalLRU: the store retains at most its capacity, evicting
// least-recently-used entries.
func TestIncrementalLRU(t *testing.T) {
	const n, blocks = 12, 4
	snaps := NewSnapshotStore(2)
	for i := 0; i < 3; i++ {
		compile(t, snaps, incrJob(fmt.Sprintf("lru-%d", i), incrCircuit(n+2*i, blocks, 0, 0), 1))
	}
	if st := snaps.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2 after eviction", st.Entries)
	}
}

// TestIncrementalConcurrent hammers one store from concurrent compiles
// of related circuits; run under -race this pins the locking. Every
// result must still be byte-identical to its cold compile.
func TestIncrementalConcurrent(t *testing.T) {
	const n, blocks, workers = 12, 8, 8
	snaps := NewSnapshotStore(0)
	colds := make([]Result, workers)
	circs := make([]*circuit.Circuit, workers)
	for i := range circs {
		circs[i] = incrCircuit(n, blocks, 0, i%3)
		colds[i], _ = compile(t, nil, incrJob(fmt.Sprintf("conc-%d", i), circs[i], 1))
	}
	var wg sync.WaitGroup
	results := make([]Result, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, _, err := Run(context.Background(), []Job{incrJob(fmt.Sprintf("conc-%d", i), circs[i], 1)},
				Options{Workers: 1, Cache: NewCache(), Snapshots: snaps})
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = rs[0], rs[0].Err
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent-%d: %v", i, errs[i])
		}
		identical(t, fmt.Sprintf("concurrent-%d", i), results[i], colds[i], nil, nil)
	}
}

// TestIncrementalBenchmarkFamilies runs the benchmark's own kinds of
// input through one shared store: two seeded instances of every Fig. 6
// family at its smallest panel size, under both PowerMove schemes at 1
// and 2 AODs, then a deep QAOA-regular3 circuit and two one-gate edits
// of its last block, as an edit-async session sends them. Every outcome
// and program must be byte-identical to its cold compile, and some
// compiles must resume from a shared prefix.
func TestIncrementalBenchmarkFamilies(t *testing.T) {
	families := []struct {
		name string
		gen  func(seed int64) *circuit.Circuit
	}{
		{"QAOA-regular3-20", func(seed int64) *circuit.Circuit { return workload.QAOARegular(20, 3, seed) }},
		{"QSIM-rand-10", func(seed int64) *circuit.Circuit { return workload.QSim(10, seed) }},
		{"QFT-18", func(int64) *circuit.Circuit { return workload.QFT(18) }},
		{"VQE-10", func(int64) *circuit.Circuit { return workload.VQE(10) }},
		{"BV-14", func(seed int64) *circuit.Circuit { return workload.BV(14, seed) }},
	}
	var jobs []Job
	for _, f := range families {
		for _, scheme := range []Scheme{NonStorage, WithStorage} {
			for _, aods := range []int{1, 2} {
				for seed := int64(1); seed <= 2; seed++ {
					bench := fmt.Sprintf("%s@%d", f.name, seed)
					jobs = append(jobs, circJob(bench, f.gen(seed), scheme, aods))
				}
			}
		}
	}
	// edit drops gate k of the last ZZ block; k < 0 keeps the base.
	edit := func(k int) *circuit.Circuit {
		c := workload.QAOARegularP(30, 3, 3, 11)
		if k >= 0 {
			i := len(c.Blocks) - 1
			for len(c.Blocks[i].Gates) == 0 {
				i--
			}
			g := c.Blocks[i].Gates
			c.Blocks[i].Gates = append(g[:k:k], g[k+1:]...)
		}
		return c
	}
	for k := -1; k < 2; k++ {
		jobs = append(jobs, incrJob(fmt.Sprintf("QAOA-regular3-30-p3-edit%d", k), edit(k), 1))
	}

	snaps := NewSnapshotStore(0)
	for i, job := range jobs {
		label := fmt.Sprintf("%s/%s/%daod", job.Key.Bench, job.Key.Scheme, job.Key.AODs)
		hits := snaps.Stats().PrefixHits
		got, gotProg := compile(t, snaps, job)
		want, wantProg := compile(t, nil, job)
		identical(t, label, got, want, gotProg, wantProg)
		if i >= len(jobs)-2 && snaps.Stats().PrefixHits != hits+1 {
			t.Errorf("%s: the tail edit did not resume from a shared prefix", label)
		}
	}
	st := snaps.Stats()
	if st.Probes != int64(len(jobs)) || st.PrefixHits == 0 {
		t.Errorf("store stats = %+v, want %d probes and some prefix hits", st, len(jobs))
	}
}
