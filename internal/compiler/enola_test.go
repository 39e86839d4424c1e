package compiler

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/graphutil"
	"powermove/internal/stage"
	"powermove/internal/workload"
)

// bruteMIS returns the size of a maximum independent set of the
// subgraph of g induced by the unremoved vertices (at most 32), by
// branch and bound: branch on the lowest candidate, and prune when the
// candidates left cannot beat the best set found.
func bruteMIS(g *graphutil.Graph, removed []bool) int {
	var verts []int
	index := make([]int, g.N())
	for v := range index {
		index[v] = -1
		if !removed[v] {
			index[v] = len(verts)
			verts = append(verts, v)
		}
	}
	adj := make([]uint32, len(verts))
	for i, v := range verts {
		for _, u := range g.Adjacent(v) {
			if j := index[u]; j >= 0 {
				adj[i] |= 1 << j
			}
		}
	}
	best := 0
	var search func(cand uint32, size int)
	search = func(cand uint32, size int) {
		if size+bits.OnesCount32(cand) <= best {
			return
		}
		if cand == 0 {
			best = size
			return
		}
		v := bits.TrailingZeros32(cand)
		search(cand&^(1<<v)&^adj[v], size+1)
		search(cand&^(1<<v), size)
	}
	search(uint32(1)<<len(verts)-1, 0)
	return best
}

// fuzzCompileVerifySeeds decodes the seed inputs of verify's
// FuzzCompileVerify into the circuits that harness compiles: its inline
// seeds plus its committed corpus, through the same mapping.
func fuzzCompileVerifySeeds(t *testing.T) []*circuit.Circuit {
	t.Helper()
	inputs := [][4]int64{ // seed, qubits, blocks, density
		{1, 8, 3, 30}, {2, 10, 4, 50}, {3, 12, 5, 20}, {4, 6, 2, 80}, {5, 2, 1, 99},
		{6, 14, 6, 10}, {7, 15, 1, 5}, {8, 31, 1, 8}, {9, 47, 0, 6}, {10, 63, 0, 4},
	}
	files, err := filepath.Glob("../verify/testdata/fuzz/FuzzCompileVerify/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzCompileVerify corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var in [7]int64
		if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\nint64(%d)\nint64(%d)\nint64(%d)\nint64(%d)\nint64(%d)\nint64(%d)\nint64(%d)\n",
			&in[0], &in[1], &in[2], &in[3], &in[4], &in[5], &in[6]); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		inputs = append(inputs, [4]int64{in[0], in[1], in[2], in[3]})
	}
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	var out []*circuit.Circuit
	for _, in := range inputs {
		q := abs(in[1])
		n := 2 + q%13
		if q%16 == 15 {
			n = 19 + (q/16)%4
		}
		out = append(out, workload.Random(workload.RandomConfig{
			Qubits:  int(n),
			Blocks:  1 + int(abs(in[2])%6),
			Density: 0.05 + float64(abs(in[3])%100)/110.0,
		}, in[0]))
	}
	return out
}

// TestMatchingBoundIsMaximumIndependentSet pins ν, the bound misStages
// stops its restarts at, to a brute-force maximum independent set of
// the gate conflict graph. It walks the greedy extractions of every
// block of every family at 4 to 30 qubits and of the FuzzCompileVerify
// seeds, checking every remainder of at most 20 gates.
func TestMatchingBoundIsMaximumIndependentSet(t *testing.T) {
	circs := fuzzCompileVerifySeeds(t)
	for n := 4; n <= 30; n++ {
		circs = append(circs,
			workload.QAOARandom(n, int64(n)),
			workload.QFT(n),
			workload.BV(n, int64(n)),
			workload.VQE(n),
			workload.QSim(n, int64(n)),
		)
		if n > 4 {
			circs = append(circs, workload.QAOARegular(n, 4, int64(n)))
		}
		if n%2 == 0 {
			circs = append(circs, workload.QAOARegular(n, 3, int64(n)))
		}
	}
	var bound matchingBound
	checked := 0
	for _, c := range circs {
		for bi, b := range c.Blocks {
			if len(b.Gates) == 0 {
				continue
			}
			g := stage.ConflictGraph(b.Gates)
			removed := make([]bool, len(b.Gates))
			for remaining := len(b.Gates); remaining > 0; {
				nu := bound.of(b.Gates, removed)
				if remaining <= 20 {
					if want := bruteMIS(g, removed); nu != want {
						t.Fatalf("%s block %d, %d gates left: matching bound %d, maximum independent set %d",
							c.Name, bi, remaining, nu, want)
					}
					checked++
				}
				greedy := g.MaximalIndependentSet(removed)
				if len(greedy) > nu {
					t.Fatalf("%s block %d: greedy set of %d gates exceeds the bound %d", c.Name, bi, len(greedy), nu)
				}
				for _, v := range greedy {
					removed[v] = true
				}
				remaining -= len(greedy)
			}
		}
	}
	if checked < 1000 {
		t.Errorf("checked only %d remainders", checked)
	}
}
