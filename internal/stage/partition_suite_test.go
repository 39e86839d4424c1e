package stage_test

import (
	"math/rand"
	"slices"
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/experiments"
	"powermove/internal/stage"
)

// sameStages reports whether a and b hold the same stages in the same
// order, with the gates of each stage in the same order.
func sameStages(a, b []stage.Stage) bool {
	return slices.EqualFunc(a, b, func(x, y stage.Stage) bool { return slices.Equal(x.Gates, y.Gates) })
}

// TestPartitionMatchesReference pins Partition to the frozen copies of
// the map-grouping Partition and the allocating matchingPartition: the
// same stages, with gates in the same order, on random blocks with their
// gates in random order and on every block of every evaluated instance.
func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(30)
		p := rng.Float64()
		var gates []circuit.CZ
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					gates = append(gates, circuit.NewCZ(u, v))
				}
			}
		}
		rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
		if got, want := stage.Partition(gates), stage.RefPartition(gates); !sameStages(got, want) {
			t.Fatalf("trial %d: Partition(%v)\n = %v\nwant %v", trial, gates, got, want)
		}
	}
	specs := experiments.Table2Specs()
	for _, f := range experiments.Figure6Families() {
		for _, n := range experiments.Figure6Sizes(f) {
			specs = append(specs, experiments.Spec{Family: f, Qubits: n})
		}
	}
	specs = append(specs, experiments.Figure7Specs()...)
	for _, spec := range specs {
		circ, err := spec.Circuit()
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range circ.Blocks {
			if got, want := stage.Partition(b.Gates), stage.RefPartition(b.Gates); !sameStages(got, want) {
				t.Fatalf("%s block %d: Partition differs from the frozen reference\n got %v\nwant %v", spec, bi, got, want)
			}
		}
	}
}

// BenchmarkPartition times Partition on the blocks of three instances:
// QAOA-random-100's one dense block (about 2,400 gates, largest qubit
// degree about 60), QAOA-regular3-100's 150-gate block, and the 59 star
// blocks of QFT-60.
func BenchmarkPartition(b *testing.B) {
	for _, spec := range []experiments.Spec{
		{Family: experiments.QAOARandom, Qubits: 100},
		{Family: experiments.QAOARegular3, Qubits: 100},
		{Family: experiments.QFT, Qubits: 60},
	} {
		circ, err := spec.Circuit()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, blk := range circ.Blocks {
					sink = stage.Partition(blk.Gates)
				}
			}
		})
	}
}

// sink keeps the benchmarked call's result live.
var sink []stage.Stage
