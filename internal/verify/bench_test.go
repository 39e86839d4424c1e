package verify

import (
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/workload"
)

// sweepItem is one compiled point of the benchmark corpus.
type sweepItem struct {
	circ    *circuit.Circuit
	prog    *isa.Program
	initial *layout.Layout
}

// sweepCorpus compiles a miniature verification sweep: three schemes x
// seven seeds at 16 qubits, like cmd/experiments -verify.
func sweepCorpus(b *testing.B) []sweepItem {
	var items []sweepItem
	for seed := int64(1); seed <= 7; seed++ {
		cfg := workload.RandomConfig{Qubits: 16, Blocks: 4, Density: 0.4}
		circ := workload.Random(cfg, seed)
		hw := workload.RandomArch(cfg.Qubits, seed)
		for scheme := 0; scheme < 3; scheme++ {
			var (
				p   *compiler.Pipeline
				err error
			)
			switch scheme {
			case 0:
				p, err = compiler.Enola(compiler.EnolaConfig{Seed: seed})
			case 1:
				p, err = compiler.Zoned(compiler.ZonedConfig{UseStorage: false})
			default:
				p, err = compiler.Zoned(compiler.ZonedConfig{UseStorage: true})
			}
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.Run(circ, hw)
			if err != nil {
				b.Fatal(err)
			}
			items = append(items, sweepItem{circ, res.Program, res.Initial})
		}
	}
	return items
}

// BenchmarkVerifySweep measures the verification of the 21-item sweep
// corpus: All per item.
func BenchmarkVerifySweep(b *testing.B) {
	items := sweepCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			if r := All(it.circ, it.prog, it.initial); !r.OK() {
				b.Fatalf("sweep item failed verification:\n%s", r)
			}
		}
	}
}
