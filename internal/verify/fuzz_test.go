package verify

import (
	"reflect"
	"testing"

	"powermove/internal/compiler"
	"powermove/internal/workload"
)

// FuzzCompileVerify is the subsystem's fuzzing harness: it maps the
// fuzzer's raw inputs onto a seeded random circuit (internal/workload's
// generator layer), a randomized architecture, and a pipeline
// configuration, compiles, and demands the result verifies clean under
// the physical legality checker and the equivalence walk. Any violation
// is a real compiler bug: the generated circuits always validate and
// the architectures always have capacity, so compilation must succeed
// and the product must be legal and equivalent.
//
// The committed seed corpus (testdata/fuzz/FuzzCompileVerify) pins one
// input per pipeline x grouping x AOD shape, one per register size from
// 19 to 22 qubits, and every input the fuzzer has failed on (a resumed
// compile whose empty program prefix came back non-nil); `go test`
// replays it on every run, and CI's fuzz job explores beyond it.
//
// On registers the naive state-vector reference holds
// (maxReferenceQubits), every execution also demands that the reference
// agree with the walk: a program that verifies clean leaves a random
// state where its source circuit's CZ stream leaves it.
func FuzzCompileVerify(f *testing.F) {
	//            seed  qubits blocks density scheme aods grouping
	f.Add(int64(1), int64(8), int64(3), int64(30), int64(0), int64(1), int64(0))
	f.Add(int64(2), int64(10), int64(4), int64(50), int64(1), int64(1), int64(0))
	f.Add(int64(3), int64(12), int64(5), int64(20), int64(2), int64(2), int64(1))
	f.Add(int64(4), int64(6), int64(2), int64(80), int64(2), int64(4), int64(2))
	f.Add(int64(5), int64(2), int64(1), int64(99), int64(1), int64(3), int64(1))
	f.Add(int64(6), int64(14), int64(6), int64(10), int64(0), int64(1), int64(0))
	// Larger registers: qubits = 15, 31, 47, 63 select 19, 20, 21, and
	// 22 qubits (see the mapping below). Densities are kept low so the
	// compiles stay cheap.
	f.Add(int64(7), int64(15), int64(1), int64(5), int64(1), int64(1), int64(0))
	f.Add(int64(8), int64(31), int64(1), int64(8), int64(2), int64(2), int64(1))
	f.Add(int64(9), int64(47), int64(0), int64(6), int64(0), int64(1), int64(0))
	f.Add(int64(10), int64(63), int64(0), int64(4), int64(2), int64(1), int64(2))
	f.Fuzz(func(t *testing.T, seed, qubits, blocks, density, scheme, aods, grouping int64) {
		// 15 of every 16 inputs land in 2..14 (cheap, dense coverage);
		// the 16th lands in 19..22.
		q := abs(qubits)
		n := 2 + q%13
		if q%16 == 15 {
			n = 19 + (q/16)%4
		}
		cfg := workload.RandomConfig{
			Qubits:  n,
			Blocks:  1 + abs(blocks)%6, // 1..6 dependent blocks
			Density: 0.05 + float64(abs(density)%100)/110.0,
		}
		circ := workload.Random(cfg, seed)
		hw := workload.RandomArch(cfg.Qubits, seed)
		// The fuzzer also steers the AOD count directly; AODs is a plain
		// capacity field with no derived caches, so mutation is safe.
		hw.AODs = 1 + abs(aods)%4

		var (
			p   *compiler.Pipeline
			err error
		)
		switch abs(scheme) % 3 {
		case 0:
			hw.AODs = 1 // the baseline is single-AOD
			p, err = compiler.Enola(compiler.EnolaConfig{Seed: seed})
		case 1:
			p, err = compiler.Zoned(compiler.ZonedConfig{
				UseStorage: false,
				Grouping:   groupingName(grouping),
			})
		default:
			p, err = compiler.Zoned(compiler.ZonedConfig{
				UseStorage: true,
				Grouping:   groupingName(grouping),
			})
		}
		if err != nil {
			t.Fatalf("pipeline construction: %v", err)
		}
		res, err := p.Run(circ, hw)
		if err != nil {
			t.Fatalf("compile %s: %v", circ.Name, err)
		}
		if r := All(circ, res.Program, res.Initial); !r.OK() {
			t.Fatalf("compile %s (%d AODs) produced an illegal or inequivalent program:\n%s",
				circ.Name, hw.AODs, r)
		}
		if n <= maxReferenceQubits && !referenceAgrees(circ, res.Program, seed) {
			t.Fatalf("compile %s verifies clean, but the naive reference tells its CZ stream from the source's", circ.Name)
		}

		// Mutate-and-recompile mode: for resumable pipelines, capture
		// per-block checkpoints, perturb the last block, and demand the
		// incremental recompile (resume from the deepest shared
		// checkpoint) is byte-identical to a cold compile of the mutated
		// circuit — and still verifies clean.
		if p.Resumable() && len(circ.Blocks) >= 2 {
			var cps []compiler.Checkpoint
			if _, err := p.RunOpts(circ, hw, compiler.RunOptions{
				Capture: func(cp compiler.Checkpoint) { cps = append(cps, cp) },
			}); err != nil {
				t.Fatalf("captured recompile of %s: %v", circ.Name, err)
			}
			mut := circ.Clone()
			last := &mut.Blocks[len(mut.Blocks)-1]
			if len(last.Gates) > 0 {
				last.Gates = last.Gates[:len(last.Gates)-1]
			} else {
				last.OneQ++
			}
			cold, err := p.Run(mut, hw)
			if err != nil {
				t.Fatalf("cold compile of mutated %s: %v", circ.Name, err)
			}
			inc, err := p.RunOpts(mut, hw, compiler.RunOptions{Resume: &cps[len(cps)-2]})
			if err != nil {
				t.Fatalf("incremental recompile of mutated %s: %v", circ.Name, err)
			}
			if !reflect.DeepEqual(inc.Program.Instr, cold.Program.Instr) {
				t.Fatalf("incremental recompile of %s diverged from the cold compile", circ.Name)
			}
			for q := 0; q < mut.Qubits; q++ {
				if inc.Initial.SiteOf(q) != cold.Initial.SiteOf(q) {
					t.Fatalf("incremental recompile of %s moved qubit %d's initial placement", circ.Name, q)
				}
			}
			if ri := All(mut, inc.Program, inc.Initial); !ri.OK() {
				t.Fatalf("incremental recompile of %s failed verification:\n%s", circ.Name, ri)
			}
		}
	})
}

func abs(v int64) int {
	if v < 0 {
		v = -v
	}
	if v < 0 {
		return 0 // MinInt64
	}
	return int(v)
}

// groupingName maps a fuzz input onto the grouping registry.
func groupingName(v int64) string {
	names := compiler.GroupingNames()
	return names[abs(v)%len(names)]
}
