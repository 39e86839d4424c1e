package qasm

import (
	"testing"

	"powermove/internal/arch"
	"powermove/internal/compiler"
	"powermove/internal/sim"
)

// FuzzQASM fuzzes the QASM input boundary: Parse never panics, and every
// accepted program of 1 to 64 qubits either compiles with the
// with-storage pipeline on the default architecture into a program the
// executor accepts — the executor replays the verifier's full physical
// rule set — or fails to compile with a clean error.
//
// The committed seed corpus (testdata/fuzz/FuzzQASM) holds the header
// forms of this package's tests, a second register, barrier, u3 and
// sx; `go test` replays it on every run and CI's fuzz job explores
// beyond it.
func FuzzQASM(f *testing.F) {
	p, err := compiler.Zoned(compiler.ZonedConfig{UseStorage: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse("fuzz", src)
		if err != nil || prog.Qubits > 64 {
			return
		}
		res, err := p.Run(prog.Circuit, arch.New(arch.Config{Qubits: prog.Qubits}))
		if err != nil {
			return
		}
		if _, err := sim.Execute(res.Program, res.Initial); err != nil {
			t.Fatalf("compiled program fails execution: %v\nsource:\n%s", err, src)
		}
	})
}
