// Command powermove compiles a quantum circuit for a zoned neutral-atom
// machine and reports the compiled schedule and its simulated metrics.
//
// Input is either an OpenQASM 2.0 file or a generated benchmark:
//
//	powermove -qasm circuit.qasm
//	powermove -bench QAOA-regular3 -n 30
//
// Flags select the pipeline mode (-storage), AOD count (-aods), a baseline
// comparison (-baseline), a full instruction listing (-disasm), and
// differential verification of the compiled program (-verify: physical
// legality checker + structural equivalence walk, non-zero exit on any
// violation).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"powermove"
)

func main() {
	var (
		qasmPath = flag.String("qasm", "", "OpenQASM 2.0 file to compile")
		bench    = flag.String("bench", "", "benchmark family to generate: QAOA-regular3, QAOA-regular4, QAOA-random, QFT, BV, VQE, QSIM-rand")
		n        = flag.Int("n", 30, "qubit count for -bench")
		seed     = flag.Int64("seed", 42, "seed for randomized benchmarks")
		storage  = flag.Bool("storage", true, "use the storage zone (full zoned pipeline)")
		aods     = flag.Int("aods", 1, "number of AOD arrays")
		baseline = flag.Bool("baseline", false, "also compile with the Enola baseline and compare")
		disasm   = flag.Bool("disasm", false, "print the compiled instruction stream")
		traceOut = flag.Bool("trace", false, "print the execution timeline as an ASCII Gantt chart")
		timings  = flag.Bool("timings", false, "print the compiler's per-pass timing breakdown")
		layouts  = flag.Bool("layouts", false, "print the initial and final qubit layouts")
		jsonOut  = flag.Bool("json", false, "emit the compile-service JSON document instead of text (byte-identical to powermoved's /v1/compile response for the same request)")
		stable   = flag.Bool("stable", false, "with -json: omit measured wall-clock fields so output is byte-identical across runs")
		verify   = flag.Bool("verify", false, "run the differential verifier (physical legality checker + structural equivalence walk) and fail on any violation")
	)
	flag.Parse()

	if *jsonOut {
		if err := runJSON(*qasmPath, *bench, *n, *seed, *storage, *aods, *stable, *verify); err != nil {
			fail(err)
		}
		return
	}

	circ, err := loadCircuit(*qasmPath, *bench, *n, *seed)
	if err != nil {
		fail(err)
	}
	hw := powermove.DefaultArch(circ.Qubits, *aods)
	fmt.Printf("circuit:  %s\n", circ)
	fmt.Printf("hardware: %s\n", hw)

	run, err := powermove.CompileAndRun(circ, hw, powermove.Options{UseStorage: *storage})
	if err != nil {
		fail(err)
	}
	fmt.Printf("\npowermove (storage=%v, %d AOD):\n", *storage, *aods)
	printRun(run)
	if *verify {
		rep := powermove.Verify(circ, run.Compile)
		fmt.Printf("\n%s\n", rep)
		if !rep.OK() {
			os.Exit(1)
		}
	}
	if *timings {
		fmt.Println()
		printPasses(run.Compile.Stats.Passes)
	}
	if *disasm {
		fmt.Println()
		fmt.Print(run.Compile.Program.Disassemble())
	}
	if *traceOut {
		_, tr, err := powermove.ExecuteWithTrace(run.Compile.Program, run.Compile.Initial)
		if err != nil {
			fail(err)
		}
		fmt.Println()
		fmt.Print(tr.Gantt(100))
	}
	if *layouts {
		fmt.Println("\ninitial layout:")
		fmt.Print(powermove.RenderLayout(run.Compile.Initial))
		fmt.Println("\nfinal layout:")
		fmt.Print(powermove.RenderLayout(run.Execution.Final))
	}

	if *baseline {
		base, err := powermove.CompileEnola(circ, powermove.DefaultArch(circ.Qubits, 1), powermove.EnolaOptions{Seed: 1})
		if err != nil {
			fail(err)
		}
		exec, err := powermove.Execute(base.Program, base.Initial)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nenola baseline:\n")
		fmt.Printf("  fidelity: %.6g   (%s)\n", exec.Fidelity, exec.Components)
		fmt.Printf("  t_exe:    %.1f us   t_comp: %s   stages: %d\n",
			exec.Time, base.Stats.CompileTime, exec.Stages)
		fmt.Printf("\ncomparison: fidelity %.2fx, execution time %.2fx\n",
			run.Execution.Fidelity/exec.Fidelity, exec.Time/run.Execution.Time)
	}
}

// runJSON compiles through the service path and prints its canonical
// JSON document, the same bytes a powermoved daemon returns for this
// request on a cold cache. Named benchmarks compile the paper instance
// (spec-derived seed) unless -seed was given explicitly on the command
// line, matching a workload request without/with a "seed" field.
func runJSON(qasmPath, bench string, n int, seed int64, storage bool, aods int, stable, verify bool) error {
	req := powermove.ServiceCompileRequest{
		CompileSpec: powermove.ServiceCompileSpec{
			Scheme: "non-storage",
			AODs:   aods,
			Stable: stable,
			Verify: verify,
		},
	}
	if storage {
		req.Scheme = "with-storage"
	}
	switch {
	case qasmPath != "" && bench != "":
		return fmt.Errorf("specify only one of -qasm and -bench")
	case qasmPath != "":
		src, err := os.ReadFile(qasmPath)
		if err != nil {
			return err
		}
		req.QASM = string(src)
	case bench != "":
		req.Workload = &powermove.ServiceWorkloadSpec{Family: bench, Qubits: n}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				req.Workload.Seed = &seed
			}
		})
	default:
		return fmt.Errorf("specify -qasm or -bench (see -help)")
	}
	reqBytes, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out, err := powermove.CompileJSON(context.Background(), reqBytes)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

func loadCircuit(qasmPath, bench string, n int, seed int64) (*powermove.Circuit, error) {
	switch {
	case qasmPath != "" && bench != "":
		return nil, fmt.Errorf("specify only one of -qasm and -bench")
	case qasmPath != "":
		src, err := os.ReadFile(qasmPath)
		if err != nil {
			return nil, err
		}
		return powermove.ParseQASM(qasmPath, string(src))
	case bench != "":
		switch bench {
		case "QAOA-regular3":
			return powermove.QAOARegular(n, 3, seed), nil
		case "QAOA-regular4":
			return powermove.QAOARegular(n, 4, seed), nil
		case "QAOA-random":
			return powermove.QAOARandom(n, seed), nil
		case "QFT":
			return powermove.QFT(n), nil
		case "BV":
			return powermove.BV(n, seed), nil
		case "VQE":
			return powermove.VQE(n), nil
		case "QSIM-rand":
			return powermove.QSim(n, seed), nil
		default:
			return nil, fmt.Errorf("unknown benchmark family %q", bench)
		}
	default:
		return nil, fmt.Errorf("specify -qasm or -bench (see -help)")
	}
}

// printPasses renders the compiler's per-pass breakdown: self-time,
// call counts, and the schedule counters each pass advanced. Pass
// self-times sum to ~t_comp (the remainder is driver overhead).
func printPasses(passes powermove.PassStats) {
	fmt.Println("per-pass breakdown:")
	for _, p := range passes {
		counters := ""
		if len(p.Counters) > 0 {
			keys := make([]string, 0, len(p.Counters))
			for k := range p.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				counters += fmt.Sprintf("  %s=%d", k, p.Counters[k])
			}
		}
		fmt.Printf("  %-16s %5d call(s) %12s%s\n", p.Pass, p.Calls, p.Duration.Round(time.Microsecond), counters)
	}
	fmt.Printf("  %-16s %20s %12s\n", "total", "", passes.Total().Round(time.Microsecond))
}

func printRun(run *powermove.RunResult) {
	exec := run.Execution
	st := run.Compile.Stats
	fmt.Printf("  fidelity: %.6g   (%s)\n", exec.Fidelity, exec.Components)
	fmt.Printf("  t_exe:    %.1f us  (1q %.1f, move %.1f, transfer %.1f, rydberg %.2f)\n",
		exec.Time, exec.Breakdown.OneQ, exec.Breakdown.Move, exec.Breakdown.Transfer, exec.Breakdown.Rydberg)
	fmt.Printf("  t_comp:   %s\n", st.CompileTime)
	fmt.Printf("  schedule: %d blocks, %d stages, %d moves, %d coll-moves, %d batches\n",
		st.Blocks, st.Stages, st.Moves, st.CollMoves, st.Batches)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "powermove:", err)
	os.Exit(1)
}
