// Package powermove is a compiler for neutral-atom quantum computers with
// a zoned architecture, reproducing "PowerMove: Optimizing Compilation for
// Neutral Atom Quantum Computers with Zoned Architecture" (ASPLOS 2025).
//
// The compiler lowers circuits of commutable CZ blocks onto hardware with
// a computation zone, a storage zone, and one or more AOD arrays for
// collective qubit movement. Its three components — the Stage Scheduler,
// the Continuous Router, and the Coll-Move Scheduler — exploit the
// interplay between gate scheduling, qubit allocation, qubit movement,
// and the zoned architecture to cut excitation and decoherence errors and
// execution time relative to revert-to-initial-layout compilation.
//
// Typical use:
//
//	circ := powermove.QAOARegular(30, 3, 42)        // or ParseQASM(...)
//	hw := powermove.DefaultArch(circ.Qubits, 1)     // Table-2 geometry
//	run, err := powermove.CompileAndRun(circ, hw, powermove.Options{
//		UseStorage: true,
//	})
//	if err != nil { ... }
//	fmt.Println(run.Execution.Fidelity, run.Execution.Time)
//
// The package is a thin facade over the internal packages; everything here
// is re-exported so downstream code needs only this import.
package powermove

import (
	"bytes"
	"context"
	"fmt"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/pipeline"
	"powermove/internal/qasm"
	"powermove/internal/service"
	"powermove/internal/sim"
	"powermove/internal/store"
	"powermove/internal/trace"
	"powermove/internal/verify"
	"powermove/internal/viz"
	"powermove/internal/workload"
)

// Core types re-exported for library consumers.
type (
	// Circuit is the synthesized quantum-program IR: alternating
	// single-qubit layers and commutable CZ blocks.
	Circuit = circuit.Circuit
	// CZ is a two-qubit controlled-Z gate.
	CZ = circuit.CZ
	// Arch describes one zoned hardware instance.
	Arch = arch.Arch
	// Options configures a PowerMove compilation. Grouping names the
	// Coll-Move grouping: "merged" (the default, also ""), "distance"
	// or "in-order".
	Options = compiler.ZonedConfig
	// Program is a compiled instruction stream.
	Program = isa.Program
	// Layout assigns qubits to trap sites.
	Layout = layout.Layout
	// ExecutionResult carries the fidelity, timing, and event counts of
	// one simulated execution.
	ExecutionResult = sim.Result
	// CompileResult carries a compiled program, its required initial
	// layout, and compiler statistics.
	CompileResult = compiler.Result
	// EnolaOptions configures the Enola baseline compiler.
	EnolaOptions = compiler.EnolaConfig
	// Stats is the shared compiler statistics type of both schemes,
	// including the per-pass PassStats breakdown.
	Stats = compiler.Stats
	// PassStats is a compilation's per-pass breakdown: self-time, call
	// counts, and counter deltas per compiler pass, in execution order.
	PassStats = compiler.PassStats
	// PassStat is one pass's accounting within a PassStats breakdown.
	PassStat = compiler.PassStat
)

// NewCircuit returns an empty circuit on n qubits; add blocks with
// Circuit.AddBlock and gates with NewCZ.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// NewCZ returns the normalized CZ gate on qubits a and b.
func NewCZ(a, b int) CZ { return circuit.NewCZ(a, b) }

// DefaultArch builds the paper's default hardware geometry (Table 2) for a
// program of the given size: a ceil(sqrt(n))-square computation grid and a
// double-height storage grid below it, with the given number of AOD
// arrays (1 in the paper's default configuration).
func DefaultArch(qubits, aods int) *Arch {
	return arch.New(arch.Config{Qubits: qubits, AODs: aods})
}

// Compile lowers circ for hw with the PowerMove pipeline. The returned
// program starts from CompileResult.Initial: all qubits in storage
// (Options.UseStorage) or placed row-major in the computation zone.
// Unknown grouping names and out-of-range alphas fail before any
// compilation work.
func Compile(circ *Circuit, hw *Arch, opts Options) (*CompileResult, error) {
	p, err := compiler.Zoned(opts)
	if err != nil {
		return nil, err
	}
	return p.Run(circ, hw)
}

// CompileEnola lowers circ with the Enola baseline (revert-to-home
// movement, no storage zone), for comparison studies. The program starts
// from and returns to the row-major home layout after every stage.
func CompileEnola(circ *Circuit, hw *Arch, opts EnolaOptions) (*CompileResult, error) {
	p, err := compiler.Enola(opts)
	if err != nil {
		return nil, err
	}
	return p.Run(circ, hw)
}

// Execute runs a compiled program on the simulated hardware and returns
// fidelity and timing per the paper's model (Sec. 2.2). It replays the
// program under the same physical rule set Verify checks and fails on
// the first violation; the error wraps that VerifyViolation, which
// errors.As recovers.
func Execute(prog *Program, initial *Layout) (*ExecutionResult, error) {
	return sim.Execute(prog, initial)
}

// ExecuteWithTrace runs a compiled program like Execute and additionally
// returns the execution timeline (one event per instruction), renderable
// as an ASCII Gantt chart or serializable to JSON.
func ExecuteWithTrace(prog *Program, initial *Layout) (*ExecutionResult, *Trace, error) {
	return sim.ExecuteWithTrace(prog, initial)
}

// Trace is an execution timeline recorded by ExecuteWithTrace.
type Trace = trace.Trace

// Differential-verification types re-exported from internal/verify.
type (
	// VerifyReport is a full verification report: every structured
	// violation the physical legality checker and the semantic
	// equivalence walk found, plus the replay accounting.
	VerifyReport = verify.Report
	// VerifyViolation is one structured diagnostic of a VerifyReport.
	VerifyViolation = verify.Violation
	// VerifySummary is the serializable digest of a VerifyReport that
	// rides on service responses and batch outcomes.
	VerifySummary = verify.Summary
)

// Verify runs the differential verification subsystem over a compiled
// result: the physical legality checker replays the program against the
// architecture model (AOD order preservation, trap exclusivity,
// blockade spacing, stage-transition consistency), and the semantic
// equivalence walk proves the program means circ (each block's CZ
// gates run in block order as a permutation of the block, each 1Q layer
// sits on its block's boundary; exact at every register size). circ
// must be the circuit res was compiled from; a compilation run with
// Options.FuseBlocks merges blocks and their 1Q layers by design, so
// verify such results against the fused circuit (internal/fuse) instead
// of the original.
func Verify(circ *Circuit, res *CompileResult) *VerifyReport {
	return verify.All(circ, res.Program, res.Initial)
}

// RenderLayout draws a layout as an ASCII occupancy grid (computation
// zone on top, storage zone below).
func RenderLayout(l *Layout) string { return viz.Layout(l) }

// RunResult pairs a compilation with its simulated execution.
type RunResult struct {
	Compile   *CompileResult
	Execution *ExecutionResult
}

// CompileAndRun compiles circ and executes it from the compiler's initial
// layout in one step.
func CompileAndRun(circ *Circuit, hw *Arch, opts Options) (*RunResult, error) {
	cr, err := Compile(circ, hw, opts)
	if err != nil {
		return nil, err
	}
	exec, err := sim.Execute(cr.Program, cr.Initial)
	if err != nil {
		return nil, err
	}
	return &RunResult{Compile: cr, Execution: exec}, nil
}

// Batch-compilation types re-exported from the concurrent engine of
// internal/pipeline.
type (
	// BatchJob is one compile-and-simulate unit of a batch: a circuit
	// generator plus the (benchmark, scheme, AOD-count) key that
	// identifies and caches it.
	BatchJob = pipeline.Job
	// BatchKey identifies one evaluation point and doubles as its
	// cache key.
	BatchKey = pipeline.Key
	// BatchResult pairs a job's outcome with its timing and cache
	// provenance.
	BatchResult = pipeline.Result
	// BatchOutcome is the evaluation payload of one job.
	BatchOutcome = pipeline.Outcome
	// BatchOptions bounds worker concurrency and wires streaming
	// progress and a shared cache.
	BatchOptions = pipeline.Options
	// BatchStats aggregates a run's engine accounting.
	BatchStats = pipeline.Stats
	// BatchCache is a keyed outcome cache shareable across batches.
	BatchCache = pipeline.Cache
	// Scheme selects the compiler of a batch job: SchemeEnola,
	// SchemeNonStorage, or SchemeWithStorage.
	Scheme = pipeline.Scheme
)

// The compilation schemes a batch job can select.
const (
	SchemeEnola       = pipeline.Enola
	SchemeNonStorage  = pipeline.NonStorage
	SchemeWithStorage = pipeline.WithStorage
)

// NewBatchJob builds the standard batch job for one evaluation point: gen
// generates the circuit (deterministically — derive any seed from bench,
// never from the clock) and the architecture defaults to the Table-2
// geometry with the given AOD count.
func NewBatchJob(bench string, scheme Scheme, aods int, gen func() (*Circuit, error)) BatchJob {
	return pipeline.NewJob(bench, scheme, aods, gen)
}

// NewBatchCache returns an empty shared cache for CompileBatch.
func NewBatchCache() *BatchCache { return pipeline.NewCache() }

// CompileBatch compiles and simulates a batch of jobs across a bounded
// worker pool, returning one result per job in job order regardless of
// completion order. Jobs with equal keys compile once; per-job failures
// land in BatchResult.Err without stopping the batch (BatchFirstError
// collects them), and cancelling ctx aborts the run.
func CompileBatch(ctx context.Context, jobs []BatchJob, opts BatchOptions) ([]BatchResult, BatchStats, error) {
	return pipeline.Run(ctx, jobs, opts)
}

// BatchFirstError returns the first per-job failure of a batch in job
// order, or nil.
func BatchFirstError(results []BatchResult) error { return pipeline.FirstError(results) }

// Serving-layer types re-exported from internal/service, the
// compile-as-a-service front end of cmd/powermoved.
type (
	// Server is the compile service: request validation, a shared
	// size-bounded LRU compile cache whose entries also dedup
	// concurrent identical requests, and bounded compile concurrency
	// over the batch engine. Server.Handler is its HTTP front end.
	Server = service.Server
	// ServerConfig sizes a Server: worker bound, cache capacity, async
	// queue depth and TTL, and the optional disk result store.
	ServerConfig = service.Config
	// ServiceCompileRequest asks the service for one evaluation point
	// (inline QASM or a named workload, plus the shared CompileSpec
	// knobs).
	ServiceCompileRequest = service.CompileRequest
	// ServiceCompileSpec is the compilation knobs (scheme, AOD count,
	// grouping, stable, verify) shared by every compiling request shape.
	ServiceCompileSpec = service.CompileSpec
	// ServiceCompileResponse is one compiled evaluation point.
	ServiceCompileResponse = service.CompileResponse
	// ServiceWorkloadSpec names a generated benchmark instance in a
	// ServiceCompileRequest.
	ServiceWorkloadSpec = service.WorkloadSpec
	// ServiceJobRequest submits async work to POST /v1/jobs: exactly one
	// of its compile/verify/batch/experiment fields.
	ServiceJobRequest = service.JobRequest
	// ResultStore is the disk-backed content-addressed result store a
	// Server can use as its second cache tier; open one with
	// OpenResultStore.
	ResultStore = store.Store
)

// OpenResultStore opens (creating if needed) a disk result store rooted
// at dir, bounded to maxBytes of entries (0 = unbounded); wire it into a
// Server via ServerConfig.Store to make compiled results survive daemon
// restarts.
func OpenResultStore(dir string, maxBytes int64) (*ResultStore, error) {
	return store.Open(dir, maxBytes)
}

// NewServer returns a ready compile service; serve it with
// http.ListenAndServe(addr, s.Handler()) or call its Compile/Batch
// methods directly.
func NewServer(cfg ServerConfig) *Server { return service.New(cfg) }

// CompileJSON executes one service compile request one-shot: req is a
// JSON ServiceCompileRequest, decoded as strictly as the daemon decodes
// a POST /v1/compile body; the result is the canonical JSON encoding
// of its ServiceCompileResponse — byte-identical to what a powermoved
// daemon returns for the same request on a cold cache. cmd/powermove
// -json is a thin wrapper; CI's smoke test compares the two.
func CompileJSON(ctx context.Context, req []byte) ([]byte, error) {
	creq, err := service.DecodeCompileRequest(bytes.NewReader(req), nil)
	if err != nil {
		return nil, fmt.Errorf("compile request: %w", err)
	}
	s := NewServer(ServerConfig{Workers: 1})
	defer s.Close()
	resp, err := s.Compile(ctx, creq)
	if err != nil {
		return nil, err
	}
	return service.EncodeJSON(resp)
}

// ParseQASM lowers an OpenQASM 2.0 source string (see internal/qasm for
// the supported subset) to a Circuit named name.
func ParseQASM(name, src string) (*Circuit, error) {
	prog, err := qasm.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return prog.Circuit, nil
}

// WriteQASM serializes a circuit back to OpenQASM 2.0.
func WriteQASM(c *Circuit) string { return qasm.Write(c) }

// Benchmark-circuit generators (Sec. 7.1 of the paper).

// QAOARegular returns a depth-1 QAOA MaxCut circuit on a random d-regular
// graph with n vertices.
func QAOARegular(n, d int, seed int64) *Circuit { return workload.QAOARegular(n, d, seed) }

// QAOARandom returns a depth-1 QAOA circuit on a G(n, 0.5) random graph.
func QAOARandom(n int, seed int64) *Circuit { return workload.QAOARandom(n, seed) }

// QFT returns the n-qubit quantum Fourier transform.
func QFT(n int) *Circuit { return workload.QFT(n) }

// BV returns an n-qubit Bernstein-Vazirani circuit with a balanced random
// secret.
func BV(n int, seed int64) *Circuit { return workload.BV(n, seed) }

// VQE returns a hardware-efficient VQE ansatz with linear entanglement.
func VQE(n int) *Circuit { return workload.VQE(n) }

// QSim returns a random quantum-simulation circuit of ten weight-0.3
// Pauli strings.
func QSim(n int, seed int64) *Circuit { return workload.QSim(n, seed) }
