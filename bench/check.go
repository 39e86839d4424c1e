package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"powermove/internal/circuit"
	"powermove/internal/pipeline"
	"powermove/internal/service"
	"powermove/internal/verify"
)

// The correctness checks run untimed, after the timed phases. The
// reference is always the verifier or the library's cold compile path,
// never a checked-in file, so a change that improves the compiler's
// output does not have to touch the benchmark.

// libraryReference compiles in cold through the batch engine, with no
// cache, store or snapshots, and returns the outcome with the compiled
// artifacts.
func libraryReference(in input) (pipeline.Outcome, pipeline.Artifacts, error) {
	var art pipeline.Artifacts
	job := pipeline.NewJob(in.bench(), in.Scheme, in.AODs, func() (*circuit.Circuit, error) { return in.circuit(), nil })
	job.Keep = func(a pipeline.Artifacts) { art = a }
	results, _, err := pipeline.Run(context.Background(), []pipeline.Job{job}, pipeline.Options{Workers: 1})
	if err != nil {
		return pipeline.Outcome{}, art, err
	}
	if results[0].Err != nil {
		return pipeline.Outcome{}, art, results[0].Err
	}
	return results[0].Outcome, art, nil
}

// checkOutcome compares a served response with the library's outcome for
// the same input: identity first (a result served under another key
// fails here), then the deterministic payload, exactly.
func checkOutcome(in input, resp *service.CompileResponse, ref pipeline.Outcome) error {
	if resp.Bench != in.bench() || resp.Scheme != string(in.Scheme) || resp.AODs != in.AODs || resp.Qubits != in.Qubits {
		return fmt.Errorf("response for %s/%s/%daod/%dq answers %s/%s/%daod/%dq",
			in.bench(), in.Scheme, in.AODs, in.Qubits, resp.Bench, resp.Scheme, resp.AODs, resp.Qubits)
	}
	if resp.Fidelity != ref.Fidelity || resp.TexeUS != ref.Texe || resp.Stages != ref.Stages || resp.Moves != ref.Moves {
		return fmt.Errorf("%s: served fidelity %v texe %v stages %d moves %d; library %v %v %d %d",
			in.bench(), resp.Fidelity, resp.TexeUS, resp.Stages, resp.Moves, ref.Fidelity, ref.Texe, ref.Stages, ref.Moves)
	}
	return nil
}

// checkProgram runs the full verifier over compiled artifacts.
func checkProgram(art pipeline.Artifacts) error {
	if art.Program == nil {
		return fmt.Errorf("no compiled program to verify")
	}
	rep := verify.All(art.Circuit, art.Program, art.Initial)
	if !rep.OK() {
		return fmt.Errorf("%s: %s", art.Circuit.Name, firstLine(rep.String()))
	}
	return nil
}

// checkPhysical runs the physical-legality checker alone.
func checkPhysical(art pipeline.Artifacts) error {
	rep := verify.CheckPhysical(art.Program, art.Initial)
	if !rep.OK() {
		return fmt.Errorf("%s: %s", art.Program.Name, firstLine(rep.String()))
	}
	return nil
}

// checkVerifySummary requires a clean verification summary on a
// ?verify=1 response.
func checkVerifySummary(resp *service.CompileResponse) error {
	switch {
	case resp.Verify == nil:
		return fmt.Errorf("%s: no verify summary on a verified request", resp.Bench)
	case resp.Verify.Violations != 0:
		return fmt.Errorf("%s: %d violations: %s", resp.Bench, resp.Verify.Violations, strings.Join(resp.Verify.Messages, "; "))
	}
	return nil
}

// checkServed is the sampled serve-cold and verify-large check: the
// response must match a cold library compile of the same input, and the
// library's program must verify.
func checkServed(in input, body []byte) error {
	resp, err := decodeResponse(body)
	if err != nil {
		return err
	}
	ref, art, err := libraryReference(in)
	if err != nil {
		return fmt.Errorf("library compile of %s: %w", in.bench(), err)
	}
	if err := checkOutcome(in, resp, ref); err != nil {
		return err
	}
	return checkProgram(art)
}

func decodeResponse(body []byte) (*service.CompileResponse, error) {
	var r service.CompileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("response: %w", err)
	}
	return &r, nil
}

// normalized re-encodes a compile response without the fields that may
// legitimately differ between two answers to one request: the cache
// flag, the measured compile time and the per-pass durations.
func normalized(body []byte) (*service.CompileResponse, []byte, error) {
	r, err := decodeResponse(body)
	if err != nil {
		return nil, nil, err
	}
	r.Cached = false
	r.TcompMS = 0
	r.Passes = r.Passes.Stabilized()
	out, err := service.EncodeJSON(r)
	return r, out, err
}

// sameResponse reports whether got answers the same request as want.
func sameResponse(got, want []byte) error {
	g, gb, err := normalized(got)
	if err != nil {
		return err
	}
	w, wb, err := normalized(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("served %s (fidelity %v) differs from the reference %s (fidelity %v)", g.Bench, g.Fidelity, w.Bench, w.Fidelity)
	}
	return nil
}

// firstLine trims a verifier report to its first two lines.
func firstLine(s string) string {
	lines := strings.SplitN(s, "\n", 3)
	if len(lines) > 2 {
		lines = lines[:2]
	}
	return strings.Join(lines, " ")
}
