package service

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// layeredQASM builds an n-qubit program of `layers` alternating h/cz
// layers: each h layer touches every qubit, closing the previous block,
// so each cz layer lands in its own block. shift rotates the final cz
// layer's pairs, mutating only the last block.
func layeredQASM(n, layers int, shift bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			fmt.Fprintf(&b, "h q[%d];\n", q)
		}
		off := l % 2
		if shift && l == layers-1 {
			off = 1 - off
		}
		for a := off; a+1 < n; a += 2 {
			fmt.Fprintf(&b, "cz q[%d], q[%d];\n", a, a+1)
		}
	}
	return b.String()
}

// TestIncrementalPrefixHitAcrossRequests: two inline QASM programs
// sharing an 11-block prefix; the second compile resumes from the
// first's checkpoints (incremental_prefix_hits rises) and its response
// is byte-identical to a cold compile of the same program on a fresh
// server.
func TestIncrementalPrefixHitAcrossRequests(t *testing.T) {
	const n, layers = 10, 12
	base := layeredQASM(n, layers, false)
	mutated := layeredQASM(n, layers, true)
	req := func(src string) *CompileRequest {
		return &CompileRequest{QASM: src, CompileSpec: CompileSpec{Stable: true}}
	}

	s := New(Config{Workers: 2})
	defer s.Close()
	if _, err := s.Compile(context.Background(), req(base)); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if !m.Incremental.Enabled || m.Incremental.Entries != 1 {
		t.Fatalf("after seed compile: incremental = %+v, want enabled with 1 entry", m.Incremental)
	}
	warm, err := s.Compile(context.Background(), req(mutated))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached {
		t.Fatal("mutated-tail request reported cached — it is a distinct key")
	}
	m = s.Metrics()
	if m.Incremental.PrefixHits < 1 {
		t.Fatalf("incremental_prefix_hits = %d, want >= 1", m.Incremental.PrefixHits)
	}
	if m.Incremental.SavedMS <= 0 {
		t.Errorf("saved_ms = %v, want > 0 after a prefix hit", m.Incremental.SavedMS)
	}

	cold := New(Config{Workers: 2, SnapshotCache: -1})
	defer cold.Close()
	ref, err := cold.Compile(context.Background(), req(mutated))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, ref) {
		t.Errorf("incremental response diverged from cold compile:\n got %+v\nwant %+v", warm, ref)
	}
}

// TestIncrementalDisabled: SnapshotCache < 0 turns the subsystem off.
func TestIncrementalDisabled(t *testing.T) {
	s := New(Config{Workers: 1, SnapshotCache: -1})
	defer s.Close()
	if _, err := s.Compile(context.Background(), qftRequest(6)); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Incremental.Enabled || m.Incremental.Probes != 0 {
		t.Errorf("incremental = %+v, want disabled and idle", m.Incremental)
	}
}
