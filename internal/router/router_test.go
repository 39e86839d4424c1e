package router

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/stage"
	"powermove/internal/verify"
)

// legalAt returns the physical violations of a Rydberg pulse on gates
// fired from layout l, as the verifier's replay judges them, or nil.
func legalAt(l *layout.Layout, gates []circuit.CZ) error {
	prog := &isa.Program{Qubits: l.Qubits(), Instr: []isa.Instruction{isa.Rydberg{Pairs: gates}}}
	if r := verify.CheckPhysical(prog, l); !r.OK() {
		return errors.New(r.String())
	}
	return nil
}

// randomStage builds a random stage of disjoint pairs over n qubits.
func randomStage(n, pairs int, rng *rand.Rand) stage.Stage {
	perm := rng.Perm(n)
	var st stage.Stage
	for i := 0; i+1 < len(perm) && len(st.Gates) < pairs; i += 2 {
		st.Gates = append(st.Gates, circuit.NewCZ(perm[i], perm[i+1]))
	}
	return st
}

// TestRouteRandomStagesWithStorage is the router's central property test:
// starting from the all-in-storage initial layout and routing a long
// random sequence of stages, after every transition (a) the layout
// satisfies the occupancy invariants for that stage's pairs, (b) every
// pair is co-located in the computation zone, and (c) every
// non-interacting qubit sits in storage (storage mode shields them all).
func TestRouteRandomStagesWithStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(60)
		a := arch.New(arch.Config{Qubits: n})
		l := layout.New(a, n)
		l.PlaceAll(arch.Storage)
		for step := 0; step < 12; step++ {
			st := randomStage(n, 1+rng.Intn(n/2), rng)
			moves, err := Route(l, st, true, nil)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if err := legalAt(l, st.Gates); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			inter := st.QubitSet()
			for q := 0; q < n; q++ {
				if inter[q] && l.Zone(q) != arch.Compute {
					t.Fatalf("trial %d step %d: interacting qubit %d in %v", trial, step, q, l.Zone(q))
				}
				if !inter[q] && l.Zone(q) != arch.Storage {
					t.Fatalf("trial %d step %d: idle qubit %d left in %v", trial, step, q, l.Zone(q))
				}
			}
			for _, m := range moves {
				if m.FromSite == m.ToSite {
					t.Fatalf("trial %d step %d: zero-length move emitted", trial, step)
				}
			}
		}
	}
}

// TestRouteRandomStagesComputeOnly mirrors the storage property test for
// the non-storage mode: layouts stay legal and pairs co-locate, with
// everything in the computation zone.
func TestRouteRandomStagesComputeOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(60)
		a := arch.New(arch.Config{Qubits: n})
		l := layout.New(a, n)
		l.PlaceAll(arch.Compute)
		for step := 0; step < 12; step++ {
			st := randomStage(n, 1+rng.Intn(n/2), rng)
			if _, err := Route(l, st, false, nil); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if err := legalAt(l, st.Gates); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for q := 0; q < n; q++ {
				if l.Zone(q) != arch.Compute {
					t.Fatalf("trial %d step %d: qubit %d escaped to %v in compute-only mode", trial, step, q, l.Zone(q))
				}
			}
		}
	}
}

// TestRouteFullComputeZone exercises the tightest packing: n equals the
// number of computation sites (QAOA-regular3-100 hits this), where
// nearest-empty searches have the least slack.
func TestRouteFullComputeZone(t *testing.T) {
	n := 100 // 10x10 compute zone exactly full
	a := arch.New(arch.Config{Qubits: n})
	l := layout.New(a, n)
	l.PlaceAll(arch.Compute)
	rng := rand.New(rand.NewSource(303))
	for step := 0; step < 20; step++ {
		st := randomStage(n, 1+rng.Intn(50), rng)
		if _, err := Route(l, st, false, nil); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := legalAt(l, st.Gates); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestRouteRepeatedStageIsFree: re-running the same stage from the layout
// it produced requires no movement in compute-only mode — pairs are
// already co-located.
func TestRouteRepeatedStageIsFree(t *testing.T) {
	n := 16
	a := arch.New(arch.Config{Qubits: n})
	l := layout.New(a, n)
	l.PlaceAll(arch.Compute)
	st := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(0, 1), circuit.NewCZ(2, 3)}}
	if _, err := Route(l, st, false, nil); err != nil {
		t.Fatal(err)
	}
	moves, err := Route(l, st, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Errorf("repeating a stage produced %d moves, want 0: %v", len(moves), moves)
	}
}

// TestRouteStorageParksIdle: after one stage in storage mode, a specific
// idle qubit has been parked and a specific pair co-located.
func TestRouteStorageParksIdle(t *testing.T) {
	n := 9
	a := arch.New(arch.Config{Qubits: n})
	l := layout.New(a, n)
	l.PlaceAll(arch.Storage)
	st := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(0, 1)}}
	moves, err := Route(l, st, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both pair members surface; everyone else never left storage, so
	// exactly two moves are needed.
	if len(moves) != 2 {
		t.Errorf("%d moves, want 2: %v", len(moves), moves)
	}
	if l.SiteOf(0) != l.SiteOf(1) || l.Zone(0) != arch.Compute {
		t.Error("pair not co-located in compute zone")
	}
	for q := 2; q < n; q++ {
		if l.Zone(q) != arch.Storage {
			t.Errorf("idle qubit %d left storage", q)
		}
	}
}

// TestRouteStaleSeparation: in compute-only mode a stale co-located pair
// with both members idle must be separated before the next pulse.
func TestRouteStaleSeparation(t *testing.T) {
	n := 9
	a := arch.New(arch.Config{Qubits: n})
	l := layout.New(a, n)
	l.PlaceAll(arch.Compute)
	first := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(0, 1)}}
	if _, err := Route(l, first, false, nil); err != nil {
		t.Fatal(err)
	}
	if l.SiteOf(0) != l.SiteOf(1) {
		t.Fatal("setup failed: pair not co-located")
	}
	// Next stage does not involve 0 or 1.
	second := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(2, 3)}}
	if _, err := Route(l, second, false, nil); err != nil {
		t.Fatal(err)
	}
	if l.SiteOf(0) == l.SiteOf(1) {
		t.Error("stale pair (0,1) still clustered")
	}
	if err := legalAt(l, second.Gates); err != nil {
		t.Error(err)
	}
}

// TestRouteMoverChoiceModes: deterministic and random mover selection both
// produce legal layouts; the deterministic mode is reproducible.
func TestRouteMoverChoiceModes(t *testing.T) {
	n := 25
	a := arch.New(arch.Config{Qubits: n})
	mkLayout := func() *layout.Layout {
		l := layout.New(a, n)
		l.PlaceAll(arch.Compute)
		return l
	}
	st := randomStage(n, 10, rand.New(rand.NewSource(5)))

	l1, l2 := mkLayout(), mkLayout()
	m1, err := Route(l1, st, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Route(l2, st, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Fatal("deterministic routing not reproducible")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("deterministic routing not reproducible")
		}
	}

	l3 := mkLayout()
	if _, err := Route(l3, st, false, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if err := legalAt(l3, st.Gates); err != nil {
		t.Errorf("random-mover mode produced illegal layout: %v", err)
	}
}

func TestRouteRejectsOverlappingStage(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 4})
	l := layout.New(a, 4)
	l.PlaceAll(arch.Compute)
	st := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(0, 1), circuit.NewCZ(1, 2)}}
	_, err := Route(l, st, false, nil)
	if err == nil || !strings.Contains(err.Error(), "disjoint") {
		t.Errorf("err = %v, want disjointness rejection", err)
	}
}

func TestRouteRejectsOutOfRangeQubit(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 4})
	l := layout.New(a, 4)
	l.PlaceAll(arch.Compute)
	st := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(0, 7)}}
	if _, err := Route(l, st, false, nil); err == nil {
		t.Error("out-of-range qubit accepted")
	}
}

// TestRouteCoLocatedStoragePairSurfaces: a pair parked together in
// storage (possible only through external layout manipulation) must be
// brought up to the computation zone.
func TestRouteCoLocatedStoragePairSurfaces(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 4})
	l := layout.New(a, 4)
	l.PlaceAll(arch.Storage)
	l.Move(1, l.SiteOf(0)) // co-locate 0 and 1 in storage
	st := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(0, 1)}}
	if _, err := Route(l, st, true, nil); err != nil {
		t.Fatal(err)
	}
	if l.Zone(0) != arch.Compute || l.SiteOf(0) != l.SiteOf(1) {
		t.Error("storage-co-located pair not surfaced together")
	}
}

// TestRouteMinimalArch: routing works on the smallest architecture (one
// pair on a 2x2 compute grid).
func TestRouteMinimalArch(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 2})
	l := layout.New(a, 2)
	l.PlaceAll(arch.Storage)
	st := stage.Stage{Gates: []circuit.CZ{circuit.NewCZ(0, 1)}}
	if _, err := Route(l, st, true, nil); err != nil {
		t.Fatal(err)
	}
	if err := legalAt(l, st.Gates); err != nil {
		t.Fatal(err)
	}
}
