package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"powermove/internal/arch"
)

func testArch() *arch.Arch { return arch.New(arch.Config{Qubits: 9}) }

func TestPlaceAndQueries(t *testing.T) {
	a := testArch()
	l := New(a, 3)
	if l.Placed(0) {
		t.Error("fresh qubit reported placed")
	}
	s := arch.Site{Zone: arch.Compute, Row: 1, Col: 2}
	l.Place(0, s)
	if !l.Placed(0) || l.SiteOf(0) != s {
		t.Error("Place did not stick")
	}
	if l.Zone(0) != arch.Compute {
		t.Error("Zone wrong")
	}
	if got := l.PosOf(0); got != a.Pos(s) {
		t.Errorf("PosOf = %v, want %v", got, a.Pos(s))
	}
	if got := l.At(s); len(got) != 1 || got[0] != 0 {
		t.Errorf("At = %v", got)
	}
	if l.Occupancy(s) != 1 {
		t.Error("Occupancy wrong")
	}
}

func TestPlacePanics(t *testing.T) {
	l := New(testArch(), 2)
	l.Place(0, arch.Site{Zone: arch.Compute, Row: 0, Col: 0})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Place did not panic")
			}
		}()
		l.Place(0, arch.Site{Zone: arch.Compute, Row: 0, Col: 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Place out of bounds did not panic")
			}
		}()
		l.Place(1, arch.Site{Zone: arch.Compute, Row: 99, Col: 0})
	}()
}

func TestMove(t *testing.T) {
	l := New(testArch(), 2)
	s0 := arch.Site{Zone: arch.Compute, Row: 0, Col: 0}
	s1 := arch.Site{Zone: arch.Storage, Row: 3, Col: 1}
	l.Place(0, s0)
	l.Move(0, s1)
	if l.SiteOf(0) != s1 {
		t.Error("Move did not relocate")
	}
	if l.Occupancy(s0) != 0 {
		t.Error("Move left ghost occupancy behind")
	}
	l.Move(0, s1) // no-op move to same site
	if l.Occupancy(s1) != 1 {
		t.Error("self-move corrupted occupancy")
	}
	defer func() {
		if recover() == nil {
			t.Error("Move of unplaced qubit did not panic")
		}
	}()
	l.Move(1, s0)
}

func TestCohabitationSorted(t *testing.T) {
	l := New(testArch(), 3)
	s := arch.Site{Zone: arch.Compute, Row: 0, Col: 0}
	l.Place(2, s)
	l.Place(0, s)
	got := l.At(s)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("At = %v, want [0 2] sorted", got)
	}
}

// TestBulkMoveSwap: two qubits exchanging sites must not interfere.
func TestBulkMoveSwap(t *testing.T) {
	l := New(testArch(), 2)
	s0 := arch.Site{Zone: arch.Compute, Row: 0, Col: 0}
	s1 := arch.Site{Zone: arch.Compute, Row: 0, Col: 1}
	l.Place(0, s0)
	l.Place(1, s1)
	l.BulkMove(map[int]arch.Site{0: s1, 1: s0})
	if l.SiteOf(0) != s1 || l.SiteOf(1) != s0 {
		t.Error("swap failed")
	}
	if l.Occupancy(s0) != 1 || l.Occupancy(s1) != 1 {
		t.Error("swap corrupted occupancy")
	}
}

func TestBulkMovePanicsOnUnplaced(t *testing.T) {
	l := New(testArch(), 2)
	defer func() {
		if recover() == nil {
			t.Error("BulkMove of unplaced qubit did not panic")
		}
	}()
	l.BulkMove(map[int]arch.Site{0: {Zone: arch.Compute, Row: 0, Col: 0}})
}

func TestCloneIsolation(t *testing.T) {
	l := New(testArch(), 2)
	l.PlaceAll(arch.Compute)
	c := l.Clone()
	c.Move(0, arch.Site{Zone: arch.Storage, Row: 0, Col: 0})
	if l.Zone(0) != arch.Compute {
		t.Error("Clone shares state with original")
	}
	if c.Zone(0) != arch.Storage {
		t.Error("Clone move lost")
	}
}

func TestPlaceAll(t *testing.T) {
	l := New(testArch(), 5)
	l.PlaceAll(arch.Storage)
	for q := 0; q < 5; q++ {
		if l.Zone(q) != arch.Storage {
			t.Fatalf("qubit %d not in storage", q)
		}
	}
	// Row-major: qubit 0 at row 0 col 0, qubit 3 at row 1 col 0 (3 cols).
	if l.SiteOf(0) != (arch.Site{Zone: arch.Storage, Row: 0, Col: 0}) {
		t.Errorf("qubit 0 at %v", l.SiteOf(0))
	}
	if l.SiteOf(3) != (arch.Site{Zone: arch.Storage, Row: 1, Col: 0}) {
		t.Errorf("qubit 3 at %v", l.SiteOf(3))
	}
	if got := l.InZone(arch.Storage); len(got) != 5 {
		t.Errorf("InZone(storage) = %v", got)
	}
	if got := l.InZone(arch.Compute); len(got) != 0 {
		t.Errorf("InZone(compute) = %v", got)
	}
}

func TestPlaceAllPanicsWhenZoneTooSmall(t *testing.T) {
	l := New(testArch(), 10) // compute zone has 9 sites
	defer func() {
		if recover() == nil {
			t.Error("PlaceAll into undersized zone did not panic")
		}
	}()
	l.PlaceAll(arch.Compute)
}

func TestEmptySitesByDistanceOrder(t *testing.T) {
	a := testArch()
	l := New(a, 1)
	origin := arch.Site{Zone: arch.Compute, Row: 0, Col: 0}
	l.Place(0, origin)
	sites := l.EmptySitesByDistance(arch.Compute, a.Pos(origin))
	if len(sites) != a.ComputeSites()-1 {
		t.Fatalf("%d empty sites, want %d", len(sites), a.ComputeSites()-1)
	}
	for i := range sites {
		if sites[i] == origin {
			t.Fatal("occupied site listed as empty")
		}
		if i > 0 {
			di := a.Pos(sites[i-1]).Dist(a.Pos(origin))
			dj := a.Pos(sites[i]).Dist(a.Pos(origin))
			if di > dj {
				t.Fatalf("sites not sorted by distance: %v then %v", sites[i-1], sites[i])
			}
		}
	}
	// The two nearest sites are the axis neighbors at one pitch.
	if d := a.Pos(sites[0]).Dist(a.Pos(origin)); d != 15 {
		t.Errorf("nearest empty at distance %v, want 15", d)
	}
}

func TestNewPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0 qubits) did not panic")
		}
	}()
	New(testArch(), 0)
}

// TestOccupancyConsistencyRandomOps: after a random sequence of moves, the
// position index and the occupancy table agree exactly.
func TestOccupancyConsistencyRandomOps(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 20})
	l := New(a, 20)
	l.PlaceAll(arch.Storage)
	rng := rand.New(rand.NewSource(77))
	all := append(append([]arch.Site{}, a.Sites(arch.Compute)...), a.Sites(arch.Storage)...)
	for step := 0; step < 500; step++ {
		q := rng.Intn(20)
		l.Move(q, all[rng.Intn(len(all))])
	}
	counted := 0
	for _, s := range all {
		for _, q := range l.At(s) {
			if l.SiteOf(q) != s {
				t.Fatalf("occupancy lists qubit %d at %v but SiteOf = %v", q, s, l.SiteOf(q))
			}
			counted++
		}
	}
	if counted != 20 {
		t.Fatalf("occupancy covers %d qubits, want 20", counted)
	}
}

// TestBulkMoveEquivalentToSequential: for target sets without transient
// collisions, BulkMove and sequential Move agree — checked via
// testing/quick over random single-qubit relocations to empty sites.
func TestBulkMoveEquivalentToSequential(t *testing.T) {
	a := arch.New(arch.Config{Qubits: 9})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l1 := New(a, 6)
		l1.PlaceAll(arch.Compute)
		l2 := l1.Clone()
		// Move three qubits to distinct empty storage sites.
		targets := make(map[int]arch.Site)
		sites := a.Sites(arch.Storage)
		perm := rng.Perm(len(sites))
		for i, q := range rng.Perm(6)[:3] {
			targets[q] = sites[perm[i]]
		}
		l1.BulkMove(targets)
		for q, s := range targets {
			l2.Move(q, s)
		}
		for q := 0; q < 6; q++ {
			if l1.SiteOf(q) != l2.SiteOf(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
