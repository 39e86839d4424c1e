// Package layout tracks where every qubit sits on the zoned architecture
// (Sec. 5.1 of the paper). It records occupancy without enforcing the
// pulse-time rule — two interacting qubits, one idle qubit, or none per
// site — which internal/verify's Replay checks for both the executor and
// the verifier (see Move). The continuous router plans against a Layout
// and mutates it as it commits movement decisions. Occupancy lives in a
// flat slice indexed by arch.SiteIndex — layout updates are on the
// compiler's per-stage hot path.
package layout

import (
	"fmt"
	"sort"

	"powermove/internal/arch"
	"powermove/internal/geom"
)

// unplaced is the per-qubit sentinel site index.
const unplaced = -1

// Layout is a mutable assignment of qubits to sites.
type Layout struct {
	arch *arch.Arch
	pos  []int   // qubit -> site index, or unplaced
	occ  [][]int // site index -> qubits (sorted, usually <= 2)
}

// New returns a layout for n qubits with nobody placed yet. Qubits must be
// placed with Place before any other method touches them.
func New(a *arch.Arch, n int) *Layout {
	if n <= 0 {
		panic(fmt.Sprintf("layout: non-positive qubit count %d", n))
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = unplaced
	}
	return &Layout{arch: a, pos: pos, occ: make([][]int, a.TotalSites())}
}

// Arch returns the architecture this layout lives on.
func (l *Layout) Arch() *arch.Arch { return l.arch }

// Qubits returns the number of qubits tracked.
func (l *Layout) Qubits() int { return len(l.pos) }

// Placed reports whether qubit q has been assigned a site.
func (l *Layout) Placed(q int) bool { return l.pos[q] != unplaced }

// SiteOf returns the site of qubit q. It panics if q is unplaced.
func (l *Layout) SiteOf(q int) arch.Site {
	if !l.Placed(q) {
		panic(fmt.Sprintf("layout: qubit %d is unplaced", q))
	}
	return l.arch.SiteAt(l.pos[q])
}

// IndexOf returns the arch.SiteIndex of qubit q's site — the layout's
// native representation, so the router's hot path compares and stores
// plain ints instead of materializing Sites. It panics if q is unplaced.
func (l *Layout) IndexOf(q int) int {
	if !l.Placed(q) {
		panic(fmt.Sprintf("layout: qubit %d is unplaced", q))
	}
	return l.pos[q]
}

// PosOf returns the physical position of qubit q, in micrometres.
func (l *Layout) PosOf(q int) geom.Point { return l.arch.Pos(l.SiteOf(q)) }

// Zone returns the zone qubit q currently sits in. Computation sites
// come first in arch.SiteIndex order, so one comparison decides it.
func (l *Layout) Zone(q int) arch.Zone {
	if l.IndexOf(q) < l.arch.ComputeSites() {
		return arch.Compute
	}
	return arch.Storage
}

// At returns the qubits occupying site s, sorted ascending. The returned
// slice is owned by the layout and must not be mutated.
func (l *Layout) At(s arch.Site) []int { return l.occ[l.arch.SiteIndex(s)] }

// Occupancy returns the number of qubits at site s.
func (l *Layout) Occupancy(s arch.Site) int { return len(l.occ[l.arch.SiteIndex(s)]) }

// Place puts qubit q on site s. It panics if q is already placed or if s
// is out of bounds.
func (l *Layout) Place(q int, s arch.Site) {
	if l.Placed(q) {
		panic(fmt.Sprintf("layout: qubit %d already placed at %v", q, l.SiteOf(q)))
	}
	l.attach(q, s)
}

// Move relocates qubit q to site s. It panics if q is unplaced or s is
// out of bounds.
//
// Occupancy limits are deliberately not enforced here: a multi-step layout
// transition may pass a qubit through a still-occupied site before its
// resident departs in a later collective move. The two-qubits-per-site
// rule is physical only at Rydberg pulses, where internal/verify's
// Replay enforces it.
func (l *Layout) Move(q int, s arch.Site) {
	if !l.Placed(q) {
		panic(fmt.Sprintf("layout: cannot move unplaced qubit %d", q))
	}
	if l.pos[q] == l.arch.SiteIndex(s) {
		return
	}
	l.detach(q)
	l.attach(q, s)
}

func (l *Layout) attach(q int, s arch.Site) {
	idx := l.arch.SiteIndex(s)
	residents := append(l.occ[idx], q)
	sort.Ints(residents)
	l.occ[idx] = residents
	l.pos[q] = idx
}

func (l *Layout) detach(q int) {
	idx := l.pos[q]
	residents := l.occ[idx]
	for i, r := range residents {
		if r == q {
			l.occ[idx] = append(residents[:i], residents[i+1:]...)
			break
		}
	}
	l.pos[q] = unplaced
}

// BulkMove relocates several qubits at once: all movers are detached
// before any is re-attached, so swaps and chains apply cleanly. Like Move,
// it does not enforce occupancy limits.
func (l *Layout) BulkMove(targets map[int]arch.Site) {
	order := make([]int, 0, len(targets))
	for q := range targets {
		if !l.Placed(q) {
			panic(fmt.Sprintf("layout: cannot move unplaced qubit %d", q))
		}
		l.detach(q)
		order = append(order, q)
	}
	// Attach in ascending qubit order for determinism.
	sort.Ints(order)
	for _, q := range order {
		l.attach(q, targets[q])
	}
}

// BulkMoveSorted is the allocation-free variant of BulkMove for callers
// that already hold their movers in ascending qubit order (the router's
// finish pass): qubits[i] relocates to sites[i]. All movers are detached
// before any is re-attached, exactly like BulkMove, and the ascending
// order reproduces BulkMove's deterministic attach order. It panics if
// the slices disagree in length, a qubit is unplaced, or the qubit order
// is not strictly ascending.
func (l *Layout) BulkMoveSorted(qubits []int, sites []arch.Site) {
	if len(qubits) != len(sites) {
		panic(fmt.Sprintf("layout: %d qubits for %d sites", len(qubits), len(sites)))
	}
	for i, q := range qubits {
		if i > 0 && qubits[i-1] >= q {
			panic(fmt.Sprintf("layout: BulkMoveSorted qubits not ascending at %d", i))
		}
		if !l.Placed(q) {
			panic(fmt.Sprintf("layout: cannot move unplaced qubit %d", q))
		}
		l.detach(q)
	}
	for i, q := range qubits {
		l.attach(q, sites[i])
	}
}

// Clone returns an independent deep copy of the layout.
func (l *Layout) Clone() *Layout {
	out := &Layout{
		arch: l.arch,
		pos:  append([]int(nil), l.pos...),
		occ:  make([][]int, len(l.occ)),
	}
	for i, qs := range l.occ {
		if len(qs) > 0 {
			out.occ[i] = append([]int(nil), qs...)
		}
	}
	return out
}

// InZone returns the qubits currently in zone z, sorted ascending.
func (l *Layout) InZone(z arch.Zone) []int {
	var out []int
	for q := range l.pos {
		if l.Placed(q) && l.Zone(q) == z {
			out = append(out, q)
		}
	}
	return out
}

// EmptySitesByDistance returns the empty sites of zone z ordered by
// Euclidean distance from p (ties broken by row, then column). The router
// uses this ordering for the nearest-empty-site searches of Sec. 5.2
// steps 1 and 3.
func (l *Layout) EmptySitesByDistance(z arch.Zone, p geom.Point) []arch.Site {
	var out []arch.Site
	for _, s := range l.arch.Sites(z) {
		if l.Occupancy(s) == 0 {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		di := l.arch.Pos(out[i]).Dist(p)
		dj := l.arch.Pos(out[j]).Dist(p)
		if di != dj {
			return di < dj
		}
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// PlaceAll places qubits 0..n-1 in row-major order starting from row 0 of
// zone z. This is the initial layout of Sec. 4.2 (all qubits in storage
// for the zoned pipeline) and the home layout of the Enola baseline (all
// qubits in the computation zone). It panics if the zone cannot hold the
// qubits one per site.
func (l *Layout) PlaceAll(z arch.Zone) {
	sites := l.arch.Sites(z)
	if len(sites) < len(l.pos) {
		panic(fmt.Sprintf("layout: zone %v has %d sites for %d qubits", z, len(sites), len(l.pos)))
	}
	for q := range l.pos {
		l.Place(q, sites[q])
	}
}
