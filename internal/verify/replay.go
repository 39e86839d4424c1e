package verify

import (
	"fmt"

	"powermove/internal/arch"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/phys"
)

// Replay walks a compiled program against the architecture model and
// holds the only implementation of the physical rules: AOD capacity and
// order preservation within each collective move (Sec. 5.3 / Fig. 5),
// move endpoints that agree with the replay layout and with their own
// coordinates, and the occupancy and blockade rules of every Rydberg
// pulse (Sec. 5.1, Table 1). It hands each violation to its sink and
// stops when the sink returns false. Past a violation it is best-effort:
// a move lands when both its endpoints are in bounds. No program makes
// it panic, and a legal instruction reuses the per-replay working sets.
type Replay struct {
	l    *layout.Layout
	a    *arch.Arch
	sink func(Violation) bool
	// idx is the instruction being replayed; found counts the
	// violations reported so far.
	idx, found int
	stopped    bool
	// last[q] is the index of the last instruction that moved or paired
	// q, and partner[q] q's partner in the last pulse that paired it.
	last, partner []int
	// occupied counts the sites holding at least one qubit.
	occupied int
}

// NewReplay prepares a replay of prog from a clone of initial. It
// reports a program-level violation (Instr -1) and returns nil when there
// is nothing to replay against: a nil program or layout, a qubit-count
// mismatch, or an unplaced initial qubit.
func NewReplay(prog *isa.Program, initial *layout.Layout, sink func(Violation) bool) *Replay {
	r := &Replay{sink: sink, idx: -1}
	switch {
	case prog == nil || initial == nil:
		r.report(EmptyInstr, nil, "nil program or initial layout")
		return nil
	case prog.Qubits != initial.Qubits():
		r.report(OutOfBounds, nil, "program has %d qubits, layout tracks %d", prog.Qubits, initial.Qubits())
		return nil
	}
	n := initial.Qubits()
	r.last, r.partner = make([]int, n), make([]int, n)
	for q := range r.last {
		if !initial.Placed(q) {
			r.report(OutOfBounds, []int{q}, "qubit %d unplaced in the initial layout", q)
			return nil
		}
		r.last[q] = -1
	}
	r.l = initial.Clone()
	r.a = r.l.Arch()
	for i := 0; i < r.a.TotalSites(); i++ {
		if r.l.Occupancy(r.a.SiteAt(i)) > 0 {
			r.occupied++
		}
	}
	return r
}

// Layout returns where every qubit sits after the last replayed
// instruction.
func (r *Replay) Layout() *layout.Layout { return r.l }

// Touched reports whether the last replayed instruction moved qubit q (a
// move batch) or scheduled it in a pair (a Rydberg pulse).
func (r *Replay) Touched(q int) bool { return r.last[q] == r.idx }

// Step replays instruction idx of the program. It returns false once the
// sink has asked the replay to stop.
func (r *Replay) Step(idx int, in isa.Instruction) bool {
	if r.stopped {
		return false
	}
	r.idx = idx
	switch in := in.(type) {
	case isa.OneQLayer:
		if in.Count < 0 {
			r.report(EmptyInstr, nil, "negative 1Q gate count %d", in.Count)
		}
	case isa.MoveBatch:
		r.batch(in)
	case isa.Rydberg:
		r.pulse(in)
	default:
		r.report(EmptyInstr, nil, "unknown instruction type %T", in)
	}
	return !r.stopped
}

func (r *Replay) report(code Code, qubits []int, format string, args ...any) {
	r.found++
	if r.stopped {
		return
	}
	v := Violation{Code: code, Instr: r.idx, Qubits: qubits, Detail: fmt.Sprintf(format, args...)}
	if !r.sink(v) {
		r.stopped = true
	}
}

// batch checks one collective-move batch — AOD capacity, per-group
// order preservation, per-batch exclusivity, and source/endpoint
// consistency — and lands its moves on the replay layout.
func (r *Replay) batch(in isa.MoveBatch) {
	if len(in.Groups) == 0 {
		r.report(EmptyInstr, nil, "move batch with no groups")
		return
	}
	if len(in.Groups) > r.a.AODs {
		r.report(AODOverflow, nil, "batch uses %d groups, architecture has %d AOD array(s)", len(in.Groups), r.a.AODs)
	}
	n := r.l.Qubits()
	for aod, g := range in.Groups {
		// The order-preservation predicate of Sec. 5.3, re-derived from
		// the emitted endpoint coordinates rather than trusting the
		// grouping pass. Valid decides it in O(k log k); only a group
		// that fails is scanned pairwise, to name every conflicting pair.
		if !g.Valid() {
			for i := range g.Moves {
				for j := i + 1; j < len(g.Moves); j++ {
					if move.Conflicts(g.Moves[i], g.Moves[j]) {
						r.report(AODConflict, []int{g.Moves[i].Qubit, g.Moves[j].Qubit},
							"AOD %d: moves %v and %v invert row/column order", aod, g.Moves[i], g.Moves[j])
					}
				}
			}
		}
		for _, m := range g.Moves {
			if m.Qubit < 0 || m.Qubit >= n {
				r.report(OutOfBounds, []int{m.Qubit}, "AOD %d: move references qubit %d of %d", aod, m.Qubit, n)
				continue
			}
			if !r.a.InBounds(m.FromSite) || !r.a.InBounds(m.ToSite) {
				r.report(OutOfBounds, []int{m.Qubit}, "AOD %d: move %v has out-of-bounds endpoint", aod, m)
				continue
			}
			from, to := r.a.SiteIndex(m.FromSite), r.a.SiteIndex(m.ToSite)
			if r.a.PosAt(from) != m.From || r.a.PosAt(to) != m.To {
				r.report(EndpointMismatch, []int{m.Qubit},
					"AOD %d: move %v carries coordinates %v->%v, sites resolve to %v->%v",
					aod, m, m.From, m.To, r.a.PosAt(from), r.a.PosAt(to))
			}
			if r.Touched(m.Qubit) {
				r.report(DoubleMove, []int{m.Qubit}, "AOD %d: qubit %d moved twice in one batch", aod, m.Qubit)
			}
			r.last[m.Qubit] = r.idx
			if cur := r.l.IndexOf(m.Qubit); cur != from {
				r.report(StaleSource, []int{m.Qubit},
					"AOD %d: qubit %d is at %v, move departs from %v", aod, m.Qubit, r.a.SiteAt(cur), m.FromSite)
				from = cur
			}
			if from != to {
				if r.l.Occupancy(m.ToSite) == 0 {
					r.occupied++
				}
				r.l.Move(m.Qubit, m.ToSite)
				if r.l.Occupancy(r.a.SiteAt(from)) == 0 {
					r.occupied--
				}
			}
		}
	}
}

// pulse checks the pairing, occupancy and blockade rules of one global
// Rydberg pulse (Sec. 5.1 and the blockade geometry of Table 1).
func (r *Replay) pulse(in isa.Rydberg) {
	if len(in.Pairs) == 0 {
		r.report(EmptyInstr, nil, "Rydberg pulse with no gates")
		return
	}
	n := r.l.Qubits()
	found, colocated := r.found, 0
	for _, g := range in.Pairs {
		if g.A < 0 || g.B < 0 || g.A >= n || g.B >= n {
			r.report(OutOfBounds, []int{g.A, g.B}, "pulse schedules %v outside the %d-qubit register", g, n)
			continue
		}
		if r.Touched(g.A) || r.Touched(g.B) {
			r.report(QubitReuse, []int{g.A, g.B}, "stage %d schedules a qubit of %v twice", in.Stage, g)
		}
		r.last[g.A], r.last[g.B] = r.idx, r.idx
		r.partner[g.A], r.partner[g.B] = g.B, g.A
		sa, sb := r.l.IndexOf(g.A), r.l.IndexOf(g.B)
		if sa != sb {
			r.report(SplitPair, []int{g.A, g.B}, "pair %v split across %v and %v", g, r.a.SiteAt(sa), r.a.SiteAt(sb))
			continue
		}
		if s := r.a.SiteAt(sa); s.Zone != arch.Compute {
			r.report(StorageInteraction, []int{g.A, g.B}, "pair %v scheduled at storage site %v", g, s)
		}
		if g.A != g.B {
			colocated++
		}
	}
	// With every pair clean, each pair's site holds at least two qubits,
	// so the n qubits fill at most n - colocated sites — exactly that
	// many when each pair has its site to itself and every other qubit
	// is alone. Only a pulse that fails this count walks the sites to
	// name the culprits.
	if r.stopped || (r.found == found && n-r.occupied == colocated) {
		return
	}
	r.crowding(in.Stage)
}

// crowding reports the occupancy and blockade violations of the pulse
// being replayed: sites holding more than two qubits, doubly-occupied
// sites that do not hold exactly one scheduled pair, and idle
// computation-zone qubits within phys.MinSeparation of an interacting
// one. Distinct sites sit at least phys.SitePitch apart, more than
// phys.MinSeparation, so an idle qubit breaches the blockade exactly
// when it shares a site with an interacting qubit.
func (r *Replay) crowding(stage int) {
	for i := 0; i < r.a.TotalSites(); i++ {
		s := r.a.SiteAt(i)
		qs := r.l.At(s)
		switch {
		case len(qs) > 2:
			r.report(TrapOverflow, append([]int(nil), qs...), "site %v holds %d qubits %v", s, len(qs), qs)
		case len(qs) == 2:
			if !r.Touched(qs[0]) || r.partner[qs[0]] != qs[1] {
				r.report(StrayPair, append([]int(nil), qs...), "site %v holds non-interacting qubits %v", s, qs)
			}
		}
	}
	for q := 0; q < r.l.Qubits(); q++ {
		if r.Touched(q) || r.l.Zone(q) != arch.Compute {
			continue
		}
		s := r.l.SiteOf(q)
		for _, other := range r.l.At(s) {
			if r.Touched(other) {
				r.report(SpacingBreach, []int{q, other},
					"stage %d: idle qubit %d shares site %v with interacting qubit %d (blockade needs %.1f um)",
					stage, q, s, other, phys.MinSeparation)
			}
		}
	}
}
