package verify

import (
	"testing"

	"powermove/internal/arch"
	"powermove/internal/geom"
	"powermove/internal/phys"
)

// TestDistinctSitesOutsideBlockade pins the geometry the replay's
// spacing rule relies on: on every default architecture up to 400
// qubits, two distinct sites sit at least phys.MinSeparation apart, so
// an idle qubit can breach the blockade only by sharing an interacting
// qubit's site.
func TestDistinctSitesOutsideBlockade(t *testing.T) {
	prev := 0
	for n := 1; n <= 400; n++ {
		a := arch.New(arch.Config{Qubits: n})
		if a.ComputeRows == prev {
			continue // same grid as n-1
		}
		prev = a.ComputeRows
		pos := make([]geom.Point, a.TotalSites())
		for i := range pos {
			pos[i] = a.PosAt(i)
		}
		for i := range pos {
			for j := i + 1; j < len(pos); j++ {
				if d := pos[i].Dist(pos[j]); d < phys.MinSeparation {
					t.Fatalf("n=%d: sites %v and %v are %.1f um apart, under the %.1f um blockade separation",
						n, a.SiteAt(i), a.SiteAt(j), d, phys.MinSeparation)
				}
			}
		}
	}
}
