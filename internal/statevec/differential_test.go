package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// This file pins the block-walking 1Q gate loops to mask-scan references
// that visit every index and test the qubit's bit. The tests assert the
// two produce bit-identical amplitudes on random states, so the package's
// equivalence checks keep their exact meaning.

func naiveH(s *State, q int) {
	bit := 1 << uint(q)
	inv := complex(1/math.Sqrt2, 0)
	for i := range s.amp {
		if i&bit == 0 {
			a, b := s.amp[i], s.amp[i|bit]
			s.amp[i] = inv * (a + b)
			s.amp[i|bit] = inv * (a - b)
		}
	}
}

func naiveX(s *State, q int) {
	bit := 1 << uint(q)
	for i := range s.amp {
		if i&bit == 0 {
			s.amp[i], s.amp[i|bit] = s.amp[i|bit], s.amp[i]
		}
	}
}

func naiveRZ(s *State, q int, theta float64) {
	bit := 1 << uint(q)
	phase := cmplx.Exp(complex(0, theta))
	for i := range s.amp {
		if i&bit != 0 {
			s.amp[i] *= phase
		}
	}
}

func naiveCZ(s *State, a, b int) {
	mask := 1<<uint(a) | 1<<uint(b)
	for i := range s.amp {
		if i&mask == mask {
			s.amp[i] = -s.amp[i]
		}
	}
}

// identical demands bit-identical amplitudes, not tolerance equality: the
// gate loops perform the same float operations on the same elements as
// the references, so any difference is a bug in the index walk.
func identical(t *testing.T, label string, got, want *State) {
	t.Helper()
	for i := range want.amp {
		if got.amp[i] != want.amp[i] {
			t.Fatalf("%s: amplitude %d differs: %v vs %v", label, i, got.amp[i], want.amp[i])
		}
	}
}

// TestKernelsMatchNaiveReference applies long random gate sequences to
// random states through the gate methods and the mask-scan references,
// at several register sizes.
func TestKernelsMatchNaiveReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 12} {
		rng := rand.New(rand.NewSource(int64(100 * n)))
		fast := NewRandom(n, rng)
		ref := fast.Clone()

		for step := 0; step < 120; step++ {
			q := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				fast.H(q)
				naiveH(ref, q)
			case 1:
				fast.X(q)
				naiveX(ref, q)
			case 2:
				theta := rng.Float64() * 2 * math.Pi
				fast.RZ(q, theta)
				naiveRZ(ref, q, theta)
			default:
				if n < 2 {
					continue
				}
				p := rng.Intn(n)
				if p == q {
					p = (q + 1) % n
				}
				fast.CZ(q, p)
				naiveCZ(ref, q, p)
			}
		}
		identical(t, fmt.Sprintf("n=%d", n), fast, ref)
	}
}

// TestCXStillComposes: the compiled CX identity H-CZ-H flips the target
// exactly when the control is set.
func TestCXStillComposes(t *testing.T) {
	s := NewZero(2)
	s.X(0)     // |01>
	s.CX(0, 1) // control q0 -> |11>
	if p := s.Probability(3); math.Abs(p-1) > 1e-12 {
		t.Fatalf("P(|11>) = %v, want 1", p)
	}
}
