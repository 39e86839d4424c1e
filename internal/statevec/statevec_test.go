package statevec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func TestZeroState(t *testing.T) {
	s := NewZero(3)
	if s.Probability(0) != 1 {
		t.Error("|000> amplitude wrong")
	}
	if math.Abs(s.Norm()-1) > tol {
		t.Error("norm != 1")
	}
}

func TestNewZeroPanics(t *testing.T) {
	for _, n := range []int{0, -1, MaxQubits + 1} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZero(%d) did not panic", n)
				}
			}()
			NewZero(n)
		}()
	}
}

// TestHIsInvolution: H twice is the identity.
func TestHIsInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewRandom(4, rng)
	orig := s.Clone()
	s.H(2)
	s.H(2)
	if !s.Equal(orig, 1e-9) {
		t.Error("H^2 != I")
	}
}

// TestXAndCZInvolutions: X^2 = CZ^2 = I.
func TestXAndCZInvolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewRandom(4, rng)
	orig := s.Clone()
	s.X(1)
	s.X(1)
	s.CZ(0, 3)
	s.CZ(0, 3)
	if !s.Equal(orig, 1e-9) {
		t.Error("involutions failed")
	}
}

// TestCZInvolution: CZ moves a random state, and CZ twice is the
// identity.
func TestCZInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewRandom(4, rng)
	orig := s.Clone()
	s.CZ(0, 3)
	if s.Equal(orig, 1e-9) {
		t.Error("CZ left a random state unchanged")
	}
	s.CZ(0, 3)
	if !s.Equal(orig, 1e-9) {
		t.Error("CZ^2 != I")
	}
}

// TestBellViaCX: H + CX produce the Bell state with the right amplitudes.
func TestBellViaCX(t *testing.T) {
	s := NewZero(2)
	s.H(0)
	s.CX(0, 1)
	want := 1 / math.Sqrt2
	if math.Abs(real(s.Amplitude(0))-want) > tol || math.Abs(real(s.Amplitude(3))-want) > tol {
		t.Errorf("Bell amplitudes: %v, %v", s.Amplitude(0), s.Amplitude(3))
	}
	if p := s.Probability(1) + s.Probability(2); p > tol {
		t.Errorf("odd-parity probability %v, want 0", p)
	}
}

// TestCZSymmetric: CZ(a,b) == CZ(b,a).
func TestCZSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewRandom(4, rng)
	b := a.Clone()
	a.CZ(1, 3)
	b.CZ(3, 1)
	if !a.Equal(b, tol) {
		t.Error("CZ not symmetric")
	}
}

// TestCZGatesCommute is the algebraic fact the whole stage scheduler
// rests on: any two CZ gates commute, so reordering a commutable block
// preserves the unitary.
func TestCZGatesCommute(t *testing.T) {
	f := func(seed int64, a1, b1, a2, b2 uint8) bool {
		n := 5
		q := func(x uint8) int { return int(x) % n }
		if q(a1) == q(b1) || q(a2) == q(b2) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		s1 := NewRandom(n, rng)
		s2 := s1.Clone()
		s1.CZ(q(a1), q(b1))
		s1.CZ(q(a2), q(b2))
		s2.CZ(q(a2), q(b2))
		s2.CZ(q(a1), q(b1))
		return s1.Equal(s2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGatesPreserveNorm: all gates are unitary.
func TestGatesPreserveNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewRandom(5, rng)
	ops := []func(){
		func() { s.H(0) }, func() { s.X(1) }, func() { s.Z(2) },
		func() { s.RZ(3, 0.7) }, func() { s.CZ(0, 4) }, func() { s.CX(2, 3) },
	}
	for i, op := range ops {
		op()
		if math.Abs(s.Norm()-1) > 1e-9 {
			t.Fatalf("op %d broke normalization: %v", i, s.Norm())
		}
	}
}

func TestRZPhase(t *testing.T) {
	s := NewZero(1)
	s.X(0) // |1>
	s.RZ(0, math.Pi/2)
	got := s.Amplitude(1)
	if math.Abs(real(got)) > tol || math.Abs(imag(got)-1) > tol {
		t.Errorf("RZ(pi/2)|1> = %v, want i", got)
	}
	// Z == RZ(pi).
	a := NewZero(1)
	a.X(0)
	a.Z(0)
	if math.Abs(real(a.Amplitude(1))+1) > tol {
		t.Errorf("Z|1> = %v, want -1", a.Amplitude(1))
	}
}

func TestFidelityAndInnerProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewRandom(4, rng)
	if f := s.Fidelity(s); math.Abs(f-1) > 1e-9 {
		t.Errorf("self-fidelity = %v", f)
	}
	o := s.Clone()
	o.X(0)
	if f := s.Fidelity(o); f > 0.999 {
		t.Errorf("orthogonal-ish states report fidelity %v", f)
	}
	zero, one := NewZero(1), NewZero(1)
	one.X(0)
	if f := zero.Fidelity(one); f > tol {
		t.Errorf("<0|1> fidelity = %v", f)
	}
}

func TestPanicsOnBadQubits(t *testing.T) {
	s := NewZero(2)
	cases := []func(){
		func() { s.H(2) },
		func() { s.CZ(0, 0) },
		func() { s.CZ(0, 5) },
		func() { s.CZ(-1, 1) },
		func() { s.InnerProduct(NewZero(3)) },
	}
	for i, op := range cases {
		i, op := i, op
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			op()
		}()
	}
}

func TestEqualSizeMismatch(t *testing.T) {
	if NewZero(2).Equal(NewZero(3), tol) {
		t.Error("different registers reported equal")
	}
}
