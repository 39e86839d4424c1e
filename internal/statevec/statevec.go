// Package statevec is a naive dense state vector, kept as a differential
// reference for tests: only _test.go files import it. The verifier
// decides equivalence structurally (internal/verify); the tests use this
// package to confirm on small registers that a program the walk accepts
// leaves a random state exactly where its source circuit's CZ stream
// leaves it.
//
// The gates (H, X, Z, RZ, CZ, CX) are serial loops over the amplitudes.
// States are vectors of 2^n complex amplitudes; qubit 0 is the least
// significant bit of the basis index.
package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// MaxQubits bounds the register size: 2^24 amplitudes, 256 MiB of
// complex128.
const MaxQubits = 24

// State is a normalized quantum state on n qubits.
type State struct {
	n   int
	amp []complex128
}

// NewZero returns |0...0> on n qubits.
// It panics if n is out of (0, MaxQubits].
func NewZero(n int) *State {
	if n <= 0 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: qubit count %d outside (0, %d]", n, MaxQubits))
	}
	amp := make([]complex128, 1<<uint(n))
	amp[0] = 1
	return &State{n: n, amp: amp}
}

// NewRandom returns a random normalized state whose amplitudes have
// independent uniform real and imaginary parts. Every amplitude is
// nonzero almost surely, so two CZ streams that differ in any pair's
// parity leave sign differences the comparison sees.
func NewRandom(n int, rng *rand.Rand) *State {
	s := NewZero(n)
	norm := 0.0
	for i := range s.amp {
		re, im := 2*rng.Float64()-1, 2*rng.Float64()-1
		s.amp[i] = complex(re, im)
		norm += re*re + im*im
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.amp {
		s.amp[i] *= scale
	}
	return s
}

// Clone returns an independent copy.
func (s *State) Clone() *State {
	return &State{n: s.n, amp: append([]complex128(nil), s.amp...)}
}

// Amplitude returns the amplitude of basis state idx.
func (s *State) Amplitude(idx int) complex128 { return s.amp[idx] }

// Probability returns |amplitude|^2 of basis state idx.
func (s *State) Probability(idx int) float64 {
	a := s.amp[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Norm returns the 2-norm of the state (1 for any valid state).
func (s *State) Norm() float64 {
	sum := 0.0
	for _, a := range s.amp {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// eachPair calls f(i, i+bit) for every basis index i whose qubit-q bit
// is clear, walking the amplitudes in blocks of 2*bit.
// It panics if q is outside the register.
func (s *State) eachPair(q int, f func(i, j int)) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("statevec: qubit %d outside register of %d", q, s.n))
	}
	bit := 1 << uint(q)
	for lo := 0; lo < len(s.amp); lo += 2 * bit {
		for i := lo; i < lo+bit; i++ {
			f(i, i+bit)
		}
	}
}

// H applies a Hadamard to qubit q.
func (s *State) H(q int) {
	inv := complex(1/math.Sqrt2, 0)
	s.eachPair(q, func(i, j int) {
		a, b := s.amp[i], s.amp[j]
		s.amp[i], s.amp[j] = inv*(a+b), inv*(a-b)
	})
}

// X applies a Pauli-X (NOT) to qubit q.
func (s *State) X(q int) {
	s.eachPair(q, func(i, j int) { s.amp[i], s.amp[j] = s.amp[j], s.amp[i] })
}

// Z applies a Pauli-Z to qubit q.
func (s *State) Z(q int) { s.RZ(q, math.Pi) }

// RZ applies the phase rotation diag(1, e^{i*theta}) to qubit q.
func (s *State) RZ(q int, theta float64) {
	phase := cmplx.Exp(complex(0, theta))
	s.eachPair(q, func(_, j int) { s.amp[j] *= phase })
}

// CZ applies a controlled-Z between qubits a and b: it negates every
// amplitude whose basis index has both bits set.
// It panics if a == b or either qubit is outside the register.
func (s *State) CZ(a, b int) {
	if a < 0 || b < 0 || a >= s.n || b >= s.n || a == b {
		panic(fmt.Sprintf("statevec: CZ(%d, %d) on a %d-qubit register", a, b, s.n))
	}
	mask := 1<<uint(a) | 1<<uint(b)
	for i := range s.amp {
		if i&mask == mask {
			s.amp[i] = -s.amp[i]
		}
	}
}

// CX applies a controlled-X with control c and target t, via the
// H-CZ-H identity the hardware compiles it to.
func (s *State) CX(c, t int) {
	s.H(t)
	s.CZ(c, t)
	s.H(t)
}

// InnerProduct returns <s|o>.
// It panics on register-size mismatch.
func (s *State) InnerProduct(o *State) complex128 {
	if s.n != o.n {
		panic(fmt.Sprintf("statevec: register sizes %d and %d differ", s.n, o.n))
	}
	var sum complex128
	for i, a := range s.amp {
		sum += cmplx.Conj(a) * o.amp[i]
	}
	return sum
}

// Fidelity returns |<s|o>|^2, the overlap probability of the two states.
func (s *State) Fidelity(o *State) float64 {
	ip := s.InnerProduct(o)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// Equal reports whether the states coincide up to tol in the max-norm
// of the amplitude difference. Global phase is not factored out: CZ is
// phase-exact. NaN amplitudes compare unequal.
func (s *State) Equal(o *State, tol float64) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.amp {
		if !(cmplx.Abs(s.amp[i]-o.amp[i]) <= tol) {
			return false
		}
	}
	return true
}
