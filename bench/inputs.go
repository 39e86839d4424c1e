package main

import (
	"fmt"

	"powermove/internal/circuit"
	"powermove/internal/experiments"
	"powermove/internal/pipeline"
	"powermove/internal/qasm"
	"powermove/internal/service"
	"powermove/internal/workload"
)

// Every input of every workload is a pure function of the run's -seed
// and the op's index, so the same seed gives the same inputs whatever
// the host's speed.

// rng is a splitmix64 generator: cheap to seed per op, unlike
// math/rand's sources.
type rng uint64

func newRNG(seed int64, salt uint64) *rng {
	r := rng(uint64(seed)*0x9E3779B97F4A7C15 ^ salt*0xD1B54A32D192ED03)
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniform permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// shape is one stratum of a request stream: a family at one size, and
// the scheme and AOD count to compile with.
type shape struct {
	Family experiments.Family
	Qubits int
	Scheme pipeline.Scheme
	AODs   int
}

// input is one generated compile request.
type input struct {
	shape
	Seed int64
}

// request is the /v1/compile body for in. The explicit seed makes every
// input its own cache key, even for families whose circuit ignores it.
func (in input) request() *service.CompileRequest {
	seed := in.Seed
	return &service.CompileRequest{
		Workload:    &service.WorkloadSpec{Family: string(in.Family), Qubits: in.Qubits, Seed: &seed},
		CompileSpec: service.CompileSpec{Scheme: string(in.Scheme), AODs: in.AODs},
	}
}

// bench is the cache identity the service reports for in.
func (in input) bench() string { return fmt.Sprintf("%s-%d@%d", in.Family, in.Qubits, in.Seed) }

func (in input) circuit() *circuit.Circuit { return generate(in.Family, in.Qubits, in.Seed) }

// generate builds family's circuit under an explicit seed, as the
// service does for a workload request that carries one.
func generate(family experiments.Family, n int, seed int64) *circuit.Circuit {
	switch family {
	case experiments.QAOARegular3:
		return workload.QAOARegular(n, 3, seed)
	case experiments.QAOARegular4:
		return workload.QAOARegular(n, 4, seed)
	case experiments.QAOARandom:
		return workload.QAOARandom(n, seed)
	case experiments.QFT:
		return workload.QFT(n)
	case experiments.BV:
		return workload.BV(n, seed)
	case experiments.VQE:
		return workload.VQE(n)
	case experiments.QSim:
		return workload.QSim(n, seed)
	}
	panic("bench: unknown family " + string(family))
}

// stream is a stratified request stream: each cycle of len(shapes) ops
// visits every shape once in a seeded order. Every run therefore sends
// the same mix of families, sizes and schemes, and the seed changes only
// the order and the instances (graphs, secrets, Pauli strings).
type stream struct {
	shapes []shape
	seed   int64
	salt   uint64
}

// at returns op i of the stream.
func (s stream) at(i int) input {
	cycle, pos := i/len(s.shapes), i%len(s.shapes)
	sh := s.shapes[newRNG(s.seed, s.salt^uint64(cycle)<<20).perm(len(s.shapes))[pos]]
	return input{shape: sh, Seed: instanceSeed(s.seed, s.salt, i)}
}

// instanceSeed is the generator seed of op i: it picks the instance (graph,
// secret, Pauli strings) and makes the op its own cache key.
func instanceSeed(seed int64, salt uint64, i int) int64 {
	return int64(newRNG(seed, salt^uint64(i)<<1|1).next() >> 1)
}

// paperShapes are the strata of serve-cold and serve-hot: the paper's
// evaluation points (Table 3, the five Fig. 6 panels and the Fig. 7 AOD
// sweep), 111 combinations of family, size, scheme and AOD count. The
// serving mix is therefore the paper's: 32 circuits under Enola,
// non-storage and with-storage at one AOD, plus with-storage at two to
// four AODs for the five Fig. 7 circuits. Quick mode keeps the points of
// at most 20 qubits.
func paperShapes(quick bool) []shape {
	var out []shape
	for _, j := range paperJobs() {
		sp := specOf(j.Key.Bench)
		if quick && sp.Qubits > 20 {
			continue
		}
		out = append(out, shape{sp.Family, sp.Qubits, j.Key.Scheme, j.Key.AODs})
	}
	return out
}

// verifyShapes are the verify-large strata: the five Fig. 6 families at
// 16, 18 and 20 qubits, each under the three schemes of a Table-3 row.
// The paper has no points this small; 20 qubits is the largest register
// whose state-vector oracle stays within the host's memory budget.
func verifyShapes(quick bool) []shape {
	ns := []int{16, 18, 20}
	if quick {
		ns = []int{10, 12}
	}
	var out []shape
	for _, f := range experiments.Figure6Families() {
		for _, n := range ns {
			for _, j := range (experiments.Spec{Family: f, Qubits: n}).ComparisonJobs(1) {
				out = append(out, shape{f, n, j.Key.Scheme, j.Key.AODs})
			}
		}
	}
	return out
}

// session is one edit-async editing session: a deep QAOA circuit
// submitted whole, then with one gate of its last ZZ block dropped per
// edit. Each edit drops a different gate, so no two bodies repeat, and
// every edit shares the base's leading blocks. The session's shape (one
// base, nine edits, the sizes and depths) is assumed: no record of how
// users edit circuits exists to draw it from.
type session struct {
	base func() *circuit.Circuit
	name string
}

// editsPerSession is the number of tail edits after each base.
const editsPerSession = 9

// sessionAt returns session s of an edit-async stream: deep
// QAOA-regular3 at 30, 40, 50 or 60 qubits and p = 2..5, stratified like
// the request streams.
func sessionAt(seed int64, salt uint64, s int, quick bool) session {
	type st struct{ n, p int }
	var shapes []st
	ns, depths := []int{30, 40, 50, 60}, []int{2, 3, 4, 5}
	if quick {
		ns, depths = []int{12}, []int{2, 3}
	}
	for _, n := range ns {
		for _, p := range depths {
			shapes = append(shapes, st{n, p})
		}
	}
	cycle, pos := s/len(shapes), s%len(shapes)
	sh := shapes[newRNG(seed, salt^uint64(cycle)<<20).perm(len(shapes))[pos]]
	gseed := int64(newRNG(seed, salt^uint64(s)<<1|1).next() >> 1)
	return session{
		base: func() *circuit.Circuit { return workload.QAOARegularP(sh.n, 3, sh.p, gseed) },
		name: fmt.Sprintf("QAOA-regular3-%d-p%d@%d", sh.n, sh.p, gseed),
	}
}

// circuit returns op k of the session: the base for k = 0, else the base
// without the k-th selected gate of its last ZZ block.
func (s session) circuit(k int) *circuit.Circuit {
	c := s.base()
	if k == 0 {
		return c
	}
	last := len(c.Blocks) - 1
	for last > 0 && len(c.Blocks[last].Gates) == 0 {
		last--
	}
	gates := c.Blocks[last].Gates
	drop := (k - 1) * len(gates) / editsPerSession
	kept := make([]circuit.CZ, 0, len(gates)-1)
	kept = append(kept, gates[:drop]...)
	c.Blocks[last].Gates = append(kept, gates[drop+1:]...)
	return c
}

// jobBody is the POST /v1/jobs body compiling src with storage.
func jobBody(src string) []byte {
	return mustJSON(service.JobRequest{Compile: &service.CompileRequest{
		QASM:        src,
		CompileSpec: service.CompileSpec{Scheme: string(pipeline.WithStorage)},
	}})
}

// bodies renders the session's ops as job submissions.
func (s session) bodies() [][]byte {
	out := make([][]byte, editsPerSession+1)
	for k := range out {
		out[k] = jobBody(qasm.Write(s.circuit(k)))
	}
	return out
}
