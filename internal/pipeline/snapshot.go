package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/compiler"
)

// SnapshotStore is the incremental-compilation cache: per-block compiler
// checkpoints indexed by content hashes, shared across requests. A fresh
// compile of a resumable pipeline captures a checkpoint after every
// block; a later compile whose circuit shares a leading block prefix
// with a stored entry (same scheme configuration, qubit count, and
// architecture shape) resumes from the longest matching checkpoint and
// lowers only the divergent tail — placement and the shared blocks are
// never re-run. A compile that shares no leading block with any entry
// runs cold.
//
// The store is safe for concurrent use: checkpoints are immutable once
// captured, probes and inserts are serialized, and compilation happens
// outside the lock.
type SnapshotStore struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*snapEntry
	order   []string // LRU order, least recent first

	probes     int64
	prefixHits int64
	savedNS    int64
}

// snapEntry is one cached compilation's incremental state.
type snapEntry struct {
	canon    string
	configID string
	qubits   int
	archFP   uint64
	// hashes are the per-block content hashes of the compiled circuit;
	// cps[i] is the checkpoint after block i. len(cps) == len(hashes).
	hashes [][16]byte
	cps    []compiler.Checkpoint
}

// DefaultSnapshotCap is the default bound on retained snapshot entries.
// Checkpoints hold layout clones and program prefixes, so the store is
// deliberately much smaller than the outcome cache.
const DefaultSnapshotCap = 64

// NewSnapshotStore returns a store retaining at most capacity entries
// (<= 0 selects DefaultSnapshotCap).
func NewSnapshotStore(capacity int) *SnapshotStore {
	if capacity <= 0 {
		capacity = DefaultSnapshotCap
	}
	return &SnapshotStore{
		cap:     capacity,
		entries: make(map[string]*snapEntry),
	}
}

// SnapshotStats is the store's observability snapshot.
type SnapshotStats struct {
	// Entries is the number of retained snapshot entries.
	Entries int `json:"entries"`
	// Probes counts incremental-path compiles that consulted the store.
	Probes int64 `json:"probes"`
	// PrefixHits counts compiles resumed from a shared-prefix
	// checkpoint.
	PrefixHits int64 `json:"incremental_prefix_hits"`
	// SavedMS is the cumulative compile wall clock the resumed prefixes
	// had already paid for — the saved-time ledger.
	SavedMS float64 `json:"saved_ms"`
}

// Stats returns the store's counters.
func (s *SnapshotStore) Stats() SnapshotStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SnapshotStats{
		Entries:    len(s.entries),
		Probes:     s.probes,
		PrefixHits: s.prefixHits,
		SavedMS:    float64(s.savedNS) / 1e6,
	}
}

// configID renders the key fields that select the pipeline — scheme,
// AOD count, grouping — excluding the benchmark name (prefix sharing
// works across benchmarks) and the verify flag (verification consumes
// the compiled program, it does not change it).
func configID(key Key) string {
	return fmt.Sprintf("%s/%d/%s", key.Scheme, key.AODs, key.Grouping)
}

// blockHashes content-hashes every block of circ: the 1Q count and the
// normalized gate list, independent of the circuit's name. Equal hashes
// mean equal blocks, so a shared leading run of hashes is a shared
// compilation prefix.
func blockHashes(circ *circuit.Circuit) [][16]byte {
	hashes := make([][16]byte, len(circ.Blocks))
	var buf [8]byte
	for i := range circ.Blocks {
		b := &circ.Blocks[i]
		h := sha256.New()
		binary.LittleEndian.PutUint64(buf[:], uint64(b.OneQ))
		h.Write(buf[:])
		for _, g := range b.Gates {
			binary.LittleEndian.PutUint32(buf[:4], uint32(g.A))
			binary.LittleEndian.PutUint32(buf[4:], uint32(g.B))
			h.Write(buf[:])
		}
		copy(hashes[i][:], h.Sum(nil))
	}
	return hashes
}

// probe finds the best incremental starting point for a compile with the
// given identity: the checkpoints of the longest shared block prefix
// among compatible entries, or nil when no entry shares a first block.
func (s *SnapshotStore) probe(cfg string, qubits int, archFP uint64, hashes [][16]byte) []compiler.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes++

	var best *snapEntry
	bestK := 0
	for _, e := range s.entries {
		if e.configID != cfg || e.qubits != qubits || e.archFP != archFP {
			continue
		}
		k := sharedPrefix(e.hashes, hashes)
		if k > bestK {
			best, bestK = e, k
		}
	}
	if bestK > 0 {
		s.prefixHits++
		s.savedNS += int64(best.cps[bestK-1].Elapsed)
		s.touch(best.canon)
		return best.cps[:bestK:bestK]
	}
	return nil
}

// sharedPrefix returns the length of the longest equal leading run of a
// and b.
func sharedPrefix(a, b [][16]byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// add retains a completed compile's checkpoints, replacing any prior
// entry under the same canon and evicting the least recently used entry
// beyond capacity.
func (s *SnapshotStore) add(e *snapEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[e.canon]; !ok {
		s.order = append(s.order, e.canon)
	} else {
		s.touch(e.canon)
	}
	s.entries[e.canon] = e
	for len(s.order) > s.cap {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, victim)
	}
}

// touch moves canon to the most-recent end of the LRU order. Caller
// holds the lock.
func (s *SnapshotStore) touch(canon string) {
	for i, c := range s.order {
		if c == canon {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), canon)
			return
		}
	}
}

// run compiles circ through the store: probe for a shared prefix, run
// the pipeline from its last checkpoint (or cold) while capturing
// per-block checkpoints, and retain the completed compile for future
// probes. The caller guarantees p.Resumable() and a non-empty
// circuit.
func (s *SnapshotStore) run(p *compiler.Pipeline, key Key, canon string, circ *circuit.Circuit, hw *arch.Arch) (*compiler.Result, error) {
	hashes := blockHashes(circ)
	cfg := configID(key)
	fp := hw.Fingerprint()
	prefix := s.probe(cfg, circ.Qubits, fp, hashes)

	cps := make([]compiler.Checkpoint, 0, len(circ.Blocks))
	cps = append(cps, prefix...)
	opts := compiler.RunOptions{
		Capture: func(cp compiler.Checkpoint) { cps = append(cps, cp) },
	}
	if len(prefix) > 0 {
		opts.Resume = &prefix[len(prefix)-1]
	}
	res, err := p.RunOpts(circ, hw, opts)
	if err != nil {
		return nil, err
	}
	if len(cps) == len(circ.Blocks) {
		s.add(&snapEntry{
			canon:    canon,
			configID: cfg,
			qubits:   circ.Qubits,
			archFP:   fp,
			hashes:   hashes,
			cps:      cps,
		})
	}
	return res, nil
}
