// Package store is a disk-backed, content-addressed result store: the
// persistence tier under the in-memory compile cache. Each entry is one
// JSON file named by the SHA-256 of its cache key, holding the key, a
// checksum, and the payload, so a restarted daemon — or a second daemon
// pointed at the same directory — serves previously compiled outcomes
// without recompiling them.
//
// The store is deliberately dumb about payloads: it moves opaque bytes.
// internal/pipeline's DiskTier adapter marshals Outcomes through it, and
// nothing else needs to agree on a schema.
//
// Durability and safety properties:
//
//   - Writes are atomic: payloads land in a temp file in the store
//     directory and are renamed into place, so concurrent processes
//     sharing a directory never observe torn reads, and a writer that
//     dies mid-Put leaves only a temp file.
//   - Writes are not durable: Put does not fsync, since a disk flush on
//     every compile would slow every cold request. After a power loss
//     or an OS crash an entry's file can hold fewer bytes than were
//     written; the read's parse and checksum turn such a torn write
//     into a miss.
//   - Reads are integrity-checked: an entry whose embedded key does not
//     match the request (a SHA-256 prefix collision, or a file copied
//     between stores), that does not parse, or whose checksum does not
//     match its payload is treated as a miss, counted, and deleted.
//   - Size is bounded: when the configured byte budget is exceeded, the
//     least recently used entries (by file mtime, refreshed on every
//     hit) are garbage-collected oldest-first until the store fits.
//   - Peers are first-class: N processes may point at one directory.
//     An entry a peer garbage-collected reads as a clean miss (the
//     stale index entry is dropped, never an error), an entry a peer
//     wrote is adopted into this process's index when read, and the GC
//     re-scans the directory before evicting so the byte budget bounds
//     what is actually on disk, not just what this process wrote.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// entrySuffix names store entries; anything else in the directory is
// ignored (and "tmp-*" leftovers from a crashed writer are cleaned at
// Open).
const entrySuffix = ".json"

// envelope is the on-disk schema of one entry.
type envelope struct {
	// Key is the full cache key the entry stores, checked verbatim on
	// read so filename collisions cannot alias entries.
	Key string `json:"key"`
	// Sum is the hex SHA-256 of Payload's bytes as written.
	Sum string `json:"sum"`
	// Payload is the opaque value; the store never interprets it.
	Payload json.RawMessage `json:"payload"`
}

// Stats is a snapshot of a store's accounting.
type Stats struct {
	// Hits and Misses count Get outcomes; integrity failures are misses
	// and additionally counted in Corrupt.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts entries written (an existing entry is not rewritten).
	Puts int64 `json:"puts"`
	// Corrupt counts entries dropped on read for failing the key or
	// checksum match.
	Corrupt int64 `json:"corrupt"`
	// GCFiles and GCBytes count entries and bytes evicted to respect
	// MaxBytes.
	GCFiles int64 `json:"gc_files"`
	GCBytes int64 `json:"gc_bytes"`
	// Files and Bytes describe the resident store.
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
	// MaxBytes is the configured bound; 0 means unbounded.
	MaxBytes int64 `json:"max_bytes"`
}

// Store is a disk-backed key→bytes map safe for concurrent use within a
// process and safe to share across processes (atomic writes; GC and
// eviction tolerate concurrent unlinks).
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]fileState // filename → size/mtime, for GC ordering
	bytes int64
	stats Stats
}

type fileState struct {
	size  int64
	mtime time.Time
}

// Open returns a store rooted at dir, creating it if needed, scanning
// existing entries into the GC index, and removing temp files left by a
// crashed writer. maxBytes bounds the resident size (0 = unbounded).
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: make(map[string]fileState)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if e.IsDir() || !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.index[name] = fileState{size: info.Size(), mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.gcLocked()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// fileFor maps a key to its entry filename: a SHA-256 prefix long enough
// that collisions are astronomically unlikely — and harmless anyway,
// because reads check the embedded key.
func fileFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + entrySuffix
}

// Get returns the payload stored for key, if any. A present-but-corrupt
// entry (checksum or key mismatch, unparseable envelope) is deleted and
// reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	name := fileFor(key)
	path := filepath.Join(s.dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		// Never written — or deleted out from under us by a peer
		// process's GC. Either way it's a clean miss; drop any stale
		// index entry so the byte accounting tracks the directory.
		s.mu.Lock()
		s.stats.Misses++
		if st, ok := s.index[name]; ok {
			s.bytes -= st.size
			delete(s.index, name)
		}
		s.mu.Unlock()
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Key != key || env.Sum != payloadSum(env.Payload) {
		s.dropCorrupt(name, path)
		return nil, false
	}
	now := time.Now()
	// Best-effort LRU touch; GC orders by mtime. The in-memory mtime
	// only advances when the touch actually landed — if the syscall
	// failed (say, a peer unlinked the file between the read and here),
	// recording `now` would protect a doomed entry from GC.
	touched := os.Chtimes(path, now, now) == nil
	s.mu.Lock()
	s.stats.Hits++
	if st, ok := s.index[name]; ok {
		if touched {
			st.mtime = now
			s.index[name] = st
		}
	} else if touched {
		// A peer process wrote this entry after we opened the store:
		// adopt it so GC accounting sees the directory's real size.
		// (touched proves the file still exists under this name.)
		s.index[name] = fileState{size: int64(len(raw)), mtime: now}
		s.bytes += int64(len(raw))
	}
	s.mu.Unlock()
	return env.Payload, true
}

// dropCorrupt removes an entry that failed integrity checks.
func (s *Store) dropCorrupt(name, path string) {
	os.Remove(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Misses++
	s.stats.Corrupt++
	if st, ok := s.index[name]; ok {
		s.bytes -= st.size
		delete(s.index, name)
	}
}

// Put writes payload under key, atomically, and garbage-collects if the
// store outgrew its budget. An entry already present for key is left
// untouched: keys are content addresses, so equal keys mean equal
// payloads.
func (s *Store) Put(key string, payload []byte) error {
	name := fileFor(key)
	path := filepath.Join(s.dir, name)
	s.mu.Lock()
	_, exists := s.index[name]
	s.mu.Unlock()
	if exists {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
		// The index says present but the file is gone: a peer's GC
		// removed it. Drop the stale entry and write fresh below.
		s.mu.Lock()
		if st, ok := s.index[name]; ok {
			s.bytes -= st.size
			delete(s.index, name)
		}
		s.mu.Unlock()
	}
	if info, err := os.Stat(path); err == nil {
		// Another process wrote it; adopt it into the index.
		s.adopt(name, info.Size(), info.ModTime())
		return nil
	}
	env := envelope{Key: key, Sum: payloadSum(payload), Payload: payload}
	raw, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.stats.Puts++
	// A concurrent rescan (or adopting Get) may have indexed the entry
	// between the rename and here; replace its accounting, don't stack.
	if st, ok := s.index[name]; ok {
		s.bytes -= st.size
	}
	s.index[name] = fileState{size: int64(len(raw)), mtime: time.Now()}
	s.bytes += int64(len(raw))
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// adopt records an entry written by another process.
func (s *Store) adopt(name string, size int64, mtime time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[name]; ok {
		return
	}
	s.index[name] = fileState{size: size, mtime: mtime}
	s.bytes += size
	s.gcLocked()
}

// rescanLocked reconciles the index with the directory: entries written
// by peer processes are adopted and entries they removed are dropped, so
// GC decisions are made against the directory's true occupancy rather
// than this process's write history. In-memory mtimes are kept when
// fresher (they carry LRU touches). Called with s.mu held.
func (s *Store) rescanLocked() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	seen := make(map[string]struct{}, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // unlinked mid-scan by a peer
		}
		seen[name] = struct{}{}
		if st, ok := s.index[name]; ok {
			if st.size != info.Size() {
				s.bytes += info.Size() - st.size
				st.size = info.Size()
			}
			if info.ModTime().After(st.mtime) {
				st.mtime = info.ModTime()
			}
			s.index[name] = st
			continue
		}
		s.index[name] = fileState{size: info.Size(), mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	for name, st := range s.index {
		if _, ok := seen[name]; !ok {
			s.bytes -= st.size
			delete(s.index, name)
		}
	}
}

// gcLocked evicts least-recently-used entries (oldest mtime first) until
// the store fits its byte budget. The directory is re-scanned first so
// peer processes' writes count against the budget — without that, N
// daemons sharing one directory would each stay under budget while the
// directory grows N-fold. Called with s.mu held. Unlink races with other
// processes are tolerated: the accounting drops the entry either way.
func (s *Store) gcLocked() {
	if s.maxBytes <= 0 {
		return
	}
	s.rescanLocked()
	if s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		name string
		fileState
	}
	order := make([]aged, 0, len(s.index))
	for name, st := range s.index {
		order = append(order, aged{name, st})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].mtime.Before(order[j].mtime) })
	for _, e := range order {
		if s.bytes <= s.maxBytes {
			break
		}
		os.Remove(filepath.Join(s.dir, e.name))
		delete(s.index, e.name)
		s.bytes -= e.size
		s.stats.GCFiles++
		s.stats.GCBytes += e.size
	}
}

// Stats returns a snapshot of the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Files = len(s.index)
	st.Bytes = s.bytes
	st.MaxBytes = s.maxBytes
	return st
}

// payloadSum is the hex SHA-256 of payload as written.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}
