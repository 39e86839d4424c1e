package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRoundTrip: a put is readable back, byte-identical, and counted.
func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"fidelity":0.5,"stages":3}`)
	if err := s.Put("QFT-6/with-storage/1aod", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("QFT-6/with-storage/1aod")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	if _, ok := s.Get("QFT-8/with-storage/1aod"); ok {
		t.Error("Get of an unwritten key reported a hit")
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Files != 1 {
		t.Errorf("stats = %+v, want 1 put / 1 hit / 1 miss / 1 file", st)
	}
}

// TestRestartReadThrough: a fresh Store over the same directory serves
// entries written by a previous one — the property that makes compile
// caches survive daemon restarts.
func TestRestartReadThrough(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("key-a", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("key-a")
	if !ok || string(got) != `{"v":1}` {
		t.Fatalf("restarted store Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Files != 1 || st.Bytes == 0 {
		t.Errorf("restarted store did not index existing entries: %+v", st)
	}
}

// TestIntegrity: a corrupted entry and an entry whose embedded key does
// not match the request are both misses, counted, and removed.
func TestIntegrity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}

	// Flip payload bytes on disk without updating the checksum.
	path := filepath.Join(dir, fileFor("key-a"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `{"v":1}`, `{"v":9}`, 1)
	if tampered == string(raw) {
		t.Fatal("test setup: payload not found in envelope")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key-a"); ok {
		t.Error("tampered entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("tampered entry not deleted")
	}

	// A valid envelope filed under the wrong name (key mismatch).
	if err := s.Put("key-b", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	misfiled := filepath.Join(dir, fileFor("key-c"))
	src, err := os.ReadFile(filepath.Join(dir, fileFor("key-b")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(misfiled, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key-c"); ok {
		t.Error("entry with mismatched embedded key served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 2 {
		t.Errorf("Corrupt = %d, want 2", st.Corrupt)
	}
}

// TestTruncatedEntryIsCorruptMiss: Put does not fsync, so a crash can
// leave an entry cut short. Cut at every byte offset, a valid entry
// reads as a corrupt miss and is removed, and the next Put and Get hit
// again.
func TestTruncatedEntryIsCorruptMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const key = "QFT-6/with-storage/1aod"
	payload := []byte(`{"fidelity":0.5,"stages":3}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileFor(key))
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if err := os.WriteFile(path, valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("entry cut at byte %d served as a hit", cut)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("entry cut at byte %d not deleted", cut)
		}
		if st := s.Stats(); st.Corrupt != int64(cut+1) {
			t.Fatalf("cut at byte %d: Corrupt = %d, want %d", cut, st.Corrupt, cut+1)
		}
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); !ok || string(got) != string(payload) {
			t.Fatalf("after the cut at byte %d: Get = %q, %v; want the payload", cut, got, ok)
		}
	}
}

// TestGC: exceeding the byte budget evicts oldest-mtime entries first,
// and a Get refreshes an entry's position in the LRU order.
func TestGC(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"pad":"` + strings.Repeat("x", 200) + `"}`)
	entryBytes := int64(0)

	s, err := Open(dir, 1<<20) // no GC while seeding
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is well defined even on coarse
		// filesystem timestamps.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		os.Chtimes(filepath.Join(dir, fileFor(fmt.Sprintf("key-%d", i))), old, old)
	}
	entryBytes = s.Stats().Bytes / 4

	// Reopen with a budget of ~2 entries: the two oldest must go.
	s2, err := Open(dir, 2*entryBytes+entryBytes/2)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Files != 2 || st.GCFiles != 2 {
		t.Fatalf("after GC: %+v, want 2 resident / 2 evicted", st)
	}
	if _, ok := s2.Get("key-0"); ok {
		t.Error("oldest entry survived GC")
	}
	if _, ok := s2.Get("key-3"); !ok {
		t.Error("newest entry evicted")
	}

	// Touch key-2 via Get, then overflow: key-2 must survive over an
	// untouched older sibling... seed two more to force eviction.
	if _, ok := s2.Get("key-2"); !ok {
		t.Fatal("key-2 missing before touch test")
	}
	if err := s2.Put("key-4", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("key-2"); !ok {
		t.Error("recently touched entry was evicted before older ones")
	}
}

// TestTempCleanup: leftover tmp- files from a crashed writer are removed
// at Open and never counted as entries.
func TestTempCleanup(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Files != 0 || st.Bytes != 0 {
		t.Errorf("temp file counted as an entry: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-123")); !os.IsNotExist(err) {
		t.Error("temp file not cleaned at Open")
	}
}

// TestConcurrent hammers one store from many goroutines; run with -race.
func TestConcurrent(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i%20)
				if i%3 == 0 {
					s.Put(key, []byte(fmt.Sprintf(`{"v":%d}`, i%20)))
				} else {
					s.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Puts == 0 {
		t.Errorf("no puts recorded: %+v", st)
	}
}
