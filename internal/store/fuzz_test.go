package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzStoreEntry writes arbitrary bytes at a key's entry path and reads
// the key back. Get never panics, and it either misses, counting the
// entry corrupt and removing the file, or hits with the payload of an
// envelope that names the requested key and whose checksum holds.
//
// The seeds are built from a real entry: the entry itself, the entry
// cut in half, the entry read under another key, the entry with a
// payload byte changed, an empty file and bytes that are not JSON.
func FuzzStoreEntry(f *testing.F) {
	const key = "QFT-6/with-storage/1aod"
	seed, err := Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Put(key, []byte(`{"fidelity":0.5,"stages":3}`)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seed.Dir(), fileFor(key)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(key, valid)
	f.Add(key, valid[:len(valid)/2])
	f.Add("QFT-8/with-storage/1aod", valid)
	f.Add(key, []byte(strings.Replace(string(valid), `"stages":3`, `"stages":4`, 1)))
	f.Add(key, []byte{})
	f.Add(key, []byte("not json"))

	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		dir := t.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fileFor(key))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok := s.Get(key)
		st := s.Stats()
		if !ok {
			if st.Misses != 1 || st.Corrupt != 1 {
				t.Fatalf("miss counted as %+v, want one corrupt miss", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still on disk (stat: %v)", err)
			}
			return
		}
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Key != key {
			t.Fatalf("hit on an entry that does not name key %q: %q", key, raw)
		}
		if !bytes.Equal(payload, env.Payload) || payloadSum(payload) != env.Sum {
			t.Fatalf("hit payload %q does not match its envelope's checksum %q", payload, env.Sum)
		}
		if st.Hits != 1 || st.Corrupt != 0 {
			t.Fatalf("hit counted as %+v", st)
		}
	})
}
