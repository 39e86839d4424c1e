package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stub is a fake powermoved: it answers the endpoints the router
// touches and counts compiles, so tests can assert where requests
// landed.
type stub struct {
	name     string
	srv      *httptest.Server
	compiles atomic.Int64
	// release gates the second SSE event, so the streaming test can
	// prove events pass through before the response body ends.
	release chan struct{}
	// probed closes when the first health probe arrives.
	probed    chan struct{}
	probeOnce sync.Once
}

func newStub(t *testing.T, name string) *stub {
	t.Helper()
	s := &stub{name: name, release: make(chan struct{}), probed: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.probeOnce.Do(func() { close(s.probed) })
		fmt.Fprintf(w, `{"status":"ok","instance":%q}`, s.name)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"backend":{"instance":%q,"uptime_s":1,"cache_hits":%d,"cache_misses":3,"store_hits":2,"compiles":%d,"queue_depth":1,"queue_capacity":8,"shed":1}}`,
			s.name, s.compiles.Load(), s.compiles.Load())
	})
	mux.HandleFunc("POST /v1/compile", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		s.compiles.Add(1)
		fmt.Fprintf(w, `{"backend":%q}`, s.name)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"%s.j000001-abcd"}`, s.name)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"jobs":[{"id":"%s.j000001-abcd","state":"done","created":"2026-08-08T0%d:00:00Z"}]}`,
			s.name, 1+len(s.name)%8)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		io.WriteString(w, "data: one\n\n")
		fl.Flush()
		select {
		case <-s.release:
		case <-r.Context().Done():
			return
		}
		io.WriteString(w, "data: two\n\n")
		fl.Flush()
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"served_by":%q}`, r.PathValue("id"), s.name)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stub) backend(t *testing.T) Backend {
	t.Helper()
	u, err := url.Parse(s.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return Backend{Name: s.name, URL: u}
}

// newFleet builds n stub backends behind a router with fast health
// probing, returning the stubs and the router's base URL.
func newFleet(t *testing.T, n int) ([]*stub, *Router, string) {
	t.Helper()
	return newFleetProbing(t, n, 50*time.Millisecond)
}

// newFleetProbing is newFleet with the given active probe period.
func newFleetProbing(t *testing.T, n int, interval time.Duration) ([]*stub, *Router, string) {
	t.Helper()
	stubs := make([]*stub, n)
	backends := make([]Backend, n)
	for i := range stubs {
		stubs[i] = newStub(t, fmt.Sprintf("b%d", i+1))
		backends[i] = stubs[i].backend(t)
	}
	rt, err := NewRouter(Config{
		Backends:       backends,
		HealthInterval: interval,
		ProbeTimeout:   250 * time.Millisecond,
		MaxBackoff:     250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return stubs, rt, front.URL
}

func postCompile(t *testing.T, base, body string) (backendHeader string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/compile: status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Powermove-Backend")
}

// TestRoutingLocality is the tentpole's acceptance criterion: the same
// logical compile routes to the same backend every time — including
// across cosmetically different JSON spellings, which hash to the same
// canonical pipeline.Key — so its cache hits concentrate on one
// daemon.
func TestRoutingLocality(t *testing.T) {
	stubs, rt, base := newFleet(t, 3)

	// Same request, two spellings: field order must not matter because
	// routing is by canonical key, not body bytes.
	spellA := `{"workload":{"family":"QFT","qubits":10}}`
	spellB := `{"workload":{"qubits":10,"family":"QFT"}}`
	first := postCompile(t, base, spellA)
	for i := 0; i < 50; i++ {
		if got := postCompile(t, base, spellA); got != first {
			t.Fatalf("request %d routed to %q; first went to %q", i, got, first)
		}
		if got := postCompile(t, base, spellB); got != first {
			t.Fatalf("respelled request routed to %q; canonical twin went to %q", got, first)
		}
	}

	var total int64
	for _, s := range stubs {
		n := s.compiles.Load()
		total += n
		if n != 0 && s.name != first {
			t.Errorf("backend %s saw %d compiles; all should land on %s", s.name, n, first)
		}
	}
	if total != 101 {
		t.Fatalf("fleet saw %d compiles; want 101", total)
	}
	m := rt.Metrics()
	if m.Keyed != 101 {
		t.Errorf("Keyed = %d; want 101 (every request had a canonical key)", m.Keyed)
	}
	if m.Routed != 101 || m.Failed != 0 || m.Failovers != 0 {
		t.Errorf("Routed/Failed/Failovers = %d/%d/%d; want 101/0/0", m.Routed, m.Failed, m.Failovers)
	}
}

// TestFailover kills the key's primary and asserts zero lost requests:
// the next request lands on the replica, and once the router has marked
// the corpse down, later requests skip it without a retry. Only the
// checker's first probe round runs: a later probe could mark the killed
// primary down before the request reaches it, and the passive failover
// path under test would never run.
func TestFailover(t *testing.T) {
	stubs, rt, base := newFleetProbing(t, 2, time.Hour)
	for _, s := range stubs {
		select {
		case <-s.probed:
		case <-time.After(10 * time.Second):
			t.Fatalf("backend %s never saw the first probe round", s.name)
		}
	}

	body := `{"workload":{"family":"QFT","qubits":12}}`
	primary := postCompile(t, base, body)

	var dead, replica *stub
	for _, s := range stubs {
		if s.name == primary {
			dead = s
		} else {
			replica = s
		}
	}
	dead.srv.Close()

	if got := postCompile(t, base, body); got != replica.name {
		t.Fatalf("after killing %s, request routed to %q; want replica %s", primary, got, replica.name)
	}
	m := rt.Metrics()
	if m.Failovers < 1 || m.Retried < 1 {
		t.Fatalf("Failovers = %d, Retried = %d; want ≥ 1 after a dead primary", m.Failovers, m.Retried)
	}
	if m.Failed != 0 {
		t.Fatalf("Failed = %d; no request should have been lost", m.Failed)
	}

	// The passive mark-down (plus active probes) must steer subsequent
	// requests straight to the replica — no per-request retry tax.
	retriedBefore := rt.Metrics().Retried
	for i := 0; i < 5; i++ {
		if got := postCompile(t, base, body); got != replica.name {
			t.Fatalf("request %d after mark-down routed to %q", i, got)
		}
	}
	if m := rt.Metrics(); m.Retried != retriedBefore {
		t.Errorf("Retried grew %d → %d; marked-down backend should be skipped outright", retriedBefore, m.Retried)
	}
}

// TestJobPinning: job ids carry their daemon's identity, so job reads
// bypass the ring and land on the one backend holding the job.
func TestJobPinning(t *testing.T) {
	stubs, rt, base := newFleet(t, 3)

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"batch":{"points":[]}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	owner, _, ok := strings.Cut(sub.ID, ".")
	if !ok {
		t.Fatalf("job id %q carries no backend prefix", sub.ID)
	}

	get, err := http.Get(base + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var doc struct {
		ServedBy string `json:"served_by"`
	}
	if err := json.NewDecoder(get.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.ServedBy != owner {
		t.Fatalf("GET /v1/jobs/%s served by %q; id pins it to %q", sub.ID, doc.ServedBy, owner)
	}
	if m := rt.Metrics(); m.Pinned != 1 {
		t.Errorf("Pinned = %d; want 1", m.Pinned)
	}

	// An id naming a backend outside the fleet is a clean 404, not a
	// misroute.
	gone, err := http.Get(base + "/v1/jobs/zz.j000001-abcd")
	if err != nil {
		t.Fatal(err)
	}
	defer gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-backend job id: status %d; want 404", gone.StatusCode)
	}
	_ = stubs
}

// TestMergedJobList: the router's GET /v1/jobs is the union of every
// backend's list, ordered by creation time.
func TestMergedJobList(t *testing.T) {
	_, _, base := newFleet(t, 3)

	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Jobs []struct {
			ID      string    `json:"id"`
			Created time.Time `json:"created"`
		} `json:"jobs"`
		Partial bool `json:"partial"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Jobs) != 3 {
		t.Fatalf("merged list has %d jobs; want one per backend (3)", len(doc.Jobs))
	}
	if doc.Partial {
		t.Error("partial = true with every backend healthy")
	}
	for i := 1; i < len(doc.Jobs); i++ {
		if doc.Jobs[i].Created.Before(doc.Jobs[i-1].Created) {
			t.Fatalf("merged list out of creation order: %v after %v", doc.Jobs[i].Created, doc.Jobs[i-1].Created)
		}
	}
}

// TestMetricsAggregation: the router's fleet block is the sum of the
// backends' scraped counters, and each per-backend row carries the
// backend's own block.
func TestMetricsAggregation(t *testing.T) {
	stubs, rt, base := newFleet(t, 2)
	postCompile(t, base, `{"workload":{"family":"QFT","qubits":10}}`)
	postCompile(t, base, `{"workload":{"family":"QFT","qubits":11}}`)

	m := rt.Metrics()
	var wantHits int64
	for _, s := range stubs {
		wantHits += s.compiles.Load()
	}
	if m.Fleet.CacheHits != wantHits {
		t.Errorf("Fleet.CacheHits = %d; want %d (sum of backends)", m.Fleet.CacheHits, wantHits)
	}
	if m.Fleet.QueueCapacity != 16 || m.Fleet.Shed != 2 {
		t.Errorf("Fleet queue_capacity/shed = %d/%d; want 16/2", m.Fleet.QueueCapacity, m.Fleet.Shed)
	}
	for _, s := range stubs {
		row, ok := m.PerBackend[s.name]
		if !ok || row.Backend == nil {
			t.Fatalf("per-backend row for %s missing or unscraped", s.name)
		}
		if row.Backend.Instance != s.name {
			t.Errorf("scraped block for %s identifies as %q", s.name, row.Backend.Instance)
		}
	}
	if m.HealthyBackends != 2 {
		t.Errorf("HealthyBackends = %d; want 2", m.HealthyBackends)
	}
}

// TestSSEPassthrough proves the router streams events as they happen:
// the first event must arrive while the backend is still holding the
// response open, not after the body ends.
func TestSSEPassthrough(t *testing.T) {
	stubs, _, base := newFleet(t, 1)
	s := stubs[0]

	resp, err := http.Get(base + "/v1/jobs/b1.j000001-abcd/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first event: %v", err)
	}
	if strings.TrimSpace(line) != "data: one" {
		t.Fatalf("first event = %q", line)
	}
	// The backend is still blocked on release: receiving event one
	// already proves the router flushed instead of buffering. Unblock
	// and drain the rest.
	close(s.release)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), "data: two") {
		t.Fatalf("stream tail = %q; want the second event", rest)
	}
}

// TestBodyTooLarge: the router enforces the service's body cap itself
// rather than shipping an oversized body to a backend.
func TestBodyTooLarge(t *testing.T) {
	_, _, base := newFleet(t, 1)
	resp, err := http.Post(base+"/v1/compile", "application/json",
		strings.NewReader(`{"qasm":"`+strings.Repeat("x", maxBodyBytes+1)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d; want 413", resp.StatusCode)
	}
}
