package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"powermove/internal/store"
)

const qft6Body = `{"workload":{"family":"QFT","qubits":6},"stable":true}`

// postAsync POSTs body to url under ctx in the background; the channel
// yields the status and body, or the client's error.
func postAsync(ctx context.Context, url, body string) <-chan postResult {
	ch := make(chan postResult, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			ch <- postResult{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			ch <- postResult{err: err}
			return
		}
		defer resp.Body.Close()
		var doc CompileResponse
		err = json.NewDecoder(resp.Body).Decode(&doc)
		ch <- postResult{status: resp.StatusCode, doc: doc, err: err}
	}()
	return ch
}

type postResult struct {
	status int
	doc    CompileResponse
	err    error
}

// TestSyncJoinerOutlivesJobCancel: a sync request that joined an async
// job's compile keeps waiting for it when the job is DELETEd while the
// compile waits for the slot, and gets 200 and the document — a request
// never receives another request's cancellation.
func TestSyncJoinerOutlivesJobCancel(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	var calls atomic.Int32
	release := blockingCompile(s, &calls)

	// A sync compile of QFT-4 holds the only slot.
	blocker := postAsync(context.Background(), ts.URL+"/v1/compile", `{"workload":{"family":"QFT","qubits":4},"stable":true}`)
	waitFor(t, func() bool { return calls.Load() == 1 })

	// Job J starts QFT-6's compile, which waits for the slot, and a sync
	// request for QFT-6 joins it.
	job := submitJob(t, ts.URL, `{"compile":`+qft6Body+`}`)
	waitFor(t, func() bool { return s.cache.Len() == 2 })
	joiner := postAsync(context.Background(), ts.URL+"/v1/compile", qft6Body)
	waitFor(t, func() bool { return s.Metrics().Deduped == 1 })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE job = %d", resp.StatusCode)
	}
	waitJobState(t, ts.URL, job, "canceled")

	close(release)
	for name, ch := range map[string]<-chan postResult{"QFT-4": blocker, "QFT-6": joiner} {
		r := <-ch
		if r.err != nil || r.status != http.StatusOK || r.doc.Bench != name {
			t.Errorf("sync %s: status %d bench %q err %v; want 200 and its document", name, r.status, r.doc.Bench, r.err)
		}
	}
	if m := s.Metrics(); m.Compiles != 2 {
		t.Errorf("compiles = %d, want 2 (QFT-4 and QFT-6 once each)", m.Compiles)
	}
}

// TestCompileCountedAfterRequestLeft: a request whose compile holds the
// slot returns at once when its client leaves, the compile runs to the
// end and fills the cache, and /metrics counts it, in the pass ledger
// too; a repeat request is then a cache hit.
func TestCompileCountedAfterRequestLeft(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := jobsServer(t, Config{Workers: 1, Store: st})
	var calls atomic.Int32
	release := blockingCompile(s, &calls)

	ctx, cancel := context.WithCancel(context.Background())
	left := postAsync(ctx, ts.URL+"/v1/compile", qft6Body)
	waitFor(t, func() bool { return calls.Load() == 1 })
	cancel()
	if r := <-left; r.err == nil {
		t.Fatalf("canceled client got status %d", r.status)
	}
	// The handler returns while the compile still blocks.
	waitFor(t, func() bool { return s.Metrics().Endpoints["compile"].Errors == 1 })

	close(release)
	waitFor(t, func() bool { return st.Stats().Puts == 1 }) // the compile finished and wrote through
	_, raw := getJSON(t, ts.URL+"/metrics")
	var m MetricsSnapshot
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Compiles != 1 {
		t.Errorf("/metrics compiles = %d, want 1", m.Compiles)
	}
	if got := m.Passes["lower"].Calls; got != 1 {
		t.Errorf("/metrics passes.lower.calls = %d, want 1", got)
	}
	r := <-postAsync(context.Background(), ts.URL+"/v1/compile", qft6Body)
	if r.err != nil || r.status != http.StatusOK || !r.doc.Cached {
		t.Errorf("repeat request: status %d cached %v err %v; want a 200 cache hit", r.status, r.doc.Cached, r.err)
	}
	if got := s.Metrics().Compiles; got != 1 || calls.Load() != 1 {
		t.Errorf("compiles = %d, generator calls = %d after the repeat; want 1 and 1", got, calls.Load())
	}
}
