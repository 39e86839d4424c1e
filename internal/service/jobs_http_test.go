package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powermove/internal/circuit"
	"powermove/internal/jobs"
	"powermove/internal/pipeline"
	"powermove/internal/store"
)

// jobsServer builds a service + test server tuned for queue tests.
func jobsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// envelopeCode extracts the stable error code from an error envelope.
func envelopeCode(t *testing.T, raw []byte) string {
	t.Helper()
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope: %s", raw)
	}
	if env.Error.Message == "" {
		t.Errorf("envelope without message: %s", raw)
	}
	return env.Error.Code
}

func waitJobState(t *testing.T, base, id string, want string) map[string]json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, raw := getJSON(t, base+"/v1/jobs/"+id)
		var snap map[string]json.RawMessage
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("job snapshot: %v: %s", err, raw)
		}
		if string(snap["state"]) == `"`+want+`"` {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return nil
}

func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	resp, raw := postJSON(t, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil || snap.ID == "" {
		t.Fatalf("submit response: %v: %s", err, raw)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+snap.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, snap.ID)
	}
	return snap.ID
}

// wrapGenerators wraps every job's circuit generator in wrap, from inside
// compileOne, so wrap runs where the generator does: in the compile
// cache's computation, holding a compile slot, once per compile however
// many requests wait for it.
func wrapGenerators(s *Server, wrap func(bench string, gen func() (*circuit.Circuit, error)) (*circuit.Circuit, error)) {
	real := s.compileOne
	s.compileOne = func(ctx context.Context, job pipeline.Job) (pipeline.Result, error) {
		bench, gen := job.Key.Bench, job.Circuit
		job.Circuit = func() (*circuit.Circuit, error) { return wrap(bench, gen) }
		return real(ctx, job)
	}
}

// blockingCompile makes every compile park in its circuit generator —
// holding its compile slot — until the returned channel is closed; calls
// counts the compiles that got there. The generator takes no context,
// so a request or job that leaves does not free the slot.
func blockingCompile(s *Server, calls *atomic.Int32) (release chan struct{}) {
	release = make(chan struct{})
	wrapGenerators(s, func(_ string, gen func() (*circuit.Circuit, error)) (*circuit.Circuit, error) {
		calls.Add(1)
		<-release
		return gen()
	})
	return release
}

const qft4Job = `{"compile":{"workload":{"family":"QFT","qubits":4},"stable":true}}`

// TestJobsQueueShedsAtDepth: with one worker occupied and the queue at
// depth, the next submission is a 429 with Retry-After and the
// queue_full code, and /metrics counts the shed.
func TestJobsQueueShedsAtDepth(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 2})
	var calls atomic.Int32
	release := blockingCompile(s, &calls)

	// Occupy the worker, then fill the two queue slots.
	ids := []string{submitJob(t, ts.URL, qft4Job)}
	waitFor(t, func() bool { return calls.Load() == 1 })
	for _, n := range []int{6, 8} {
		ids = append(ids, submitJob(t, ts.URL,
			fmt.Sprintf(`{"compile":{"workload":{"family":"QFT","qubits":%d},"stable":true}}`, n)))
	}

	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"compile":{"workload":{"family":"QFT","qubits":10},"stable":true}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit beyond depth = %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code := envelopeCode(t, raw); code != CodeQueueFull {
		t.Errorf("shed code = %q, want %q", code, CodeQueueFull)
	}

	_, mraw := getJSON(t, ts.URL+"/metrics")
	var m MetricsSnapshot
	if err := json.Unmarshal(mraw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs.Shed != 1 || m.Jobs.Depth != 2 || m.Jobs.Capacity != 2 {
		t.Errorf("jobs metrics = %+v, want 1 shed at depth 2/2", m.Jobs)
	}

	// Draining the queue makes room again.
	close(release)
	for _, id := range ids {
		waitJobState(t, ts.URL, id, "done")
	}
	if id := submitJob(t, ts.URL, `{"compile":{"workload":{"family":"QFT","qubits":12},"stable":true}}`); id == "" {
		t.Fatal("submission after drain rejected")
	}
}

// TestJobsCancelQueued: a job canceled while queued never runs.
func TestJobsCancelQueued(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	var calls atomic.Int32
	release := blockingCompile(s, &calls)

	first := submitJob(t, ts.URL, qft4Job)
	waitFor(t, func() bool { return calls.Load() == 1 })
	victim := submitJob(t, ts.URL, `{"compile":{"workload":{"family":"QFT","qubits":6},"stable":true}}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"canceled"`)) {
		t.Fatalf("cancel = %d: %s", resp.StatusCode, raw)
	}

	close(release)
	waitJobState(t, ts.URL, first, "done")
	waitJobState(t, ts.URL, victim, "canceled")
	if calls.Load() != 1 {
		t.Errorf("canceled-while-queued job compiled (%d compile calls, want 1)", calls.Load())
	}

	// A second DELETE of the now-terminal job is a 409 conflict.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel = %d: %s", resp.StatusCode, raw)
	}
	if code := envelopeCode(t, raw); code != CodeConflict {
		t.Errorf("re-cancel code = %q, want %q", code, CodeConflict)
	}
}

// TestJobsCancelRunningPropagatesContext: DELETE of a running job
// cancels the context it waits under, so the job settles canceled at
// once, even while its compile holds a slot and runs on.
func TestJobsCancelRunningPropagatesContext(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	var calls atomic.Int32
	release := blockingCompile(s, &calls) // never released: only ctx can free it
	defer close(release)

	id := submitJob(t, ts.URL, qft4Job)
	waitFor(t, func() bool { return calls.Load() == 1 })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running = %d", resp.StatusCode)
	}
	snap := waitJobState(t, ts.URL, id, "canceled")
	var jerr struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(snap["error"], &jerr); err != nil || jerr.Code != CodeCanceled {
		t.Errorf("canceled job error = %s, want code %q", snap["error"], CodeCanceled)
	}

	// The result endpoint reports the cancellation as an envelope.
	rresp, rraw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if rresp.StatusCode != 499 {
		t.Errorf("result of canceled job = %d, want 499", rresp.StatusCode)
	}
	if code := envelopeCode(t, rraw); code != CodeCanceled {
		t.Errorf("result code = %q, want %q", code, CodeCanceled)
	}
}

// TestJobsAttachSameKey: a job submitted while another job of the same
// compile key compiles takes its own queue slot and job worker but no
// compile: it joins the first job's compile in the compile cache. Both
// end done, the second reports cached, and /metrics counts one compile
// and one dedup join.
func TestJobsAttachSameKey(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 2, QueueDepth: 4})
	var calls atomic.Int32
	release := blockingCompile(s, &calls)

	first := submitJob(t, ts.URL, qft4Job)
	waitFor(t, func() bool { return calls.Load() == 1 })
	second := submitJob(t, ts.URL, qft4Job)
	waitFor(t, func() bool { return s.Metrics().Deduped == 1 })

	close(release)
	for id, cached := range map[string]bool{first: false, second: true} {
		waitJobState(t, ts.URL, id, "done")
		_, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
		var doc CompileResponse
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Cached != cached || doc.Bench != "QFT-4" {
			t.Errorf("job %s: bench %q cached %v, want QFT-4 cached %v", id, doc.Bench, doc.Cached, cached)
		}
	}
	if m := s.Metrics(); calls.Load() != 1 || m.Compiles != 1 || m.Deduped != 1 || m.Jobs.Attached != 0 {
		t.Errorf("generator calls = %d, compiles = %d, deduped = %d, attached = %d; want 1, 1, 1 and 0",
			calls.Load(), m.Compiles, m.Deduped, m.Jobs.Attached)
	}
}

// TestJobsAsyncMatchesSyncBytes: for a warmed cache, the async result
// document is byte-for-byte the sync /v1/compile response for the same
// spec.
func TestJobsAsyncMatchesSyncBytes(t *testing.T) {
	_, ts := jobsServer(t, Config{Workers: 2, QueueDepth: 8})
	const spec = `{"workload":{"family":"QFT","qubits":6},"scheme":"with-storage","stable":true}`

	// Warm the cache, then capture the warm sync document (cached=true,
	// like any repeat request — including the async one below).
	postJSON(t, ts.URL+"/v1/compile", spec)
	_, sync := postJSON(t, ts.URL+"/v1/compile", spec)

	id := submitJob(t, ts.URL, `{"compile":`+spec+`}`)
	waitJobState(t, ts.URL, id, "done")
	resp, async := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, async)
	}
	if !bytes.Equal(sync, async) {
		t.Errorf("async result diverged from sync document:\nsync:  %s\nasync: %s", sync, async)
	}
}

// TestJobsResultBeforeDone: fetching a result early is a 202 with the
// snapshot, not an error.
func TestJobsResultBeforeDone(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	var calls atomic.Int32
	release := blockingCompile(s, &calls)
	defer close(release)

	id := submitJob(t, ts.URL, qft4Job)
	waitFor(t, func() bool { return calls.Load() == 1 })
	resp, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("early result = %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"running"`)) {
		t.Errorf("early result body = %s, want the running snapshot", raw)
	}
}

// TestJobsEventsSSE: the events endpoint streams state transitions as
// SSE, live while the job runs and ending with the terminal state.
func TestJobsEventsSSE(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	var calls atomic.Int32
	release := blockingCompile(s, &calls)

	id := submitJob(t, ts.URL, qft4Job)
	waitFor(t, func() bool { return calls.Load() == 1 })

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	var states []string
	scanner := bufio.NewScanner(resp.Body)
	var event string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var sd struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sd); err != nil {
				t.Fatalf("state event data: %v", err)
			}
			states = append(states, sd.State)
		}
	}
	// queued and running replay from history; done arrives live (and is
	// re-sent after the channel closes, so it may appear twice).
	joined := strings.Join(states, ",")
	if !strings.HasPrefix(joined, "queued,running") || !strings.Contains(joined, "done") {
		t.Errorf("state sequence = %v, want queued,running,...,done", states)
	}

	// A terminal job's stream replays history and closes immediately.
	resp2, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/events")
	if resp2.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte("event: state")) {
		t.Errorf("terminal stream = %d: %s", resp2.StatusCode, raw)
	}
}

// TestJobsListFilters: the list endpoint filters by state and kind and
// rejects junk filter values.
func TestJobsListFilters(t *testing.T) {
	_, ts := jobsServer(t, Config{Workers: 2, QueueDepth: 8})
	id := submitJob(t, ts.URL, qft4Job)
	waitJobState(t, ts.URL, id, "done")

	_, raw := getJSON(t, ts.URL+"/v1/jobs?state=done&kind=compile")
	var list struct {
		Jobs []struct {
			ID     string          `json:"id"`
			Result json.RawMessage `json:"result"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("filtered list = %s", raw)
	}
	if list.Jobs[0].Result != nil {
		t.Error("list snapshot carries a result payload")
	}
	if _, raw := getJSON(t, ts.URL+"/v1/jobs?state=none"); len(raw) > 0 {
		var probe struct {
			Jobs []any `json:"jobs"`
		}
		if json.Unmarshal(raw, &probe) == nil && probe.Jobs != nil {
			t.Error("bogus state filter accepted")
		}
	}
}

// TestStoreRestartReadThrough: a new Server over the same store
// directory serves a previously compiled point from disk — cached, no
// compile — the property -store-dir buys across daemon restarts.
func TestStoreRestartReadThrough(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{Workers: 1, Store: st})
	}

	s1 := open()
	cold, err := s1.Compile(context.Background(), qftRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold compile reported cached")
	}
	if got := s1.Metrics(); got.Store == nil || got.Store.Puts != 1 {
		t.Fatalf("store metrics after compile = %+v, want 1 put", got.Store)
	}
	s1.Close()

	s2 := open() // the "restarted daemon"
	defer s2.Close()
	warm, err := s2.Compile(context.Background(), qftRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("restarted server missed the disk store")
	}
	if warm.Fidelity != cold.Fidelity || warm.Stages != cold.Stages || warm.Moves != cold.Moves {
		t.Errorf("disk round trip diverged: %+v vs %+v", warm, cold)
	}
	m := s2.Metrics()
	if m.Compiles != 0 {
		t.Errorf("restarted server compiled %d times, want 0", m.Compiles)
	}
	if m.Store == nil || m.Store.Hits != 1 {
		t.Errorf("store metrics = %+v, want 1 hit", m.Store)
	}
}

// TestErrorEnvelopeTable drives every handler's error paths and pins the
// envelope shape and stable code each one answers with.
func TestErrorEnvelopeTable(t *testing.T) {
	_, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"compile bad json", "POST", "/v1/compile", `{not json`, 400, CodeInvalidRequest},
		{"compile unknown field", "POST", "/v1/compile", `{"workload":{"family":"QFT","qubits":4},"wat":1}`, 400, CodeInvalidRequest},
		{"compile no source", "POST", "/v1/compile", `{}`, 400, CodeInvalidRequest},
		{"compile bad scheme", "POST", "/v1/compile", `{"workload":{"family":"QFT","qubits":4},"scheme":"turbo"}`, 400, CodeInvalidRequest},
		{"compile unknown grouping", "POST", "/v1/compile", `{"workload":{"family":"QFT","qubits":4},"grouping":"turbo"}`, 400, CodeUnknownGrouping},
		{"compile bad verify param", "POST", "/v1/compile?verify=maybe", `{"workload":{"family":"QFT","qubits":4}}`, 400, CodeInvalidRequest},
		{"batch bad json", "POST", "/v1/batch", `]`, 400, CodeInvalidRequest},
		{"batch unknown field", "POST", "/v1/batch", `{"requests":[],"wat":1}`, 400, CodeInvalidRequest},
		{"batch empty", "POST", "/v1/batch", `{"requests":[]}`, 400, CodeInvalidRequest},
		{"experiment unknown kind", "GET", "/v1/experiments/plot/1?stable=1", "", 400, CodeInvalidRequest},
		{"experiment unknown table", "GET", "/v1/experiments/table/9?stable=1", "", 400, CodeInvalidRequest},
		{"experiment bad stable param", "GET", "/v1/experiments/table/1?stable=maybe", "", 400, CodeInvalidRequest},
		{"jobs bad json", "POST", "/v1/jobs", `{not json`, 400, CodeInvalidRequest},
		{"jobs unknown field", "POST", "/v1/jobs", `{"wat":1}`, 400, CodeInvalidRequest},
		{"jobs no work", "POST", "/v1/jobs", `{"priority":1}`, 400, CodeInvalidRequest},
		{"jobs two works", "POST", "/v1/jobs", `{"compile":{"workload":{"family":"QFT","qubits":4}},"batch":{"requests":[]}}`, 400, CodeInvalidRequest},
		{"jobs bad priority", "POST", "/v1/jobs", `{"priority":99,"compile":{"workload":{"family":"QFT","qubits":4}}}`, 400, CodeInvalidRequest},
		{"jobs invalid compile", "POST", "/v1/jobs", `{"compile":{"workload":{"family":"nope","qubits":4}}}`, 400, CodeInvalidRequest},
		{"jobs unknown grouping", "POST", "/v1/jobs", `{"compile":{"workload":{"family":"QFT","qubits":4},"grouping":"turbo"}}`, 400, CodeUnknownGrouping},
		{"jobs empty batch", "POST", "/v1/jobs", `{"batch":{"requests":[]}}`, 400, CodeInvalidRequest},
		{"jobs bad experiment", "POST", "/v1/jobs", `{"experiment":{"kind":"plot","id":"1"}}`, 400, CodeInvalidRequest},
		{"jobs list bad state", "GET", "/v1/jobs?state=bogus", "", 400, CodeInvalidRequest},
		{"jobs list bad limit", "GET", "/v1/jobs?limit=x", "", 400, CodeInvalidRequest},
		{"jobs get unknown", "GET", "/v1/jobs/nope", "", 404, CodeNotFound},
		{"jobs result unknown", "GET", "/v1/jobs/nope/result", "", 404, CodeNotFound},
		{"jobs events unknown", "GET", "/v1/jobs/nope/events", "", 404, CodeNotFound},
		{"jobs cancel unknown", "DELETE", "/v1/jobs/nope", "", 404, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			if code := envelopeCode(t, raw); code != tc.wantCode {
				t.Errorf("code = %q, want %q: %s", code, tc.wantCode, raw)
			}
		})
	}
}

// TestDecodeStrictness: every body-accepting endpoint rejects unknown
// fields — nested ones included — so typos fail loudly instead of
// silently selecting defaults, and rejects data after the JSON value
// instead of dropping it unread. Trailing whitespace stays legal.
func TestDecodeStrictness(t *testing.T) {
	_, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	cases := []struct {
		endpoint string
		body     string
	}{
		{"/v1/compile", `{"workload":{"family":"QFT","qubits":4},"schem":"enola"}`},
		{"/v1/compile", `{"workload":{"family":"QFT","qubits":4,"size":9}}`},
		{"/v1/batch", `{"requests":[{"workload":{"family":"QFT","qubits":4},"stble":true}]}`},
		{"/v1/jobs", `{"compile":{"workload":{"family":"QFT","qubits":4}},"prio":3}`},
		{"/v1/jobs", `{"compile":{"workload":{"family":"QFT","qubits":4},"aod":2}}`},
		{"/v1/jobs", `{"experiment":{"kind":"table","id":"1","stble":true}}`},
		{"/v1/compile", `{"workload":{"family":"QFT","qubits":4}}{"scheme":"enola"}`},
		{"/v1/compile", `{"workload":{"family":"QFT","qubits":4}} trailing garbage`},
		{"/v1/batch", `{"requests":[{"workload":{"family":"QFT","qubits":4}}]}{}`},
		{"/v1/batch", `{"requests":[{"workload":{"family":"QFT","qubits":4}}]}]`},
		{"/v1/jobs", `{"compile":{"workload":{"family":"QFT","qubits":4}}}]`},
		{"/v1/jobs", `{"compile":{"workload":{"family":"QFT","qubits":4}}} {"priority":9}`},
	}
	for _, tc := range cases {
		resp, raw := postJSON(t, ts.URL+tc.endpoint, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.endpoint, tc.body, resp.StatusCode)
			continue
		}
		if code := envelopeCode(t, raw); code != CodeInvalidRequest {
			t.Errorf("%s %s: code %q", tc.endpoint, tc.body, code)
		}
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/compile", "{\"workload\":{\"family\":\"QFT\",\"qubits\":4}}\n \t\r\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, want 200: %s", resp.StatusCode, raw)
	}
}

// TestCatalogAndSuccessorHeaders: GET /v1 describes the surface, and the
// sync endpoints advertise their async successor via headers.
func TestCatalogAndSuccessorHeaders(t *testing.T) {
	_, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, raw := getJSON(t, ts.URL+"/v1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1 = %d", resp.StatusCode)
	}
	var doc CatalogDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Service != "powermove" || doc.APIVersion != "v1" || doc.GoVersion == "" {
		t.Errorf("catalog header fields = %+v", doc)
	}
	if len(doc.Endpoints) < 10 || len(doc.JobKinds) != 4 {
		t.Errorf("catalog lists %d endpoints / %d job kinds", len(doc.Endpoints), len(doc.JobKinds))
	}
	var syncWithSuccessor int
	for _, ep := range doc.Endpoints {
		if ep.Successor != "" {
			syncWithSuccessor++
			if ep.Deprecated {
				t.Errorf("endpoint %s %s marked deprecated", ep.Method, ep.Path)
			}
		}
	}
	if syncWithSuccessor != 3 {
		t.Errorf("%d endpoints advertise a successor, want 3 (compile, batch, experiments)", syncWithSuccessor)
	}

	cresp, _ := postJSON(t, ts.URL+"/v1/compile", `{"workload":{"family":"QFT","qubits":4},"stable":true}`)
	if dep := cresp.Header.Get("Deprecation"); dep != "false" {
		t.Errorf("Deprecation header = %q, want false", dep)
	}
	if link := cresp.Header.Get("Link"); !strings.Contains(link, "/v1/jobs") || !strings.Contains(link, "successor-version") {
		t.Errorf("Link header = %q", link)
	}

	// The jobs endpoints carry no deprecation headers.
	jresp, _ := getJSON(t, ts.URL+"/v1/jobs")
	if jresp.Header.Get("Deprecation") != "" {
		t.Error("jobs endpoint carries a Deprecation header")
	}
}

// TestJobsExperimentAsync runs a static table through the async path and
// checks its document matches the sync experiments endpoint's bytes.
func TestJobsExperimentAsync(t *testing.T) {
	_, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	_, sync := getJSON(t, ts.URL+"/v1/experiments/table/2?stable=1")

	id := submitJob(t, ts.URL, `{"experiment":{"kind":"table","id":"2","stable":true}}`)
	waitJobState(t, ts.URL, id, "done")
	resp, async := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d", resp.StatusCode)
	}
	if !bytes.Equal(sync, async) {
		t.Errorf("async experiment diverged from sync document:\nsync:  %.120s\nasync: %.120s", sync, async)
	}

	// Verify jobs force verification on.
	vid := submitJob(t, ts.URL, `{"verify":{"workload":{"family":"QFT","qubits":4},"stable":true}}`)
	waitJobState(t, ts.URL, vid, "done")
	_, vraw := getJSON(t, ts.URL+"/v1/jobs/"+vid+"/result")
	var vdoc CompileResponse
	if err := json.Unmarshal(vraw, &vdoc); err != nil {
		t.Fatal(err)
	}
	if vdoc.Verify == nil {
		t.Error("verify job result lacks a verification summary")
	}
}

// TestJobsBatchAsync runs a small batch through the queue.
func TestJobsBatchAsync(t *testing.T) {
	_, ts := jobsServer(t, Config{Workers: 2, QueueDepth: 4})
	id := submitJob(t, ts.URL, `{"batch":{"requests":[
		{"workload":{"family":"QFT","qubits":4},"stable":true},
		{"workload":{"family":"nope","qubits":4}}
	]}}`)
	waitJobState(t, ts.URL, id, "done")
	_, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	var doc BatchResponse
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 || doc.Results[0].Result == nil || doc.Results[1].Error == "" {
		t.Errorf("batch job results = %s", raw)
	}
}

// TestJobsManagerWiring sanity-checks the service-level TTL default
// plumbs through to the manager.
func TestJobsManagerWiring(t *testing.T) {
	s := New(Config{Workers: 1, JobTTL: 3 * time.Minute})
	defer s.Close()
	if got := s.jobs.TTL(); got != 3*time.Minute {
		t.Errorf("manager TTL = %v, want 3m", got)
	}
	if _, err := s.jobs.Get("nope"); err != jobs.ErrNotFound {
		t.Errorf("Get unknown = %v", err)
	}
}
