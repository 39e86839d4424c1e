package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"powermove/internal/circuit"
)

// TestHTTPEndToEnd exercises the HTTP front end against a live handler:
// health, a compile round trip, a cache-hit repeat visible in /metrics,
// and the error envelope.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("GET %s: non-JSON body: %v", path, err)
		}
		return resp.StatusCode
	}
	post := func(path, body string) (int, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp.StatusCode, m
	}

	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}

	const req = `{"workload":{"family":"QFT","qubits":6},"scheme":"with-storage","stable":true}`
	code, body := post("/v1/compile", req)
	if code != http.StatusOK {
		t.Fatalf("/v1/compile = %d: %v", code, body)
	}
	if string(body["bench"]) != `"QFT-6"` || string(body["cached"]) != "false" {
		t.Errorf("cold compile response: bench=%s cached=%s", body["bench"], body["cached"])
	}
	if _, cachedBody := post("/v1/compile", req); string(cachedBody["cached"]) != "true" {
		t.Errorf("repeat compile not served from cache: %v", cachedBody["cached"])
	}

	// Error envelope: bad JSON, unknown field, and validation failures
	// are all 400s with an "error" key.
	for _, bad := range []string{
		`{not json`,
		`{"workload":{"family":"QFT","qubits":6},"wat":1}`,
		`{"workload":{"family":"QFT","qubits":6},"scheme":"turbo"}`,
		`{"workload":{"family":"QFT","qubits":6},"grouping":"turbo"}`,
		`{}`,
	} {
		code, body := post("/v1/compile", bad)
		if code != http.StatusBadRequest || body["error"] == nil {
			t.Errorf("bad request %q: code %d, body %v", bad, code, body)
		}
	}

	// Method and route misuse.
	if resp, err := http.Get(ts.URL + "/v1/compile"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile = %d, want 405", resp.StatusCode)
	}

	// Metrics reflect everything above.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Compiles != 1 {
		t.Errorf("metrics compiles = %d, want 1", m.Compiles)
	}
	if m.Cache.Hits < 1 {
		t.Errorf("metrics cache = %+v, want at least one hit", m.Cache)
	}
	ep := m.Endpoints["compile"]
	if ep.Requests != 7 || ep.Errors != 5 {
		t.Errorf("compile endpoint ledger = %+v, want 7 requests / 5 errors", ep)
	}
	if m.Passes["route"].Calls == 0 {
		t.Errorf("metrics pass ledger missing route: %+v", m.Passes)
	}
}

// TestHTTPBatch round-trips a small batch over HTTP.
func TestHTTPBatch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"requests":[
		{"workload":{"family":"QFT","qubits":6},"stable":true},
		{"workload":{"family":"QFT","qubits":6},"stable":true}
	]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Result == nil || out.Results[1].Result == nil {
		t.Fatalf("batch results = %+v", out.Results)
	}
	if out.Stats.Compiles != 1 || out.Stats.CacheHits != 1 {
		t.Errorf("engine stats = %+v, want 1 compile + 1 hit for the duplicate", out.Stats)
	}
}

// TestHTTPExperimentTable2 fetches a static table over the experiments
// route (table 2 builds circuits but compiles nothing, so it is fast).
func TestHTTPExperimentTable2(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/experiments/table/2?stable=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table 2 = %d", resp.StatusCode)
	}
	var doc struct {
		Table struct {
			Title string     `json:"Title"`
			Rows  [][]string `json:"Rows"`
		} `json:"table"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Table.Rows) == 0 {
		t.Error("table 2 has no rows")
	}

	if resp, err := http.Get(ts.URL + "/v1/experiments/table/9"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("table 9 = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPPanicContained: a compile whose circuit generator panics fails
// only its own request and job — a 500 with code internal whose message
// names the panic value but carries no stack — while the daemon goes on
// serving, and /metrics counts both panics.
func TestHTTPPanicContained(t *testing.T) {
	s, ts := jobsServer(t, Config{Workers: 1, QueueDepth: 4})
	wrapGenerators(s, func(bench string, gen func() (*circuit.Circuit, error)) (*circuit.Circuit, error) {
		if bench == "QFT-6" {
			panic("injected generator bug")
		}
		return gen()
	})
	checkMessage := func(what, msg string) {
		t.Helper()
		if !strings.Contains(msg, "injected generator bug") || strings.Contains(msg, "goroutine ") {
			t.Errorf("%s message = %q, want the panic value and no stack", what, msg)
		}
	}
	var env struct {
		Error APIError `json:"error"`
	}

	resp, raw := postJSON(t, ts.URL+"/v1/compile", qft6Body)
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Error.Code != CodeInternal {
		t.Fatalf("panicking compile = %d %s, want 500 internal", resp.StatusCode, raw)
	}
	checkMessage("/v1/compile", env.Error.Message)

	id := submitJob(t, ts.URL, `{"compile":`+qft6Body+`}`)
	snap := waitJobState(t, ts.URL, id, "failed")
	var jerr struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(snap["error"], &jerr); err != nil || jerr.Code != CodeInternal {
		t.Errorf("panicking job error = %s, want code internal", snap["error"])
	}
	checkMessage("job", jerr.Message)

	if resp, raw := postJSON(t, ts.URL+"/v1/compile", `{"workload":{"family":"QFT","qubits":4},"stable":true}`); resp.StatusCode != http.StatusOK {
		t.Errorf("next request after the panics = %d: %s", resp.StatusCode, raw)
	}
	_, mraw := getJSON(t, ts.URL+"/metrics")
	var m MetricsSnapshot
	if err := json.Unmarshal(mraw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Panics != 2 {
		t.Errorf("/metrics panics = %d, want 2", m.Panics)
	}
}
