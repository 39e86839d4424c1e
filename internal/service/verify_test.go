package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"powermove/internal/compiler"
)

// TestCompileVerifyField: a request with verify set compiles, carries a
// clean verification summary, keeps it across cache hits, and advances
// the /metrics verification ledger exactly once.
func TestCompileVerifyField(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	req := qftRequest(6)
	req.Verify = true
	cold, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Verify == nil {
		t.Fatal("verified compile response carries no verify summary")
	}
	if cold.Verify.Violations != 0 {
		t.Fatalf("verify summary = %+v, want clean", cold.Verify)
	}

	warm, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.Verify == nil || warm.Verify.Violations != 0 {
		t.Fatalf("cached verified response = cached=%v verify=%+v", warm.Cached, warm.Verify)
	}

	// An unverified request for the same point is a distinct cache
	// entry and must not carry a summary.
	plain, err := s.Compile(context.Background(), qftRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Verify != nil {
		t.Fatalf("unverified response carries a verify summary: %+v", plain.Verify)
	}

	m := s.Metrics()
	if m.Verify.Checks != 1 || m.Verify.Clean != 1 || m.Verify.Violations != 0 {
		t.Fatalf("verify ledger = %+v, want 1 check / 1 clean / 0 violations", m.Verify)
	}
}

// TestHTTPVerifyQueryParam: ?verify=1 is the query spelling of the
// body field, and bad values are 400s.
func TestHTTPVerifyQueryParam(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const req = `{"workload":{"family":"QFT","qubits":6},"scheme":"with-storage","stable":true}`
	resp, err := http.Post(ts.URL+"/v1/compile?verify=1", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/compile?verify=1 = %d: %v", resp.StatusCode, body)
	}
	var sum struct {
		Violations int `json:"violations"`
	}
	if err := json.Unmarshal(body["verify"], &sum); err != nil {
		t.Fatalf("response has no verify block: %v", err)
	}
	if sum.Violations != 0 {
		t.Fatalf("verify block = %+v", sum)
	}

	bad, err := http.Post(ts.URL+"/v1/compile?verify=yes", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("verify=yes = %d, want 400", bad.StatusCode)
	}
}

// TestGroupingRegistryRoundTrip pins the registry contract end to end:
// every registered grouping name is accepted by the service's grouping
// field and echoed back normalized, unknown names are rejected, and the
// enola baseline rejects every grouping request — including an explicit
// default.
func TestGroupingRegistryRoundTrip(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	for _, name := range compiler.GroupingNames() {
		req := qftRequest(6)
		req.Grouping = name
		resp, err := s.Compile(context.Background(), req)
		if err != nil {
			t.Fatalf("grouping %q rejected: %v", name, err)
		}
		if want := compiler.NormalizeGrouping(name); resp.Grouping != want {
			t.Errorf("grouping %q echoed as %q, want %q", name, resp.Grouping, want)
		}

		enola := &CompileRequest{
			Workload:    &WorkloadSpec{Family: "QFT", Qubits: 6},
			CompileSpec: CompileSpec{Scheme: "enola", Grouping: name},
		}
		if _, err := s.Compile(context.Background(), enola); err == nil {
			t.Errorf("enola accepted grouping %q", name)
		} else if _, ok := err.(*RequestError); !ok {
			t.Errorf("enola grouping %q failed with %T, want *RequestError", name, err)
		}
	}

	req := qftRequest(6)
	req.Grouping = "no-such-grouping"
	if _, err := s.Compile(context.Background(), req); err == nil {
		t.Error("unknown grouping name accepted")
	} else if !strings.Contains(err.Error(), "no-such-grouping") {
		t.Errorf("unknown-grouping error does not name the offender: %v", err)
	}
}
