package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"powermove/internal/service"
)

// FuzzRequest fuzzes the JSON request boundary the router and the daemon
// share, over a body and a ?verify= value posted to /v1/compile and, the
// same body, to /v1/jobs:
//
//   - neither routingKey nor the service decoders panic;
//   - every body the daemon accepts and validates routes by the daemon's
//     canonical key, flagged canonical, so the router sends it to the
//     backend whose cache holds it;
//   - every body the service decoders reject, the daemon's handler
//     answers with 400 — the handler decodes with the same functions.
//     Accepted bodies are not posted: they would compile.
//
// The committed seed corpus (testdata/fuzz/FuzzRequest) holds a workload
// request, a QASM request, ?verify=1 and ?verify=true, an unknown field,
// trailing data after the JSON value, and job submissions; `go test`
// replays it on every run and CI's fuzz job explores beyond it.
func FuzzRequest(f *testing.F) {
	srv := service.New(service.Config{Workers: 1, QueueDepth: 1})
	f.Cleanup(srv.Close)
	daemon := srv.Handler()
	rt := &Router{}

	f.Fuzz(func(t *testing.T, body []byte, verify string) {
		query := url.Values{}
		if verify != "" {
			query.Set("verify", verify)
		}

		compile := httptest.NewRequest(http.MethodPost, "/v1/compile?"+query.Encode(), bytes.NewReader(body))
		key, keyed := rt.routingKey(compile, body)
		want, err := canonicalCompileKey(body, query)
		if err == nil && (!keyed || key != want) {
			t.Fatalf("/v1/compile?%s %q: router key %q (canonical %v), daemon key %q", query.Encode(), body, key, keyed, want)
		}
		if err != nil {
			rejects(t, daemon, "/v1/compile?"+query.Encode(), body)
		}

		job := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		key, keyed = rt.routingKey(job, body)
		req, err := service.DecodeJobRequest(bytes.NewReader(body))
		if err != nil {
			rejects(t, daemon, "/v1/jobs", body)
			return
		}
		want, err = req.RoutingKey()
		if err == nil && want != "" && (!keyed || key != want) {
			t.Fatalf("/v1/jobs %q: router key %q (canonical %v), daemon key %q", body, key, keyed, want)
		}
	})
}

// canonicalCompileKey is the key the daemon caches a /v1/compile request
// under, or an error when the daemon rejects the request.
func canonicalCompileKey(body []byte, query url.Values) (string, error) {
	req, err := service.DecodeCompileRequest(bytes.NewReader(body), query)
	if err != nil {
		return "", err
	}
	return req.RoutingKey()
}

// rejects posts body to the daemon handler and requires a 400.
func rejects(t *testing.T, daemon http.Handler, target string, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	daemon.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST %s %q: daemon answered %d for a request its decoder rejects, want 400", target, body, rec.Code)
	}
}
