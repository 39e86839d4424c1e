package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// maxBodyBytes bounds request bodies; QASM sources for the paper's
// largest instances are a few hundred KB.
const maxBodyBytes = 8 << 20

// Handler returns the service's HTTP front end:
//
//	GET    /v1                           endpoint catalog + build info
//	POST   /v1/compile                   one evaluation point, synchronous
//	POST   /v1/batch                     many points on the worker pool
//	GET    /v1/experiments/{kind}/{id}   tables 1, 2, 3; figures 6a..6e, 7  (?stable=1)
//	POST   /v1/jobs                      submit async work → 202 + job id
//	GET    /v1/jobs                      list jobs            (?state=&kind=&limit=)
//	GET    /v1/jobs/{id}                 job snapshot
//	GET    /v1/jobs/{id}/result         done job's document, verbatim
//	GET    /v1/jobs/{id}/events         SSE progress stream
//	DELETE /v1/jobs/{id}                 cancel
//	GET    /healthz                      liveness + uptime
//	GET    /metrics                      cache/compile/queue/store counters
//
// All responses are JSON. Errors are the envelope
// {"error": {"code", "message", ...}} with a stable machine-readable
// code (see errors.go): 4xx for request problems, 429 + Retry-After
// when the job queue sheds, 5xx for compile failures.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1", s.instrument("catalog", s.handleCatalog))
	mux.HandleFunc("POST /v1/compile", s.instrument("compile", successor(s.handleCompile)))
	mux.HandleFunc("POST /v1/batch", s.instrument("batch", successor(s.handleBatch)))
	mux.HandleFunc("GET /v1/experiments/{kind}/{id}", s.instrument("experiments", successor(s.handleExperiment)))
	mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("jobs", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.instrument("jobs", s.handleJobResult))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("jobs_events", s.handleJobEvents))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("jobs", s.handleJobCancel))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// successor marks a synchronous endpoint's responses with the RFC 8594
// deprecation headers pointing at the async successor. The sync
// endpoints are not deprecated ("Deprecation: false") — the headers
// advertise that long-running work has a backpressure-aware home at
// /v1/jobs ahead of any future deprecation.
func successor(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "false")
		w.Header().Set("Link", `</v1/jobs>; rel="successor-version"`)
		h(w, r)
	}
}

// statusRecorder captures the written status for the metrics ledger.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the SSE handler can stream
// through the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with body limiting and per-endpoint
// request/latency/error accounting.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.endpoints.observe(name, time.Since(start), rec.status >= 400)
	}
}

// writeJSON emits v with the service's canonical encoding.
func writeJSON(w http.ResponseWriter, status int, v any) {
	out, err := EncodeJSON(v)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(out)
}

// writeError renders err as the unified JSON error envelope
// {"error": {"code", "message", ...}}, classified by toAPIError. Shed
// submissions additionally carry Retry-After, the contractual half of
// the 429 — derived from the live queue-latency histogram (the p50
// drain estimate, clamped) so a fleet of shed clients, and a router's
// failover retries, spread over the window the queue needs to open a
// slot instead of stampeding back in lockstep.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	api := toAPIError(err)
	if api.Code == CodeQueueFull {
		secs := int(s.jobs.RetryAfter() / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, api.Status, errorEnvelope{api})
}

// decode strictly parses one JSON value from body into v. Unknown
// fields are rejected so typos fail loudly instead of silently selecting
// defaults, and so is anything but whitespace after the value, which
// would otherwise be dropped unread.
func decode(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &RequestError{fmt.Errorf("request body: %w", err)}
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return &RequestError{fmt.Errorf("request body: data after the JSON value")}
	}
	return nil
}

// DecodeCompileRequest parses a POST /v1/compile request: the strict
// body decode, plus ?verify=, the query spelling of the body's "verify"
// field (either one turns differential verification on). The daemon
// and the fleet router both decode with it, so every body the daemon
// accepts routes by the key the daemon caches its outcome under.
func DecodeCompileRequest(body io.Reader, query url.Values) (*CompileRequest, error) {
	var req CompileRequest
	if err := decode(body, &req); err != nil {
		return nil, err
	}
	switch v := query.Get("verify"); v {
	case "", "0", "false":
	case "1", "true":
		req.Verify = true
	default:
		return nil, &RequestError{fmt.Errorf("verify = %q; want 0/1/true/false", v)}
	}
	return &req, nil
}

// DecodeJobRequest parses a POST /v1/jobs body, strictly, for the
// daemon and the fleet router alike.
func DecodeJobRequest(body io.Reader) (*JobRequest, error) {
	var req JobRequest
	if err := decode(body, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeCompileRequest(r.Body, r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Compile(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decode(r.Body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Batch(r.Context(), &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	stable := false
	switch v := r.URL.Query().Get("stable"); v {
	case "", "0", "false":
	case "1", "true":
		stable = true
	default:
		s.writeError(w, &RequestError{fmt.Errorf("stable = %q; want 0/1/true/false", v)})
		return
	}
	doc, err := s.Experiment(r.Context(), r.PathValue("kind"), r.PathValue("id"), stable)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	}
	if s.instance != "" {
		// The fleet router's health checker confirms it probed the
		// backend it thinks it probed.
		doc["instance"] = s.instance
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// CatalogEndpoint describes one route of the /v1 surface.
type CatalogEndpoint struct {
	Method      string `json:"method"`
	Path        string `json:"path"`
	Description string `json:"description"`
	// Deprecated and Successor mirror the endpoint's Deprecation/Link
	// headers: the sync endpoints are not deprecated, but their
	// long-running use cases have an async successor.
	Deprecated bool   `json:"deprecated,omitempty"`
	Successor  string `json:"successor,omitempty"`
}

// CatalogDoc is the GET /v1 payload: what this API serves and what it
// was built from.
type CatalogDoc struct {
	Service    string `json:"service"`
	APIVersion string `json:"api_version"`
	GoVersion  string `json:"go_version"`
	// Revision is the VCS revision the binary was built from, when the
	// build recorded one.
	Revision string `json:"revision,omitempty"`
	// JobKinds are the work shapes POST /v1/jobs accepts.
	JobKinds  []string          `json:"job_kinds"`
	Endpoints []CatalogEndpoint `json:"endpoints"`
}

// handleCatalog is GET /v1: the endpoint catalog plus build info, so a
// client can discover the surface (and the sync→async successor
// relationships) without external docs.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	doc := CatalogDoc{
		Service:    "powermove",
		APIVersion: "v1",
		GoVersion:  runtime.Version(),
		JobKinds:   []string{JobCompile, JobVerify, JobBatch, JobExperiment},
		Endpoints: []CatalogEndpoint{
			{Method: "GET", Path: "/v1", Description: "this catalog"},
			{Method: "POST", Path: "/v1/compile", Description: "compile one evaluation point, synchronously", Successor: "/v1/jobs"},
			{Method: "POST", Path: "/v1/batch", Description: "compile many evaluation points on the worker pool", Successor: "/v1/jobs"},
			{Method: "GET", Path: "/v1/experiments/{kind}/{id}", Description: "regenerate a paper table or figure", Successor: "/v1/jobs"},
			{Method: "POST", Path: "/v1/jobs", Description: "submit async work (compile, verify, batch, experiment); 429 + Retry-After when the queue is full"},
			{Method: "GET", Path: "/v1/jobs", Description: "list jobs, filterable by state, kind, and limit"},
			{Method: "GET", Path: "/v1/jobs/{id}", Description: "job snapshot with request and result"},
			{Method: "GET", Path: "/v1/jobs/{id}/result", Description: "a done job's result document, byte-identical to the sync endpoint's"},
			{Method: "GET", Path: "/v1/jobs/{id}/events", Description: "Server-Sent-Events progress stream"},
			{Method: "DELETE", Path: "/v1/jobs/{id}", Description: "cancel a queued or running job"},
			{Method: "GET", Path: "/healthz", Description: "liveness and uptime"},
			{Method: "GET", Path: "/metrics", Description: "cache, compile, queue, and store counters"},
		},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				doc.Revision = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, doc)
}
