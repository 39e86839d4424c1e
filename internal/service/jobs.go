package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"powermove/internal/experiments"
	"powermove/internal/jobs"
)

// The job kinds of the async API: what POST /v1/jobs accepts and the
// /v1/jobs list filters on. Each kind runs the same execution path as
// its synchronous endpoint, so an async result document is byte-for-byte
// what the sync endpoint would have returned for the same spec.
const (
	JobCompile    = "compile"
	JobVerify     = "verify"
	JobBatch      = "batch"
	JobExperiment = "experiment"
)

// JobRequest is the POST /v1/jobs body: exactly one of the work fields,
// plus an optional priority. Compile and verify jobs embed the same
// CompileRequest (and so the shared CompileSpec) as /v1/compile; verify
// is compile with verification forced on.
type JobRequest struct {
	// Priority orders the queue: higher runs first, equal priorities
	// run FIFO. Range [0, 9]; default 0.
	Priority int `json:"priority,omitempty"`
	// Compile asks for one evaluation point — the async /v1/compile.
	Compile *CompileRequest `json:"compile,omitempty"`
	// Verify is Compile with differential verification forced on.
	Verify *CompileRequest `json:"verify,omitempty"`
	// Batch asks for many points — the async /v1/batch.
	Batch *BatchRequest `json:"batch,omitempty"`
	// Experiment regenerates a paper table or figure — the async
	// /v1/experiments/{kind}/{id}.
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
}

// ExperimentSpec names one experiments endpoint payload.
type ExperimentSpec struct {
	// Kind is "table" or "figure".
	Kind string `json:"kind"`
	// ID is "1".."3" for tables, "6a".."6e" or "7" for figures.
	ID string `json:"id"`
	// Stable zeroes wall-clock fields for reproducible documents.
	Stable bool `json:"stable,omitempty"`
}

// validate rejects unknown tables and figures without compiling
// anything, mirroring Experiment's own dispatch.
func (e *ExperimentSpec) validate() error {
	switch e.Kind {
	case "table":
		switch e.ID {
		case "1", "2", "3":
			return nil
		}
		return fmt.Errorf("unknown table %q (want 1, 2, or 3)", e.ID)
	case "figure":
		if e.ID == "7" {
			return nil
		}
		if _, ok := experiments.Figure6Panels()[e.ID]; ok {
			return nil
		}
		return fmt.Errorf("unknown figure %q (want 6a..6e or 7)", e.ID)
	default:
		return fmt.Errorf("unknown experiment kind %q (want table or figure)", e.Kind)
	}
}

// SubmitJob validates and enqueues one async job, returning its initial
// snapshot. Invalid requests fail here, before consuming a queue slot;
// a full queue surfaces jobs.ErrFull (HTTP 429 + Retry-After). A
// duplicate compile or verify job takes its own queue slot and job
// worker; its compile is shared in the compile cache like any other
// request's.
func (s *Server) SubmitJob(req *JobRequest) (jobs.Snapshot, error) {
	if req.Priority < 0 || req.Priority > jobs.MaxPriority {
		return jobs.Snapshot{}, &RequestError{fmt.Errorf("priority = %d out of range [0, %d]", req.Priority, jobs.MaxPriority)}
	}
	set := 0
	for _, ok := range []bool{req.Compile != nil, req.Verify != nil, req.Batch != nil, req.Experiment != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return jobs.Snapshot{}, &RequestError{fmt.Errorf("specify exactly one of compile, verify, batch, and experiment")}
	}

	spec := jobs.Spec{Priority: req.Priority}
	var payload any
	switch {
	case req.Compile != nil:
		if _, err := req.Compile.validate(); err != nil {
			return jobs.Snapshot{}, &RequestError{err}
		}
		spec.Kind, payload = JobCompile, req.Compile
	case req.Verify != nil:
		forced := *req.Verify
		forced.Verify = true
		if _, err := forced.validate(); err != nil {
			return jobs.Snapshot{}, &RequestError{err}
		}
		spec.Kind, payload = JobVerify, &forced
	case req.Batch != nil:
		// Bounds only: per-item validation runs with the batch, and item
		// failures are part of the result document, as on /v1/batch.
		if len(req.Batch.Requests) == 0 {
			return jobs.Snapshot{}, &RequestError{fmt.Errorf("empty batch")}
		}
		if len(req.Batch.Requests) > MaxBatch {
			return jobs.Snapshot{}, &RequestError{fmt.Errorf("batch has %d requests; limit is %d", len(req.Batch.Requests), MaxBatch)}
		}
		spec.Kind, payload = JobBatch, req.Batch
	case req.Experiment != nil:
		if err := req.Experiment.validate(); err != nil {
			return jobs.Snapshot{}, &RequestError{err}
		}
		spec.Kind, payload = JobExperiment, req.Experiment
	}
	var err error
	if spec.Payload, err = json.Marshal(payload); err != nil {
		return jobs.Snapshot{}, err
	}
	return s.jobs.Submit(spec)
}

// runJob is the job manager's Runner: it dispatches a dequeued job
// through the same execution path as the kind's synchronous endpoint
// and encodes the result with the service's canonical encoding — so the
// bytes GET /v1/jobs/{id}/result serves are exactly what the sync
// endpoint would have written. ctx is the job's, canceled by DELETE and
// by shutdown, and governs the job's work as a request's context
// governs a sync request's.
func (s *Server) runJob(ctx context.Context, snap jobs.Snapshot, progress func(done, total int)) (json.RawMessage, error) {
	switch snap.Kind {
	case JobCompile, JobVerify:
		var req CompileRequest
		if err := json.Unmarshal(snap.Request, &req); err != nil {
			return nil, err
		}
		resp, err := s.Compile(ctx, &req)
		if err != nil {
			return nil, err
		}
		return EncodeJSON(resp)
	case JobBatch:
		var req BatchRequest
		if err := json.Unmarshal(snap.Request, &req); err != nil {
			return nil, err
		}
		resp, err := s.Batch(ctx, &req)
		if err != nil {
			return nil, err
		}
		return EncodeJSON(resp)
	case JobExperiment:
		var spec ExperimentSpec
		if err := json.Unmarshal(snap.Request, &spec); err != nil {
			return nil, err
		}
		doc, err := s.experiment(ctx, spec.Kind, spec.ID, spec.Stable, progress)
		if err != nil {
			return nil, err
		}
		return EncodeJSON(doc)
	default:
		return nil, fmt.Errorf("unknown job kind %q", snap.Kind)
	}
}

// handleJobSubmit is POST /v1/jobs: 202 Accepted with the queued job's
// snapshot and its Location, or 429 + Retry-After when the queue sheds.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeJobRequest(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	snap, err := s.SubmitJob(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

// handleJobList is GET /v1/jobs?state=&kind=&limit=: job snapshots in
// creation order, without request/result payloads.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := jobs.Filter{Kind: q.Get("kind")}
	switch st := jobs.State(q.Get("state")); st {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
		f.State = st
	default:
		s.writeError(w, &RequestError{fmt.Errorf("state = %q; want queued, running, done, failed, or canceled", st)})
		return
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, &RequestError{fmt.Errorf("limit = %q; want a positive integer", v)})
			return
		}
		f.Limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List(f)})
}

// handleJobGet is GET /v1/jobs/{id}: the job's full snapshot, request
// and result included.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleJobResult is GET /v1/jobs/{id}/result. A done job's stored
// document is served verbatim — the exact bytes the synchronous
// endpoint would have written for the same spec. A failed or canceled
// job answers with its error envelope; a job still in flight answers
// 202 with its snapshot (poll again, or follow /events).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	switch snap.State {
	case jobs.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(snap.Result)
	case jobs.StateFailed, jobs.StateCanceled:
		api := &APIError{Status: statusForCode(snap.Error.Code), Code: snap.Error.Code, Message: snap.Error.Message}
		writeJSON(w, api.Status, errorEnvelope{api})
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, snap)
	}
}

// statusForCode maps a stored job error code back to an HTTP status for
// the result endpoint.
func statusForCode(code string) int {
	switch code {
	case CodeInvalidRequest, CodeUnknownGrouping:
		return http.StatusBadRequest
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodeCanceled:
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}: queued jobs settle canceled
// immediately and never run; running jobs have their context canceled
// and settle when the runner returns. Canceling a finished job is a 409.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleJobEvents is GET /v1/jobs/{id}/events: a Server-Sent-Events
// stream replaying the job's history (state transitions plus its latest
// progress point) and following live until the job reaches a terminal
// state. Slow consumers may lose intermediate progress events — never
// the terminal state, which is re-read and re-sent after the live
// channel closes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	history, live, detach, err := s.jobs.Subscribe(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer detach()
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, fmt.Errorf("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(ev jobs.Event) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, ev.Data)
		flusher.Flush()
	}
	for _, ev := range history {
		send(ev)
	}
	if live == nil { // already terminal: history ends with the final state
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// Terminal: the channel may have dropped events on a slow
				// consumer, so re-send the final state authoritatively.
				if snap, err := s.jobs.Get(r.PathValue("id")); err == nil {
					if data, err := json.Marshal(map[string]any{"id": snap.ID, "state": snap.State, "error": snap.Error}); err == nil {
						send(jobs.Event{Name: "state", Data: data})
					}
				}
				return
			}
			send(ev)
		case <-r.Context().Done():
			return
		}
	}
}
