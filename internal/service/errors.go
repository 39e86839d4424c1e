package service

import (
	"context"
	"errors"
	"net/http"

	"powermove/internal/jobs"
)

// The service's stable machine-readable error codes. Every error leaving
// a /v1 endpoint is the envelope {"error": {"code", "message", and
// optionally "details"}}; clients dispatch on the code, never on the
// message text.
const (
	// CodeInvalidRequest is a malformed or out-of-range request (400),
	// including bodies that fail strict decoding and oversized bodies
	// (413).
	CodeInvalidRequest = "invalid_request"
	// CodeUnknownGrouping names a grouping pass that does not exist
	// (400); its details list the valid names.
	CodeUnknownGrouping = "unknown_grouping"
	// CodeQueueFull is a shed submission: the async queue is at depth
	// (429, with Retry-After).
	CodeQueueFull = "queue_full"
	// CodeNotFound is an unknown (or TTL-expired) job id (404).
	CodeNotFound = "not_found"
	// CodeCanceled marks work canceled by the client — a canceled job,
	// or a request whose context died (499).
	CodeCanceled = "canceled"
	// CodeConflict is a request valid in itself but wrong for the job's
	// current state, e.g. canceling a finished job (409).
	CodeConflict = "conflict"
	// CodeInternal is a compile-side failure (500).
	CodeInternal = "internal"
)

// APIError is a classified service error: the HTTP status it maps to
// plus the envelope body. Construction sites that know their code build
// it directly; everything else is classified by toAPIError.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Details any    `json:"details,omitempty"`
}

func (e *APIError) Error() string { return e.Message }

// errorEnvelope is the wire shape of every error response.
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// toAPIError classifies err into the envelope, walking the wrap chain:
// explicit APIErrors keep their classification, oversized bodies are
// 413s, the job manager's sentinels map to their codes, cancellation is
// the client's doing, RequestError (and strict-decode failures, which it
// wraps) is a 400, and everything else is a compile-side 500.
func toAPIError(err error) *APIError {
	var api *APIError
	if errors.As(err, &api) {
		return api
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &APIError{Status: http.StatusRequestEntityTooLarge, Code: CodeInvalidRequest, Message: err.Error()}
	}
	switch {
	case errors.Is(err, jobs.ErrFull):
		return &APIError{Status: http.StatusTooManyRequests, Code: CodeQueueFull,
			Message: "job queue is full; retry after the running work drains"}
	case errors.Is(err, jobs.ErrNotFound):
		return &APIError{Status: http.StatusNotFound, Code: CodeNotFound, Message: "no such job"}
	case errors.Is(err, jobs.ErrTerminal):
		return &APIError{Status: http.StatusConflict, Code: CodeConflict, Message: "job already finished"}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &APIError{Status: 499, Code: CodeCanceled, Message: err.Error()}
	}
	var reqErr *RequestError
	if errors.As(err, &reqErr) {
		return &APIError{Status: http.StatusBadRequest, Code: CodeInvalidRequest, Message: err.Error()}
	}
	return &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
}

// errorCode is the jobs.Config.CodeOf hook: the code a runner error
// lands in the job document under.
func errorCode(err error) string { return toAPIError(err).Code }
