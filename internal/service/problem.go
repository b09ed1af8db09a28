package service

import (
	"encoding/json"
	"net/http"
)

// RFC 7807 errors: every error body the server writes is an
// application/problem+json document with a stable, machine-readable
// Code — clients branch on Code (or Status), never on Detail, which is
// free to change.

// ProblemContentType is the RFC 7807 media type of every error body.
const ProblemContentType = "application/problem+json"

// Problem is the RFC 7807 error document of the wire protocol.
type Problem struct {
	// Type is a URI reference identifying the problem class; MooD uses
	// stable relative URIs of the form "/v2/problems/{code}".
	Type string `json:"type"`
	// Title is the human-readable summary of the problem class (the
	// HTTP status text; constant per Type).
	Title string `json:"title"`
	// Status echoes the HTTP status code.
	Status int `json:"status"`
	// Code is the stable machine-readable discriminator, unique per
	// problem class. Clients should branch on it.
	Code Code `json:"code"`
	// Detail is the human-readable, occurrence-specific explanation.
	Detail string `json:"detail,omitempty"`
}

// Code is a problem code. Only the constants below ("" is none) are
// minted: moodvet's problemdialect rejects other constants and casts.
type Code string

// Stable problem codes. These are wire contract: a code, once shipped,
// never changes meaning.
const (
	CodeBadRequest        Code = "bad_request"
	CodeInvalidUser       Code = "invalid_user"
	CodeUserMismatch      Code = "user_mismatch"
	CodeEmptyChunk        Code = "empty_chunk"
	CodeInvalidTrace      Code = "invalid_trace"
	CodeBadChunk          Code = "bad_chunk"
	CodeEmptyBatch        Code = "empty_batch"
	CodeChunkTooLarge     Code = "chunk_too_large"
	CodeBatchTooLarge     Code = "batch_too_large"
	CodeKeyTooLong        Code = "idempotency_key_too_long"
	CodeKeyReuse          Code = "idempotency_key_reuse"
	CodeQueueFull         Code = "queue_full"
	CodeRateLimited       Code = "rate_limited"
	CodeUnauthorized      Code = "unauthorized"
	CodeNotFound          Code = "not_found"
	CodeMethodNotAllowed  Code = "method_not_allowed"
	CodeNotAcceptable     Code = "not_acceptable"
	CodeBadCursor         Code = "bad_cursor"
	CodeCancelled         Code = "cancelled"
	CodeShuttingDown      Code = "shutting_down"
	CodeTimeout           Code = "timeout"
	CodeInternal          Code = "internal_error"
	CodeRetrainInProgress Code = "retrain_in_progress"
	CodeRetrainMissing    Code = "retrain_unconfigured"
	CodeStorage           Code = "storage_unavailable"
	// CodeRouting marks a retryable cluster-routing refusal: the owner
	// of the request's key is failing over, the router could not reach
	// it, or a stale ring stamped the wrong owner. Always 503 +
	// Retry-After; clients retry exactly like a shed.
	CodeRouting Code = "routing"
)

// newProblem assembles the RFC 7807 document for one occurrence.
func newProblem(status int, code Code, detail string) Problem {
	return Problem{
		Type:   "/v2/problems/" + string(code),
		Title:  http.StatusText(status),
		Status: status,
		Code:   code,
		Detail: detail,
	}
}

// NewProblem assembles the RFC 7807 document for one occurrence. It is
// the exported constructor for the cluster tier (internal/cluster),
// which answers in the same closed dialect the service owns.
func NewProblem(status int, code Code, detail string) Problem {
	return newProblem(status, code, detail)
}

// writeProblem renders p as application/problem+json.
func writeProblem(w http.ResponseWriter, p Problem) {
	w.Header().Set("Content-Type", ProblemContentType)
	w.WriteHeader(p.Status)
	enc := json.NewEncoder(w)
	enc.Encode(p) //nolint:errcheck // headers are gone; nothing left to do
}

// writeError answers an error as problem+json. It is the one way a
// handler or middleware layer renders an error status.
func writeError(w http.ResponseWriter, status int, code Code, detail string) {
	writeProblem(w, newProblem(status, code, detail))
}

// problemBody renders the fixed problem document used where a body must
// be prepared ahead of time (the timeout layer's canned 503).
func problemBody(status int, code Code, detail string) string {
	b, _ := json.Marshal(newProblem(status, code, detail)) // strings and an int always marshal
	return string(b)
}
