package main

import (
	"errors"
	"fmt"
	"net/http"

	"dqm"
)

// The v1 error envelope. Every non-2xx response carries
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// where code is a stable machine-readable identifier (the table below is the
// contract; messages are human-readable and may change), and details carries
// structured context where the route defines some — e.g. partial-ingest
// progress counters. HTTP statuses classify coarsely; clients branch on code.
const (
	codeRouteNotFound        = "route_not_found"
	codeMethodNotAllowed     = "method_not_allowed"
	codeSessionNotFound      = "session_not_found"
	codePolicyNotFound       = "policy_not_found"
	codeSessionExists        = "session_exists"
	codeInvalidBody          = "invalid_body"
	codeInvalidArgument      = "invalid_argument"
	codeBodyTooLarge         = "body_too_large"
	codeBatchTooLarge        = "batch_too_large"
	codeUnsupportedMediaType = "unsupported_media_type"
	codeInvalidBatch         = "invalid_batch"
	codeInvalidPolicy        = "invalid_policy"
	codeJournalUnavailable   = "journal_unavailable"
	codeWindowNotReady       = "window_not_ready"
	codeInternal             = "internal"
)

type errorBody struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// writeError writes the v1 error envelope without details.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeErrorDetails(w, status, code, nil, format, args...)
}

// writeErrorDetails writes the v1 error envelope with structured details.
func writeErrorDetails(w http.ResponseWriter, status int, code string, details map[string]any, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		Details: details,
	}})
}

// ingestCode classifies an ingest failure's error code alongside
// ingestStatus: journal (disk) faults are the server's problem, everything
// else is the request's.
func ingestCode(err error) string {
	switch {
	case dqm.IsJournalError(err):
		return codeJournalUnavailable
	case errors.Is(err, dqm.ErrBatchTooLarge):
		return codeBatchTooLarge
	}
	return codeInvalidBatch
}
