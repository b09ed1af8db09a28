package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// The served OpenAPI document (GET /v2/openapi.json) is generated from
// the route table, not maintained by hand: every row contributes
// exactly one operation, so the spec and the router cannot drift — a
// property pinned by TestOpenAPIMatchesRouteTable.

// opDoc is the OpenAPI operation metadata carried by a route row.
type opDoc struct {
	id        string
	summary   string
	params    []docParam
	reqBody   *docBody
	responses []docResp
}

// docParam documents one query or path parameter.
type docParam struct {
	name     string
	in       string // "query" | "path" | "header"
	typ      string // JSON schema type
	desc     string
	required bool
}

// docBody documents a request body.
type docBody struct {
	contentType string
	schema      string // component schema name; "" = free-form
	desc        string
}

// docResp documents one response.
type docResp struct {
	status      int
	desc        string
	contentType string
	schema      string // component schema name; "" = free-form
}

// problemResp is the canned problem+json response entry.
func problemResp(status int, desc string) docResp {
	return docResp{status: status, desc: desc, contentType: ProblemContentType, schema: "Problem"}
}

// ---------------------------------------------------------------------------
// Per-route operation metadata (referenced by the table in routes.go).

var (
	docOpenAPI = &opDoc{
		id: "getOpenAPI", summary: "The OpenAPI document of this server, generated from its route table.",
		responses: []docResp{{status: 200, desc: "OpenAPI 3.0 document", contentType: "application/json"}},
	}
	docTraces = &opDoc{
		id: "uploadTraces", summary: "Stream a batch of trace chunks as NDJSON; one result line is streamed back per chunk, in input order.",
		params: []docParam{
			{name: UserHeader, in: "header", typ: "string", desc: "Declared participant; rate-limit key. When set, every chunk's user must match."},
		},
		reqBody: &docBody{contentType: NDJSONContentType, schema: "BatchChunk",
			desc: "One BatchChunk JSON document per line."},
		responses: []docResp{
			{status: 200, desc: "One BatchResult line per chunk, in input order", contentType: NDJSONContentType, schema: "BatchResult"},
			problemResp(400, "Empty batch, or an unreadable stream"),
			problemResp(401, "Missing or invalid bearer token"),
			problemResp(429, "Rate limit exceeded"),
		},
	}
	docDataset = &opDoc{
		id: "getDataset", summary: "Page through the published, protected dataset.",
		params: []docParam{
			{name: "cursor", in: "query", typ: "string", desc: "Opaque pagination cursor from the previous page."},
			{name: "limit", in: "query", typ: "integer", desc: "Page size (1..1000, default 100)."},
			{name: "user", in: "query", typ: "string", desc: "Exact published pseudonym filter."},
			{name: "from", in: "query", typ: "integer", desc: "Half-open time-range filter start (unix seconds)."},
			{name: "to", in: "query", typ: "integer", desc: "Half-open time-range filter end (unix seconds)."},
			{name: "Accept", in: "header", typ: "string", desc: "application/json (default), text/csv or application/x-ndjson."},
			{name: "If-None-Match", in: "header", typ: "string", desc: "Revalidate against the dataset ETag; 304 on match."},
		},
		responses: []docResp{
			{status: 200, desc: "One dataset page (ETag set; on the CSV and NDJSON formats the envelope travels in headers: X-Mood-Next-Cursor when a further page exists, X-Mood-Total-Users always)", contentType: "application/json", schema: "DatasetPage"},
			{status: 304, desc: "Dataset unchanged since the presented ETag"},
			problemResp(400, "Bad cursor, limit or time range"),
			problemResp(406, "Unsupported Accept media type"),
		},
	}
	docJobsList = &opDoc{
		id: "listJobs", summary: "List asynchronous upload jobs in insertion order, filtered by state and user.",
		params: []docParam{
			{name: "state", in: "query", typ: "string", desc: "Filter: queued, running, done or failed."},
			{name: "user", in: "query", typ: "string", desc: "Filter by uploader."},
			{name: "limit", in: "query", typ: "integer", desc: "Maximum jobs returned (1..1000, default 100)."},
		},
		responses: []docResp{
			{status: 200, desc: "Matching jobs in insertion order", contentType: "application/json", schema: "JobList"},
			problemResp(400, "Unknown state filter"),
		},
	}
	docJobGet = &opDoc{
		id: "getJob", summary: "Fetch one asynchronous upload job.",
		params: []docParam{{name: "id", in: "path", typ: "string", required: true, desc: "Job handle from the 202 response."}},
		responses: []docResp{
			{status: 200, desc: "Job status", contentType: "application/json", schema: "JobStatus"},
			problemResp(404, "Unknown job"),
		},
	}
	docStats = &opDoc{
		id: "getStats", summary: "Global accounting counters.",
		responses: []docResp{
			{status: 200, desc: "Server statistics", contentType: "application/json", schema: "ServerStats"},
		},
	}
	docUserGet = &opDoc{
		id: "getUser", summary: "Per-participant accounting.",
		params: []docParam{{name: "id", in: "path", typ: "string", required: true, desc: "Participant ID."}},
		responses: []docResp{
			{status: 200, desc: "Participant statistics", contentType: "application/json", schema: "UserStats"},
			problemResp(404, "Unknown user"),
		},
	}
	docMetrics = &opDoc{
		id: "getMetrics", summary: "Per-route request metrics.",
		responses: []docResp{
			{status: 200, desc: "Request metrics snapshot", contentType: "application/json", schema: "MetricsSnapshot"},
		},
	}
	docRetrain = &opDoc{
		id: "retrain", summary: "Retrain the attacks on accumulated history, hot-swap the engine and re-audit the published dataset.",
		responses: []docResp{
			{status: 200, desc: "Retrain report", contentType: "application/json", schema: "RetrainReport"},
			problemResp(404, "No retrainer configured"),
			problemResp(409, "A retrain pass is already running"),
			problemResp(500, "Retraining failed; the previous engine keeps serving"),
		},
	}
	docHealthz = &opDoc{
		id: "healthz", summary: "Liveness probe (unauthenticated, unthrottled).",
		responses: []docResp{{status: 200, desc: "ok", contentType: "text/plain"}},
	}
)

// ---------------------------------------------------------------------------
// Document generation.

// handleOpenAPI serves the generated document. The bytes are built once
// per server: the table is immutable after New.
func (s *Server) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	s.openapiOnce.Do(func() {
		data, _ := json.MarshalIndent(buildOpenAPI(s.routes()), "", "  ") // maps of strings, numbers and bools always marshal
		s.openapiJSON = append(data, '\n')
	})
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.openapiJSON) //nolint:errcheck
}

// buildOpenAPI assembles the OpenAPI 3.0 document from the route table.
func buildOpenAPI(table []*route) map[string]any {
	paths := map[string]any{}
	for _, rt := range table {
		if rt.doc == nil {
			continue
		}
		item, _ := paths[rt.pattern].(map[string]any)
		if item == nil {
			item = map[string]any{}
			paths[rt.pattern] = item
		}
		item[strings.ToLower(rt.method)] = buildOperation(rt)
	}
	return map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":       "MooD crowd-sensing middleware",
			"description": "Privacy-preserving mobility data collection: uploads are protected by the MooD engine and only unlinkable, pseudonymised fragments are published. Generated from the server's route table.",
			"version":     "2.0.0",
		},
		"paths": paths,
		"components": map[string]any{
			"schemas":         openapiSchemas(),
			"securitySchemes": map[string]any{"bearer": map[string]any{"type": "http", "scheme": "bearer"}},
		},
	}
}

func buildOperation(rt *route) map[string]any {
	doc := rt.doc
	op := map[string]any{
		"operationId": doc.id,
		"summary":     doc.summary,
		"responses":   map[string]any{},
	}
	var params []any
	for _, p := range doc.params {
		params = append(params, map[string]any{
			"name":        p.name,
			"in":          p.in,
			"required":    p.required || p.in == "path",
			"description": p.desc,
			"schema":      map[string]any{"type": p.typ},
		})
	}
	if params != nil {
		op["parameters"] = params
	}
	if doc.reqBody != nil {
		content := map[string]any{doc.reqBody.contentType: schemaRef(doc.reqBody.schema)}
		op["requestBody"] = map[string]any{
			"description": doc.reqBody.desc,
			"required":    true,
			"content":     content,
		}
	}
	responses := op["responses"].(map[string]any)
	for _, resp := range doc.responses {
		entry := map[string]any{"description": resp.desc}
		if resp.contentType != "" {
			entry["content"] = map[string]any{resp.contentType: schemaRef(resp.schema)}
		}
		responses[strconv.Itoa(resp.status)] = entry
	}
	return op
}

// schemaRef renders a media-type object referencing a component schema
// (or a free-form one when the schema name is empty).
func schemaRef(name string) map[string]any {
	if name == "" {
		return map[string]any{}
	}
	return map[string]any{"schema": map[string]any{"$ref": "#/components/schemas/" + name}}
}

// problemCodes enumerates the full error dialect for the Problem
// schema. Every Code constant from problem.go must appear here: moodvet's
// problemdialect analyzer reads the constants from the package scope and
// fails on any this list omits, so a new code cannot ship undocumented.
func problemCodes() []any {
	return []any{
		CodeBadRequest, CodeInvalidUser, CodeUserMismatch, CodeEmptyChunk,
		CodeInvalidTrace, CodeBadChunk, CodeEmptyBatch, CodeChunkTooLarge,
		CodeBatchTooLarge, CodeKeyTooLong, CodeKeyReuse, CodeQueueFull,
		CodeRateLimited, CodeUnauthorized, CodeNotFound, CodeMethodNotAllowed,
		CodeNotAcceptable, CodeBadCursor, CodeCancelled, CodeShuttingDown,
		CodeTimeout, CodeInternal, CodeRetrainInProgress, CodeRetrainMissing,
		CodeStorage, CodeRouting,
	}
}

// openapiSchemas declares the wire types. Field lists mirror the Go
// structs; the schemas are intentionally shallow (objects and their
// scalar fields) — clients wanting exhaustive typing generate from this
// document, not from Go.
func openapiSchemas() map[string]any {
	obj := func(props map[string]any) map[string]any {
		return map[string]any{"type": "object", "properties": props}
	}
	str := map[string]any{"type": "string"}
	integer := map[string]any{"type": "integer"}
	boolean := map[string]any{"type": "boolean"}
	number := map[string]any{"type": "number"}
	arrayOf := func(items map[string]any) map[string]any {
		return map[string]any{"type": "array", "items": items}
	}
	ref := func(name string) map[string]any {
		return map[string]any{"$ref": "#/components/schemas/" + name}
	}

	record := obj(map[string]any{"lat": number, "lon": number, "ts": integer})
	traceObj := obj(map[string]any{"user": str, "records": arrayOf(ref("Record"))})

	return map[string]any{
		"Problem": obj(map[string]any{
			"type": str, "title": str, "status": integer,
			"code":   map[string]any{"type": "string", "enum": problemCodes()},
			"detail": str,
		}),
		"Record":         record,
		"Trace":          traceObj,
		"UploadResponse": obj(map[string]any{"accepted": integer, "rejected": integer, "pieces": integer, "mechanisms": arrayOf(str)}),
		"BatchChunk": obj(map[string]any{
			"user": str, "records": arrayOf(ref("Record")), "key": str, "async": boolean,
		}),
		"BatchResult": obj(map[string]any{
			"index": integer, "user": str, "status": integer, "code": str, "error": str,
			"replay": boolean, "retry_after": integer,
			"result": ref("UploadResponse"), "job": ref("JobStatus"),
		}),
		"JobStatus": obj(map[string]any{
			"id": str, "user": str, "state": str, "error": str, "result": ref("UploadResponse"),
		}),
		"JobList": obj(map[string]any{"jobs": arrayOf(ref("JobStatus")), "total": integer}),
		"DatasetPage": obj(map[string]any{
			"name": str, "traces": arrayOf(ref("Trace")), "next_cursor": str, "total_users": integer,
		}),
		"ServerStats": obj(map[string]any{
			"uploads": integer, "users": integer, "records_in": integer,
			"records_published": integer, "records_rejected": integer, "records_quarantined": integer,
			"published_traces": integer, "quarantined_traces": integer, "retrains": integer,
			"persistence": ref("PersistenceStats"),
			"node":        ref("NodeStats"),
		}),
		"NodeStats": obj(map[string]any{
			"id": str, "ring_epoch": integer, "booted_at": integer, "misroutes": integer,
		}),
		"PersistenceStats": obj(map[string]any{
			"store": str, "checkpoints": integer, "checkpoint_failures": integer,
			"last_error": str, "last_success_age_ms": integer,
			"append_failures": integer, "last_append_error": str,
			"commit_groups": integer, "commits": integer,
			"last_checkpoint_ms": number, "last_checkpoint_bytes": integer,
		}),
		"UserStats": obj(map[string]any{
			"uploads": integer, "records_in": integer, "records_published": integer,
			"records_rejected": integer, "records_quarantined": integer,
			"pieces": integer, "pieces_quarantined": integer,
		}),
		"MetricsSnapshot": obj(map[string]any{"routes": map[string]any{"type": "object"}}),
		"RetrainReport": obj(map[string]any{
			"history_users": integer, "history_records": integer,
			"audited": integer, "quarantined": integer, "duration_ms": integer,
			"train_ms": number, "audit_ms": number,
		}),
	}
}
