// The /v2 REST surface: scan-native, batch-native, streaming, with
// the unified Op/Result model. Every error body is machine-readable —
// {"error":{"code","message"}} with the taxonomy of opresult.go — and
// every mutation answers with an OpResult. /v1 remains mounted as a
// compatibility shim over the same controller entry points (rest.go).
package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// registerV2 mounts the v2 routes on the REST server's mux.
func (s *RESTServer) registerV2() {
	s.mux.HandleFunc("GET /v2/objects", s.handleList)
	s.mux.HandleFunc("GET /v2/objects/{key...}", s.handleGetV2)
	s.mux.HandleFunc("PUT /v2/objects/{key...}", s.handlePutV2)
	s.mux.HandleFunc("POST /v2/objects/{key...}", s.handlePutV2)
	s.mux.HandleFunc("DELETE /v2/objects/{key...}", s.handleDeleteV2)
	s.mux.HandleFunc("POST /v2/batch/get", s.handleBatchGet)
	s.mux.HandleFunc("POST /v2/batch/put", s.handleBatchPut)
	s.mux.HandleFunc("GET /v2/results/{op}", s.handleResultV2)
}

// sessionAndKey runs the shared v2 object-route preamble.
func (s *RESTServer) sessionAndKey(w http.ResponseWriter, r *http.Request) (*Session, string, bool) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, CodeUnauthenticated, err)
		return nil, "", false
	}
	key, err := objectKeyFrom(r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalidArgument, err))
		return nil, "", false
	}
	return sess, key, true
}

// handleList serves one page of a prefix/range listing.
//
//	GET /v2/objects?prefix=P&start=S&limit=N&token=T
func (s *RESTServer) handleList(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, CodeUnauthenticated, err)
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalidArgument, err))
		return
	}
	q := r.URL.Query()
	opts := ScanOptions{
		Prefix: q.Get("prefix"),
		Start:  q.Get("start"),
		Token:  q.Get("token"),
		Certs:  certs,
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("%w: bad limit %q", ErrInvalidArgument, l))
			return
		}
		opts.Limit = n
	}
	page, err := sess.Scan(r.Context(), opts)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// handleGetV2 streams an object. Headers carry the metadata; the body
// is the raw payload, chunked objects streamed chunk by chunk. An
// integrity failure mid-stream aborts the connection (the client sees
// a truncated transfer, never silently wrong bytes).
func (s *RESTServer) handleGetV2(w http.ResponseWriter, r *http.Request) {
	sess, key, ok := s.sessionAndKey(w, r)
	if !ok {
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalidArgument, err))
		return
	}
	opts := GetOptions{Certs: certs}
	if v := r.URL.Query().Get("version"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, fmt.Errorf("%w: bad version: %v", ErrInvalidArgument, err))
			return
		}
		opts.Version, opts.HasVersion = n, true
	}
	meta, send, err := sess.GetStream(r.Context(), key, opts)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("X-Pesos-Version", strconv.FormatInt(meta.Version, 10))
	w.Header().Set("X-Pesos-Policy", meta.PolicyID)
	w.Header().Set("X-Pesos-Content-Hash", fmt.Sprintf("%x", meta.ContentHash))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size, 10))
	w.WriteHeader(http.StatusOK)
	if err := send(w); err != nil {
		// Headers are gone; panicking with the sentinel aborts the
		// connection so the truncation is observable client-side.
		panic(http.ErrAbortHandler)
	}
}

// handlePutV2 stores an object from the (streamed) request body.
// Values above the inline limit become chunked records transparently;
// ?async=1 defers execution (inline-sized values only) and returns an
// operation id inside the OpResult.
func (s *RESTServer) handlePutV2(w http.ResponseWriter, r *http.Request) {
	sess, key, ok := s.sessionAndKey(w, r)
	if !ok {
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalidArgument, err))
		return
	}
	q := r.URL.Query()
	opts := PutOptions{PolicyID: q.Get("policy"), Certs: certs, Async: q.Get("async") != ""}
	if v := q.Get("version"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, fmt.Errorf("%w: bad version: %v", ErrInvalidArgument, err))
			return
		}
		opts.Version, opts.HasVersion = n, true
	}
	var res OpResult
	if opts.Async {
		// Deferred execution outlives the request, so the body must be
		// buffered; the inline value limit applies.
		body, err := readLimit(r.Body)
		if err != nil {
			writeError(w, err)
			return
		}
		res = sess.PutOp(r.Context(), key, body, opts)
	} else {
		res = sess.PutStream(r.Context(), key, r.Body, opts)
	}
	writeOpResult(w, res)
}

// handleDeleteV2 removes an object, reporting the destroyed version.
func (s *RESTServer) handleDeleteV2(w http.ResponseWriter, r *http.Request) {
	sess, key, ok := s.sessionAndKey(w, r)
	if !ok {
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalidArgument, err))
		return
	}
	opts := DeleteOptions{Certs: certs, Async: r.URL.Query().Get("async") != ""}
	writeOpResult(w, sess.DeleteOp(r.Context(), key, opts))
}

// handleBatchGet serves POST /v2/batch/get {"keys":[...]}.
func (s *RESTServer) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, CodeUnauthenticated, err)
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalidArgument, err))
		return
	}
	var req struct {
		Keys []JSONKey `json:"keys"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	keys := make([]string, len(req.Keys))
	for i, k := range req.Keys {
		keys[i] = string(k)
	}
	results, err := sess.BatchGet(r.Context(), keys, certs)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// handleBatchPut serves POST /v2/batch/put {"ops":[...]}.
func (s *RESTServer) handleBatchPut(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, CodeUnauthenticated, err)
		return
	}
	certs, err := certsFrom(r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalidArgument, err))
		return
	}
	var req struct {
		Ops []BatchPutOp `json:"ops"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	results, err := sess.BatchPut(r.Context(), req.Ops, certs)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// handleResultV2 polls an asynchronous operation through the unified
// result shape: {"done":bool,"result":OpResult}.
func (s *RESTServer) handleResultV2(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, CodeUnauthenticated, err)
		return
	}
	opID, err := strconv.ParseUint(r.PathValue("op"), 10, 64)
	if err != nil {
		writeError(w, fmt.Errorf("%w: bad op id: %v", ErrInvalidArgument, err))
		return
	}
	res, done, ok := sess.ResultOp(opID)
	if !ok {
		writeError(w, fmt.Errorf("%w: result unknown or aged out; re-issue the request", ErrNotFound))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"done": done, "result": res})
}

// writeOpResult renders a mutation outcome: the HTTP status follows
// the embedded error's taxonomy code (200 on success), the body is
// always the full OpResult.
func writeOpResult(w http.ResponseWriter, res OpResult) {
	status := http.StatusOK
	if res.Err != nil {
		status = res.Err.Code.HTTPStatus()
	}
	writeJSON(w, status, res)
}

// decodeBody parses a bounded JSON request body.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBatchBody))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: bad request body: %v", ErrInvalidArgument, err)
	}
	return nil
}

// maxBatchBody bounds a batch request: the op cap worth of inline
// values at base64's 4/3 inflation, plus JSON overhead — a maximal
// legal batch (256 ops × 1 MB) must fit.
const maxBatchBody = (MaxBatchRequestOps*4/3 + 64) << 20
