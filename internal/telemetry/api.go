package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// SessionSpec is the wire shape of POST /api/v1/sessions and of each
// campaign cell: what to simulate, under which policy, fed which stimulus.
// The session factory turns a spec into a platform; the (image, policy,
// stimulus) triple it resolves to is content-hashed into the dedup key.
type SessionSpec struct {
	// ID optionally names the session; the server assigns s-<n> otherwise.
	// A taken ID is a 409.
	ID string `json:"id,omitempty"`
	// Workload names what runs: "immo" (endless challenge loop), a Table II
	// workload (qsort, dhrystone, primes, sha512, simple-sensor,
	// freertos-tasks), "micro" (tiny load-test guest), or a Wilander-Kamkar
	// attack ("wk-3" ... "wk-18").
	Workload string `json:"workload"`
	// Scale sizes Table II workloads: small (default), medium, large.
	Scale string `json:"scale,omitempty"`
	// Policy selects the security policy: "default" (per-workload), "none"
	// (baseline VP), or a workload-specific name ("base", "per-byte" for
	// immo).
	Policy string `json:"policy,omitempty"`
	// Stimulus is free-form stimulus identity (e.g. a challenge seed). It
	// is folded into the dedup key, so distinct stimuli never coalesce.
	Stimulus string `json:"stimulus,omitempty"`
	// Priority orders the pending queue; higher runs sooner.
	Priority int `json:"priority,omitempty"`
	// HorizonMs bounds simulated time (milliseconds); 0 = run to exit or
	// the workload default.
	HorizonMs int64 `json:"horizon_ms,omitempty"`
	// TimeoutMs bounds host wall-clock time; 0 = the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// SampleUs attaches a metrics sampler at this simulated cadence
	// (microseconds); 0 = no sampler.
	SampleUs int64 `json:"sample_us,omitempty"`
	// Observe attaches a taint observer so /events streams provenance.
	Observe bool `json:"observe,omitempty"`
	// Cover attaches the coverage views and captures a cross-run snapshot
	// into the session result when it finishes (SessionResult.Cover).
	Cover bool `json:"cover,omitempty"`
	// Force bypasses the result store: simulate even on a dedup hit.
	Force bool `json:"force,omitempty"`
}

// SessionFactory builds sessions from wire specs. Key must be cheap
// relative to Build (it runs on every submission, hit or miss) and must
// fold every result-determining input — image bytes, policy, stimulus,
// horizon — into the returned content hash.
type SessionFactory interface {
	// Key returns the dedup content hash for the spec.
	Key(spec SessionSpec) (string, error)
	// Build constructs the session (platform, drive closure, Close hook).
	// The server fills ID, Priority, Timeout, and Key afterwards.
	Build(spec SessionSpec) (SessionConfig, error)
}

// apiError is the error half of the v1 envelope.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Fault carries guest-fault detail when the error concerns a session
	// that died on one (e.g. the no_forensics 404 of a faulted session
	// whose recorder was disabled).
	Fault *FaultDetail `json:"fault,omitempty"`
}

// envelope is the one JSON shape every v1 response uses: exactly one of
// Data and Error is set.
type envelope struct {
	Data  any       `json:"data,omitempty"`
	Error *apiError `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeData(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, envelope{Data: v})
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, envelope{Error: &apiError{Code: code, Message: msg}})
}

// maxBodyBytes caps request bodies. Session and campaign specs are a few
// hundred bytes; the cap keeps one oversized request from holding memory.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers the request itself — an enveloped 413
// body_too_large past the cap, 400 bad_request otherwise — and returns
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("%s exceeds %d bytes", what, maxBodyBytes))
	} else {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid "+what+": "+err.Error())
	}
	return false
}

// allow dispatches on the request method, answering anything outside the
// allowed set with an enveloped 405 and an Allow header. Returns false when
// it already answered.
func allow(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		fmt.Sprintf("%s not allowed on %s (allow: %s)", r.Method, r.URL.Path, strings.Join(methods, ", ")))
	return false
}

// createdSession is the "data" payload of POST /api/v1/sessions.
type createdSession struct {
	Session *sessionInfo `json:"session,omitempty"`
	// Cached is set when the submission was served from the result store
	// without simulating.
	Cached bool `json:"cached,omitempty"`
	// Coalesced is set when an identical submission was already in flight;
	// Session then describes that session.
	Coalesced bool           `json:"coalesced,omitempty"`
	Result    *SessionResult `json:"result,omitempty"`
	Key       string         `json:"key,omitempty"`
}

// v1Sessions handles GET (list) and POST (create) on /api/v1/sessions.
func (sv *Server) v1Sessions(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		infos := sv.sessionInfos()
		writeData(w, http.StatusOK, map[string]any{
			"sessions": infos,
			"total":    len(infos),
		})
		return
	}
	var spec SessionSpec
	if !decodeBody(w, r, "session spec", &spec) {
		return
	}
	out, status, aerr := sv.createSession(r.Context(), spec)
	if aerr != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(sv.pool.retryAfter()))
		}
		writeJSON(w, status, envelope{Error: aerr})
		return
	}
	writeData(w, status, out)
}

// createSession is the factory path shared by POST /api/v1/sessions and the
// campaign expander: dedup against the result store and in-flight sessions,
// then build and submit. The request ID carried by ctx becomes the session's
// Origin, joining its lifecycle logs and trace spans to the request that
// created it. Returns the payload and HTTP status, or an API error with its
// status.
func (sv *Server) createSession(ctx context.Context, spec SessionSpec) (*createdSession, int, *apiError) {
	f := sv.opts.factory
	if f == nil {
		return nil, http.StatusNotImplemented, &apiError{
			Code: "unsupported", Message: "server has no session factory; sessions are preconfigured"}
	}
	if spec.Workload == "" {
		return nil, http.StatusBadRequest, &apiError{Code: "bad_request", Message: "spec needs a workload"}
	}
	key, err := f.Key(spec)
	if err != nil {
		return nil, http.StatusBadRequest, &apiError{Code: "bad_request", Message: err.Error()}
	}

	sv.submitMu.Lock()
	defer sv.submitMu.Unlock()

	if spec.Force {
		sv.stats.forced.Add(1)
	} else {
		if res, ok := sv.opts.store.Get(key); ok {
			sv.stats.cacheHits.Add(1)
			return &createdSession{Cached: true, Result: &res, Key: key}, http.StatusOK, nil
		}
		sv.stats.cacheMisses.Add(1)
		if live := sv.liveByKey(key); live != nil {
			sv.stats.coalesced.Add(1)
			info := live.info()
			return &createdSession{Coalesced: true, Session: &info, Key: key}, http.StatusOK, nil
		}
	}
	if sv.pool.stopped() {
		return nil, http.StatusServiceUnavailable, &apiError{Code: "draining", Message: "server is draining; no new sessions"}
	}
	if sv.pool.capacityLeft() < 1 {
		sv.stats.rejectedFull.Add(1)
		return nil, http.StatusTooManyRequests, &apiError{Code: "queue_full", Message: "session queue at capacity; retry later"}
	}

	cfg, err := f.Build(spec)
	if err != nil {
		return nil, http.StatusBadRequest, &apiError{Code: "bad_request", Message: err.Error()}
	}
	cfg.Key = key
	cfg.Priority = spec.Priority
	cfg.Origin = RequestIDFrom(ctx)
	if spec.TimeoutMs > 0 {
		cfg.Timeout = time.Duration(spec.TimeoutMs) * time.Millisecond
	} else if cfg.Timeout == 0 {
		cfg.Timeout = sv.opts.timeout
	}
	if spec.ID != "" {
		cfg.ID = spec.ID
	} else if cfg.ID == "" {
		cfg.ID = sv.autoID("s")
	}
	if err := sv.Submit(cfg); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			return nil, http.StatusTooManyRequests, &apiError{Code: "queue_full", Message: err.Error()}
		case errors.Is(err, ErrDraining):
			return nil, http.StatusServiceUnavailable, &apiError{Code: "draining", Message: err.Error()}
		case errors.Is(err, ErrDuplicateID):
			return nil, http.StatusConflict, &apiError{Code: "conflict", Message: err.Error()}
		default:
			return nil, http.StatusBadRequest, &apiError{Code: "bad_request", Message: err.Error()}
		}
	}
	s := sv.get(cfg.ID)
	info := s.info()
	return &createdSession{Session: &info, Key: key}, http.StatusCreated, nil
}

// autoID mints a fresh "<prefix>-<n>" ID that no current session or
// campaign holds.
func (sv *Server) autoID(prefix string) string {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for {
		sv.nextID++
		id := fmt.Sprintf("%s-%d", prefix, sv.nextID)
		if _, taken := sv.sessions[id]; taken {
			continue
		}
		if _, taken := sv.campaigns[id]; taken {
			continue
		}
		return id
	}
}

// v1Session handles GET and DELETE on /api/v1/sessions/{id}.
func (sv *Server) v1Session(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet, http.MethodDelete) {
		return
	}
	id := r.PathValue("id")
	s := sv.get(id)
	if s == nil {
		writeError(w, http.StatusNotFound, "not_found", "no session "+strconv.Quote(id))
		return
	}
	if r.Method == http.MethodGet {
		writeData(w, http.StatusOK, s.info())
		return
	}
	res, err := sv.EndSession(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeData(w, http.StatusOK, map[string]any{"ended": id, "result": res})
}

// v1SessionResult serves the final result of a finished session; 409 while
// it is still queued or running.
func (sv *Server) v1SessionResult(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id := r.PathValue("id")
	s := sv.get(id)
	if s == nil {
		writeError(w, http.StatusNotFound, "not_found", "no session "+strconv.Quote(id))
		return
	}
	s.mu.Lock()
	fin := s.finalized
	res := s.result
	s.mu.Unlock()
	if !fin {
		writeError(w, http.StatusConflict, "conflict", "session "+id+" has not finished")
		return
	}
	writeData(w, http.StatusOK, res)
}

// v1Timeseries serves the sampler ring. The enveloped default carries the
// samples as JSON; ?format=jsonl|csv streams the raw exporter output.
func (sv *Server) v1Timeseries(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id := r.PathValue("id")
	s := sv.get(id)
	if s == nil {
		writeError(w, http.StatusNotFound, "not_found", "no session "+strconv.Quote(id))
		return
	}
	if s.cfg.Sampler == nil {
		writeError(w, http.StatusNotFound, "no_sampler", "session "+id+" has no sampler attached")
		return
	}
	switch r.URL.Query().Get("format") {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		s.cfg.Sampler.WriteCSV(w)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		s.cfg.Sampler.WriteJSONL(w)
	case "", "json":
		samples := s.cfg.Sampler.Samples()
		writeData(w, http.StatusOK, map[string]any{
			"session": id,
			"total":   s.cfg.Sampler.Total(),
			"samples": samples,
		})
	default:
		writeError(w, http.StatusBadRequest, "bad_request", "format must be json, jsonl or csv")
	}
}

// v1Events streams the observer ring as SSE (the frames themselves are the
// SSE protocol, not enveloped JSON).
func (sv *Server) v1Events(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id := r.PathValue("id")
	s := sv.get(id)
	if s == nil {
		writeError(w, http.StatusNotFound, "not_found", "no session "+strconv.Quote(id))
		return
	}
	if s.cfg.Platform.Observer() == nil {
		writeError(w, http.StatusNotFound, "no_observer", "session "+id+" has no observer attached")
		return
	}
	sv.streamEvents(w, r, s)
}

// v1StoredResult serves a result-store entry by its content hash.
func (sv *Server) v1StoredResult(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	key := r.PathValue("key")
	res, ok := sv.opts.store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no stored result for key "+strconv.Quote(key))
		return
	}
	writeData(w, http.StatusOK, res)
}
