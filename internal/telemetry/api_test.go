package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vpdift/internal/cover"
	"vpdift/internal/kernel"
)

// gateFactory builds stub-platform sessions for API tests. A workload whose
// name appears in gates makes no simulation progress until that gate channel
// is closed — the lever the backpressure and coalescing tests use to hold
// sessions in flight deterministically. The hold must not block inside Run:
// the server runs chunks under the session mutex, so a blocking Run would
// deadlock every HTTP reader of that session.
type gateFactory struct {
	mu     sync.Mutex
	builds map[string]int
	gates  map[string]chan struct{}
}

func newGateFactory() *gateFactory {
	return &gateFactory{builds: map[string]int{}, gates: map[string]chan struct{}{}}
}

// gate registers (or returns) the hold gate for a workload name.
func (f *gateFactory) gate(workload string) chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.gates[workload]
	if !ok {
		g = make(chan struct{})
		f.gates[workload] = g
	}
	return g
}

func (f *gateFactory) buildCount(workload string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.builds[workload]
}

func (f *gateFactory) Key(spec SessionSpec) (string, error) {
	if spec.Workload == "badkey" {
		return "", errors.New("no such workload")
	}
	key := "k|" + spec.Workload + "|" + spec.Policy + "|" + spec.Stimulus
	if spec.Cover {
		key += "|cover"
	}
	return key, nil
}

func (f *gateFactory) Build(spec SessionSpec) (SessionConfig, error) {
	if spec.Workload == "badbuild" {
		return SessionConfig{}, errors.New("cannot build this")
	}
	f.mu.Lock()
	f.builds[spec.Workload]++
	g := f.gates[spec.Workload]
	f.mu.Unlock()
	p := &gatedPlatform{stubPlatform: stubPlatform{exitAt: 1 * kernel.MS}, gate: g}
	cfg := SessionConfig{Platform: p, Horizon: 2 * kernel.MS}
	if spec.Cover {
		snap := syntheticSnapshot(spec.Workload, spec.Policy)
		cfg.CoverSnapshot = func() *cover.Snapshot { return snap }
	}
	if spec.SampleUs > 0 {
		smp := NewSampler(Options{})
		var fc fakeCounters
		fc.instret = 5
		smp.TakeSample(1000, fc.snapshot)
		smp.TakeSample(2000, fc.snapshot)
		cfg.Sampler = smp
	}
	return cfg, nil
}

type gatedPlatform struct {
	stubPlatform
	gate chan struct{}
}

func (p *gatedPlatform) Run(h kernel.Time) error {
	if p.gate != nil {
		select {
		case <-p.gate:
		default:
			return nil // held: no progress this chunk
		}
	}
	return p.stubPlatform.Run(h)
}

// apiResp decodes one enveloped response.
type apiResp struct {
	status int
	header http.Header
	Data   json.RawMessage `json:"data"`
	Error  *apiError       `json:"error"`
}

func doJSON(t *testing.T, method, url string, body any) apiResp {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := apiResp{status: resp.StatusCode, header: resp.Header}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decoding envelope: %v", method, url, err)
	}
	return out
}

func waitState(t *testing.T, base, id, state string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r := doJSON(t, http.MethodGet, base+"/api/v1/sessions/"+id, nil)
		if r.status == http.StatusOK {
			var info sessionInfo
			json.Unmarshal(r.Data, &info)
			if info.State == state {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %q never reached state %q", id, state)
}

func TestV1EnvelopeAndStatusCodes(t *testing.T) {
	f := newGateFactory()
	sv := NewServer(WithFactory(f), WithWorkers(2))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// GET list: data set, error unset.
	r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions", nil)
	if r.status != http.StatusOK || r.Error != nil || r.Data == nil {
		t.Fatalf("GET sessions: status=%d error=%v data=%s", r.status, r.Error, r.Data)
	}

	// Unknown method: enveloped 405 with Allow.
	r = doJSON(t, http.MethodPut, ts.URL+"/api/v1/sessions", nil)
	if r.status != http.StatusMethodNotAllowed {
		t.Fatalf("PUT sessions: status = %d, want 405", r.status)
	}
	if r.Error == nil || r.Error.Code != "method_not_allowed" {
		t.Fatalf("PUT sessions: error = %+v", r.Error)
	}
	if a := r.header.Get("Allow"); !strings.Contains(a, http.MethodPost) {
		t.Fatalf("PUT sessions: Allow = %q", a)
	}

	// Unknown v1 path: enveloped 404 from the catchall.
	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/nope", nil)
	if r.status != http.StatusNotFound || r.Error == nil || r.Error.Code != "not_found" {
		t.Fatalf("GET /api/v1/nope: status=%d error=%+v", r.status, r.Error)
	}

	// Unknown session: enveloped 404.
	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/ghost", nil)
	if r.status != http.StatusNotFound || r.Error == nil || r.Error.Code != "not_found" {
		t.Fatalf("GET ghost: status=%d error=%+v", r.status, r.Error)
	}

	// Malformed body and failed factory stages: 400.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/sessions", strings.NewReader("{nope"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST garbage: status = %d, want 400", resp.StatusCode)
	}
	for _, spec := range []SessionSpec{{}, {Workload: "badkey"}, {Workload: "badbuild"}} {
		r = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", spec)
		if r.status != http.StatusBadRequest || r.Error == nil || r.Error.Code != "bad_request" {
			t.Fatalf("POST %+v: status=%d error=%+v", spec, r.status, r.Error)
		}
	}

	// Duplicate explicit ID: 409 conflict. Distinct stimuli keep the keys
	// apart so the dedup paths stay out of the way.
	r = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{ID: "dup", Workload: "a", Stimulus: "1"})
	if r.status != http.StatusCreated {
		t.Fatalf("POST dup #1: status = %d", r.status)
	}
	r = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{ID: "dup", Workload: "a", Stimulus: "2"})
	if r.status != http.StatusConflict || r.Error == nil || r.Error.Code != "conflict" {
		t.Fatalf("POST dup #2: status=%d error=%+v", r.status, r.Error)
	}
}

func TestV1SessionLifecycle(t *testing.T) {
	f := newGateFactory()
	sv := NewServer(WithFactory(f), WithWorkers(2))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{Workload: "life", SampleUs: 1000})
	if r.status != http.StatusCreated {
		t.Fatalf("create: status = %d (%+v)", r.status, r.Error)
	}
	var created createdSession
	if err := json.Unmarshal(r.Data, &created); err != nil || created.Session == nil {
		t.Fatalf("create payload: %s (err %v)", r.Data, err)
	}
	id := created.Session.ID
	if !strings.HasPrefix(id, "s-") {
		t.Fatalf("auto ID = %q, want s-<n>", id)
	}
	if created.Key == "" {
		t.Fatal("create response has no dedup key")
	}
	waitState(t, ts.URL, id, StateDone)

	// Result is enveloped and carries the stub's clean exit.
	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/"+id+"/result", nil)
	if r.status != http.StatusOK {
		t.Fatalf("result: status = %d (%+v)", r.status, r.Error)
	}
	var res SessionResult
	json.Unmarshal(r.Data, &res)
	if !res.Exited || res.SimNs == 0 || res.Error != "" {
		t.Fatalf("result = %+v, want clean exit with progress", res)
	}

	// Timeseries default format is enveloped JSON with the two samples.
	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/"+id+"/timeseries", nil)
	if r.status != http.StatusOK {
		t.Fatalf("timeseries: status = %d (%+v)", r.status, r.Error)
	}
	var tsr struct {
		Total   uint64            `json:"total"`
		Samples []json.RawMessage `json:"samples"`
	}
	json.Unmarshal(r.Data, &tsr)
	if tsr.Total != 2 || len(tsr.Samples) != 2 {
		t.Fatalf("timeseries = total %d, %d samples, want 2/2", tsr.Total, len(tsr.Samples))
	}

	// DELETE ends and unregisters; a second GET is a 404.
	r = doJSON(t, http.MethodDelete, ts.URL+"/api/v1/sessions/"+id, nil)
	if r.status != http.StatusOK {
		t.Fatalf("delete: status = %d (%+v)", r.status, r.Error)
	}
	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/"+id, nil)
	if r.status != http.StatusNotFound {
		t.Fatalf("get after delete: status = %d, want 404", r.status)
	}
}

func TestV1ResultConflictWhileRunning(t *testing.T) {
	f := newGateFactory()
	gate := f.gate("held")
	sv := NewServer(WithFactory(f), WithWorkers(2))
	defer sv.Close()
	defer close(gate)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{ID: "held-1", Workload: "held"})
	if r.status != http.StatusCreated {
		t.Fatalf("create: status = %d", r.status)
	}
	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/held-1/result", nil)
	if r.status != http.StatusConflict || r.Error == nil || r.Error.Code != "conflict" {
		t.Fatalf("result while running: status=%d error=%+v", r.status, r.Error)
	}
}

func TestV1DedupAndCoalesce(t *testing.T) {
	f := newGateFactory()
	sv := NewServer(WithFactory(f), WithWorkers(2))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	spec := SessionSpec{Workload: "dedup", Stimulus: "x"}
	r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", spec)
	if r.status != http.StatusCreated {
		t.Fatalf("first POST: status = %d", r.status)
	}
	var created createdSession
	json.Unmarshal(r.Data, &created)
	waitState(t, ts.URL, created.Session.ID, StateDone)

	// Identical spec again: served from the store, no new build.
	r = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", spec)
	if r.status != http.StatusOK {
		t.Fatalf("second POST: status = %d, want 200", r.status)
	}
	var hit createdSession
	json.Unmarshal(r.Data, &hit)
	if !hit.Cached || hit.Result == nil {
		t.Fatalf("second POST: %+v, want cached result", hit)
	}
	if n := f.buildCount("dedup"); n != 1 {
		t.Fatalf("dedup built %d times, want 1", n)
	}
	if st := sv.Stats(); st.CacheHits != 1 {
		t.Fatalf("stats.CacheHits = %d, want 1", st.CacheHits)
	}

	// Force bypasses the store.
	spec.Force = true
	r = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", spec)
	if r.status != http.StatusCreated {
		t.Fatalf("forced POST: status = %d, want 201", r.status)
	}
	if n := f.buildCount("dedup"); n != 2 {
		t.Fatalf("forced resubmit built %d times, want 2", n)
	}

	// An identical in-flight submission coalesces instead of building.
	gate := f.gate("co")
	defer close(gate)
	co := SessionSpec{Workload: "co"}
	r = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", co)
	if r.status != http.StatusCreated {
		t.Fatalf("co POST: status = %d", r.status)
	}
	r = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", co)
	if r.status != http.StatusOK {
		t.Fatalf("co POST #2: status = %d, want 200", r.status)
	}
	var joined createdSession
	json.Unmarshal(r.Data, &joined)
	if !joined.Coalesced || joined.Session == nil {
		t.Fatalf("co POST #2: %+v, want coalesced", joined)
	}
	if n := f.buildCount("co"); n != 1 {
		t.Fatalf("coalesced spec built %d times, want 1", n)
	}
}

func TestV1NoFactoryIs501(t *testing.T) {
	sv := NewServer()
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{Workload: "x"})
	if r.status != http.StatusNotImplemented || r.Error == nil || r.Error.Code != "unsupported" {
		t.Fatalf("POST without factory: status=%d error=%+v", r.status, r.Error)
	}
}

func TestServeMetricsExposed(t *testing.T) {
	f := newGateFactory()
	sv := NewServer(WithFactory(f), WithWorkers(2))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{Workload: "m1"})
	if r.status != http.StatusCreated {
		t.Fatalf("create: status = %d", r.status)
	}
	var created createdSession
	json.Unmarshal(r.Data, &created)
	waitState(t, ts.URL, created.Session.ID, StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE vpdift_serve_workers gauge",
		"# TYPE vpdift_serve_submitted_total counter",
		"vpdift_serve_completed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// healthz keeps the legacy shape and adds scheduler gauges.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	for _, k := range []string{"sessions", "workers", "queued", "running"} {
		if _, ok := health[k]; !ok {
			t.Errorf("healthz missing %q: %v", k, health)
		}
	}
}

func TestV1StoredResultEndpoint(t *testing.T) {
	f := newGateFactory()
	sv := NewServer(WithFactory(f), WithWorkers(2))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{Workload: "sr"})
	var created createdSession
	json.Unmarshal(r.Data, &created)
	waitState(t, ts.URL, created.Session.ID, StateDone)

	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/results/"+created.Key, nil)
	if r.status != http.StatusOK {
		t.Fatalf("stored result: status = %d (%+v)", r.status, r.Error)
	}
	var res SessionResult
	json.Unmarshal(r.Data, &res)
	if res.Key != created.Key || !res.Exited {
		t.Fatalf("stored result = %+v", res)
	}

	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/results/absent", nil)
	if r.status != http.StatusNotFound {
		t.Fatalf("absent stored result: status = %d, want 404", r.status)
	}
}

func TestV1PriorityOrdersQueue(t *testing.T) {
	f := newGateFactory()
	gate := f.gate("block")
	sv := NewServer(WithFactory(f), WithWorkers(1), WithQueueDepth(8))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// Occupy the single worker, then queue low before high.
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{ID: "blocker", Workload: "block"})
	waitState(t, ts.URL, "blocker", StateRunning)
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{ID: "low", Workload: "p", Stimulus: "l"})
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions", SessionSpec{ID: "high", Workload: "p", Stimulus: "h", Priority: 5})

	var mu sync.Mutex
	var order []string
	for _, id := range []string{"low", "high"} {
		s := sv.get(id)
		if s == nil {
			t.Fatalf("session %q not registered", id)
		}
		id := id
		s.onDone(func(SessionResult) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		})
	}
	close(gate)
	waitState(t, ts.URL, "low", StateDone)
	waitState(t, ts.URL, "high", StateDone)
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != "[high low]" {
		t.Fatalf("completion order = %v, want high before low", order)
	}
}
