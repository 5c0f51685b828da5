package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
)

// stubPlatform satisfies Platform without a real SoC: Run teleports the
// clock to the horizon and retires 10 instructions per simulated µs.
type stubPlatform struct {
	now     kernel.Time
	instret uint64
	o       *obs.Observer
	exitAt  kernel.Time
	exited  bool
	runErr  error
}

func (p *stubPlatform) Run(horizon kernel.Time) error {
	if p.runErr != nil {
		return p.runErr
	}
	if horizon > p.now {
		p.instret += uint64(horizon-p.now) / 100
		p.now = horizon
	}
	if p.exitAt != 0 && p.now >= p.exitAt {
		p.exited = true
	}
	return nil
}
func (p *stubPlatform) Now() kernel.Time { return p.now }
func (p *stubPlatform) MetricsSnapshotInto(dst map[string]uint64) {
	dst["sim.instret"] = p.instret
	dst["sim.time_ns"] = uint64(p.now)
}
func (p *stubPlatform) Observer() *obs.Observer { return p.o }
func (p *stubPlatform) Exited() (bool, uint32)  { return p.exited, 0 }

func waitDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/"+id, nil)
		var info sessionInfo
		json.Unmarshal(r.Data, &info)
		if r.status == http.StatusOK && info.Done {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %q never finished", id)
}

func TestServerEndpoints(t *testing.T) {
	sv := NewServer()
	defer sv.Close()
	s := NewSampler(Options{})
	var fc fakeCounters
	fc.instret = 7
	s.TakeSample(1000, fc.snapshot)
	fc.instret = 9
	s.TakeSample(2000, fc.snapshot)
	if err := sv.Submit(SessionConfig{
		ID:       "alpha",
		Platform: &stubPlatform{},
		Sampler:  s,
		Horizon:  5_000_000, // 5ms: a few chunks, then done
	}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Submit(SessionConfig{ID: "alpha", Platform: &stubPlatform{}}); err == nil {
		t.Fatal("duplicate session ID accepted")
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	waitDone(t, ts, "alpha")

	// /healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("/healthz: %d %s", resp.StatusCode, body)
	}

	// /metrics
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `vpdift_sim_instret{session="alpha"} 50000`) {
		t.Errorf("/metrics missing instret sample:\n%s", text)
	}
	if err := ValidateExposition(text); err != nil {
		t.Errorf("/metrics invalid: %v\n%s", err, text)
	}

	// /api/v1/sessions
	r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions", nil)
	var list struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	json.Unmarshal(r.Data, &list)
	infos := list.Sessions
	if r.status != http.StatusOK || len(infos) != 1 || infos[0].ID != "alpha" || !infos[0].Done ||
		infos[0].SimNs != 5_000_000 || infos[0].Samples != 2 {
		t.Errorf("/api/v1/sessions = %d %+v", r.status, infos)
	}

	// /api/v1/sessions/{id}/timeseries
	resp, err = http.Get(ts.URL + "/api/v1/sessions/alpha/timeseries?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"t_ns":1000`) {
		t.Errorf("timeseries = %q", body)
	}
	resp, err = http.Get(ts.URL + "/api/v1/sessions/alpha/timeseries?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "seq,t_ns,") {
		t.Errorf("csv timeseries = %q", body)
	}

	// Unknown session and sampler-less session 404.
	for _, path := range []string{
		"/api/v1/sessions/nope/timeseries",
		"/api/v1/sessions/nope/events",
	} {
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServerMetricsMonotone(t *testing.T) {
	sv := NewServer()
	defer sv.Close()
	if err := sv.Submit(SessionConfig{ID: "run", Platform: &stubPlatform{}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	scrape := func() uint64 {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := parseSampleLine(line, `vpdift_sim_instret{session="run"} `); ok {
				return v
			}
		}
		t.Fatalf("no instret in scrape:\n%s", body)
		return 0
	}
	a := scrape()
	time.Sleep(20 * time.Millisecond)
	b := scrape()
	if b <= a {
		t.Errorf("instret not monotone across scrapes: %d then %d", a, b)
	}
}

func parseSampleLine(line, prefix string) (uint64, bool) {
	if !strings.HasPrefix(line, prefix) {
		return 0, false
	}
	var n uint64
	for _, c := range line[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

func TestServerEventsSSE(t *testing.T) {
	o := obs.New()
	o.PinClassify("secret", 0x100, 0x104, core.Tag(1))
	o.BeginInsn(0x8000, 0x00052283)
	o.OnLoad(0x100, 4, core.W(0xAB, core.Tag(1)))
	o.AssignReg(5)

	sv := NewServer()
	defer sv.Close()
	if err := sv.Submit(SessionConfig{
		ID:       "sse",
		Platform: &stubPlatform{o: o, exitAt: 1},
		Horizon:  1_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	waitDone(t, ts, "sse")

	resp, err := http.Get(ts.URL + "/api/v1/sessions/sse/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var dataLines, doneEvents int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: {\"seq\"") {
			dataLines++
			// Kind marshals as a string, so decode into a loose shape.
			var ev struct {
				Seq  uint64 `json:"seq"`
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil || ev.Seq == 0 {
				t.Errorf("bad SSE payload %q: %v", line, err)
			}
		}
		if line == "event: done" {
			doneEvents++
		}
	}
	if dataLines < 2 {
		t.Errorf("got %d SSE events, want >= 2 (classify + load)", dataLines)
	}
	if doneEvents != 1 {
		t.Errorf("got %d done events, want 1", doneEvents)
	}
}

// TestRouteLabels requests every route of the table once and requires each
// request to be booked under the route's own RED label, never "other".
func TestRouteLabels(t *testing.T) {
	sv := NewServer()
	defer sv.Close()
	booked := func(label string) uint64 {
		var n uint64
		if rs := sv.metrics.routes[label]; rs != nil {
			for i := range rs.requests {
				n += rs.requests[i].Load()
			}
		}
		return n
	}
	h := sv.Handler()
	for _, rt := range sv.routes() {
		label := routeOf(rt.pattern)
		path := strings.NewReplacer("{id}", "x", "{key}", "k").Replace(label)
		if strings.HasSuffix(path, "/") {
			path += "nope"
		}
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		if n := booked(label); n != 1 {
			t.Errorf("GET %s: %d requests booked under %q, want 1", path, n, label)
		}
	}
	if n := booked(routeOther); n != 0 {
		t.Errorf("%d requests booked under %q, want 0", n, routeOther)
	}
}

// TestBodyTooLarge posts a spec past the body cap to each POST route and
// expects an enveloped 413.
func TestBodyTooLarge(t *testing.T) {
	sv := NewServer(WithFactory(newGateFactory()))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	big := strings.Repeat("a", maxBodyBytes)
	for _, tc := range []struct {
		route string
		body  any
	}{
		{"/api/v1/sessions", SessionSpec{Workload: big}},
		{"/api/v1/campaigns", CampaignSpec{ID: big}},
	} {
		t.Run(strings.TrimPrefix(tc.route, "/api/v1/"), func(t *testing.T) {
			r := doJSON(t, http.MethodPost, ts.URL+tc.route, tc.body)
			if r.status != http.StatusRequestEntityTooLarge || r.Error == nil || r.Error.Code != "body_too_large" {
				t.Errorf("status=%d error=%+v, want 413 body_too_large", r.status, r.Error)
			}
		})
	}
}
