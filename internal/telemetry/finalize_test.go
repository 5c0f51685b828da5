package telemetry

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vpdift/internal/cover"
	"vpdift/internal/kernel"
)

// peekStore reports the server's completed counter at the moment finalize
// stores a result, which is when the result becomes readable.
type peekStore struct {
	*MemStore
	sv        *Server
	completed chan uint64
}

func (st *peekStore) Put(key string, r SessionResult) error {
	st.completed <- st.sv.Stats().Completed
	return st.MemStore.Put(key, r)
}

// A client that reads a result and then scrapes /metrics must find the
// session counted: finalize counts before it publishes.
func TestFinalizeCountsBeforePublishing(t *testing.T) {
	st := &peekStore{MemStore: NewMemStore(), completed: make(chan uint64, 1)}
	sv := NewServer(WithResultStore(st), WithWorkers(2))
	defer sv.Close()
	st.sv = sv
	if err := sv.Submit(SessionConfig{ID: "a", Key: "k", Platform: &stubPlatform{}, Horizon: kernel.MS}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-st.completed:
		if n != 1 {
			t.Errorf("Stats().Completed = %d when the result was stored, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the result was never stored")
	}
}

// simPlatform is a stub Platform over a real kernel.Simulator, so whatever
// its processes do reaches the server through Simulator.Run. after, when
// set, runs once the simulation returns, where a soc platform does its own
// work (freezing a forensic bundle, flushing the flight ring).
type simPlatform struct {
	stubPlatform
	sim   *kernel.Simulator
	after func()
}

func (p *simPlatform) Run(horizon kernel.Time) error {
	err := p.sim.Run(horizon)
	if p.after != nil {
		p.after()
	}
	return err
}
func (p *simPlatform) Now() kernel.Time { return p.sim.Now() }

// A session that panics fails alone, wherever the panic is raised: in a
// kernel process inside Run, in the platform's own work after its
// simulation, in the session's drive step, or in a finalize capture (the
// cover snapshot closure). Each result says so and is not cached, its
// callbacks fire, the counter ticks, the stack (with the panicking frame)
// reaches only the log, and the server keeps serving its neighbours. A
// panic in the Close hook, after the result is out, is only logged.
func TestPanickingSessionFailsAlone(t *testing.T) {
	buf := &syncBuffer{}
	sv := NewServer(WithWorkers(2), WithLogger(slog.New(slog.NewJSONHandler(buf, nil))))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	sim := kernel.New()
	sim.Spawn("faulty", func(p *kernel.Process) {
		if p.Now() > 0 {
			var m map[string]int
			m["x"] = 1 // a nil-map write: a runtime panic, as a model bug would raise
		}
		p.WakeAfter(3 * kernel.MS)
	})
	bad := []struct {
		cfg  SessionConfig
		want string // in the result's error
	}{
		{SessionConfig{ID: "sim", Key: "ksim", Platform: &simPlatform{sim: sim}, Horizon: 10 * kernel.MS},
			"process faulty panicked"},
		{SessionConfig{ID: "run", Key: "krun", Horizon: 10 * kernel.MS,
			Platform: &simPlatform{sim: kernel.New(), after: func() { panic("bundle failed") }}},
			"process drive panicked: bundle failed"},
		{SessionConfig{ID: "drive", Key: "kdrive", Platform: &stubPlatform{}, Horizon: 10 * kernel.MS,
			Drive: func() error {
				var m map[string]int
				m["x"] = 1
				return nil
			}},
			"process drive panicked"},
		{SessionConfig{ID: "cover", Key: "kcover", Platform: &stubPlatform{}, Horizon: 5 * kernel.MS,
			CoverSnapshot: func() *cover.Snapshot { panic("capture failed") }},
			"process finalize panicked: capture failed"},
	}
	results := make(chan SessionResult, len(bad))
	for _, b := range bad {
		if err := sv.Submit(b.cfg); err != nil {
			t.Fatal(err)
		}
		sv.get(b.cfg.ID).onDone(func(r SessionResult) { results <- r })
	}
	if err := sv.Submit(SessionConfig{ID: "good", Key: "kgood", Platform: &stubPlatform{}, Horizon: 5 * kernel.MS}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Submit(SessionConfig{ID: "close", Key: "kclose", Platform: &stubPlatform{}, Horizon: 5 * kernel.MS,
		Close: func() { panic("release failed") }}); err != nil {
		t.Fatal(err)
	}
	for range bad {
		select {
		case r := <-results:
			if !r.Panicked {
				t.Errorf("session %s: callback got an unpanicked result %+v", r.Session, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a panicked session's callback never fired")
		}
	}
	waitState(t, ts.URL, "good", StateDone)

	for _, b := range bad {
		id := b.cfg.ID
		waitState(t, ts.URL, id, StateDone)
		r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/"+id+"/result", nil)
		var res SessionResult
		json.Unmarshal(r.Data, &res)
		if r.status != http.StatusOK || !res.Panicked || !strings.Contains(res.Error, b.want) {
			t.Errorf("%s result: status %d, %+v, want panicked with %q", id, r.status, res, b.want)
		}
		if strings.Contains(string(r.Data), "goroutine") {
			t.Errorf("%s: the API must show the message, not the stack: %s", id, r.Data)
		}
		if _, ok := sv.Store().Get(b.cfg.Key); ok {
			t.Errorf("%s: a panicked result must not be cached", id)
		}
		// Every panic is raised in a closure literal of this test, so its
		// name marks a stack that kept the panicking frames.
		waitLogged(t, buf, `"session":"`+id+`"`, `"msg":"session finished"`, "TestPanickingSessionFailsAlone")
	}
	r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/good/result", nil)
	var good SessionResult
	json.Unmarshal(r.Data, &good)
	if r.status != http.StatusOK || good.Panicked || good.Error != "" || good.SimNs != uint64(5*kernel.MS) {
		t.Errorf("good result: status %d, %+v", r.status, good)
	}
	if _, ok := sv.Store().Get("kgood"); !ok {
		t.Error("the healthy result must be cached")
	}
	waitLogged(t, buf, `"session":"close"`, `"msg":"session close panicked"`, "TestPanickingSessionFailsAlone")

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", resp.StatusCode)
	}
	if st := sv.Stats(); st.Panics != 4 || st.Completed != 6 {
		t.Errorf("Stats() = %+v, want 4 panics among 6 completed", st)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	_, _ = io.Copy(&text, resp.Body)
	resp.Body.Close()
	if !strings.Contains(text.String(), "vpdift_serve_panics_total 4\n") {
		t.Errorf("/metrics lacks vpdift_serve_panics_total 4")
	}
}
