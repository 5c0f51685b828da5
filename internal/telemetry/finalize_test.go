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
// its processes do reaches the server through Simulator.Run.
type simPlatform struct {
	stubPlatform
	sim *kernel.Simulator
}

func (p *simPlatform) Run(horizon kernel.Time) error { return p.sim.Run(horizon) }
func (p *simPlatform) Now() kernel.Time              { return p.sim.Now() }

// A simulation that panics fails its own session only: the result says
// so, it is not cached, the counter ticks, the stack reaches the log, and
// the server keeps serving its neighbour.
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
	if err := sv.Submit(SessionConfig{ID: "bad", Key: "kbad", Platform: &simPlatform{sim: sim}, Horizon: 10 * kernel.MS}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Submit(SessionConfig{ID: "good", Key: "kgood", Platform: &stubPlatform{}, Horizon: 5 * kernel.MS}); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts.URL, "bad", StateDone)
	waitState(t, ts.URL, "good", StateDone)

	r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/bad/result", nil)
	var bad SessionResult
	json.Unmarshal(r.Data, &bad)
	if r.status != http.StatusOK || !bad.Panicked || !strings.Contains(bad.Error, "process faulty panicked") {
		t.Errorf("bad result: status %d, %+v", r.status, bad)
	}
	if strings.Contains(string(r.Data), "goroutine") {
		t.Errorf("the API must show the message, not the stack: %s", r.Data)
	}
	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/good/result", nil)
	var good SessionResult
	json.Unmarshal(r.Data, &good)
	if r.status != http.StatusOK || good.Panicked || good.Error != "" || good.SimNs != uint64(5*kernel.MS) {
		t.Errorf("good result: status %d, %+v", r.status, good)
	}
	if _, ok := sv.Store().Get("kbad"); ok {
		t.Error("a panicked result must not be cached")
	}
	if _, ok := sv.Store().Get("kgood"); !ok {
		t.Error("the healthy result must be cached")
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", resp.StatusCode)
	}
	if st := sv.Stats(); st.Panics != 1 || st.Completed != 2 {
		t.Errorf("Stats() = %+v, want 1 panic among 2 completed", st)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	_, _ = io.Copy(&text, resp.Body)
	resp.Body.Close()
	if !strings.Contains(text.String(), "vpdift_serve_panics_total 1\n") {
		t.Errorf("/metrics lacks vpdift_serve_panics_total 1")
	}
	waitLogged(t, buf, `"session":"bad"`, `"msg":"session finished"`, "TestPanickingSessionFailsAlone")
}
