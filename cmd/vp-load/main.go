// Command vp-load checks the session server's invariants end to end: an
// in-process vp-serve equivalent (serve.NewFactory on a telemetry.Server)
// listens on a loopback port, and every check talks to it over real TCP
// through the /api/v1 surface. It takes no flags:
//
//	go run ./cmd/vp-load
//
// The checks: an identical resubmission is a dedup cache hit; a full queue
// answers 429 with Retry-After; a drain leaves zero sessions and zero leaked
// goroutines; a violating session serves a valid forensic bundle and a
// covered one a canonical coverage snapshot; and a session whose simulation
// panics fails alone. It exits 1 on the first failed check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/serve"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: vp-load (it takes no arguments)")
		os.Exit(2)
	}
	if err := verify(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// target is an in-process server under test: its base URL, and the server
// handle for drain and leak accounting.
type target struct {
	base  string
	sv    *telemetry.Server
	httpS *http.Server
}

// startSelf boots the in-process server on a loopback port.
func startSelf(workers, depth int) (*target, error) {
	sv := telemetry.NewServer(
		telemetry.WithFactory(serve.NewFactory()),
		telemetry.WithQueueDepth(depth),
		telemetry.WithWorkers(workers),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: sv.Handler()}
	go hs.Serve(ln)
	return &target{base: "http://" + ln.Addr().String(), sv: sv, httpS: hs}, nil
}

func (tg *target) close() {
	tg.httpS.Close()
	tg.sv.Close()
}

func client() *http.Client { return &http.Client{Timeout: 30 * time.Second} }

// envelope is the v1 API's response wrapper; the checks read its data.
type envelope struct {
	Data json.RawMessage `json:"data"`
}

func postJSON(c *http.Client, url string, body any) (int, http.Header, envelope, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, envelope{}, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, envelope{}, err
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil && err != io.EOF {
		return resp.StatusCode, resp.Header, env, err
	}
	return resp.StatusCode, resp.Header, env, nil
}

func getJSON(c *http.Client, url string) (int, envelope, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, envelope{}, err
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil && err != io.EOF {
		return resp.StatusCode, env, err
	}
	return resp.StatusCode, env, nil
}

// createSession POSTs spec and returns the new session's ID; any status but
// 201 Created is an error.
func createSession(c *http.Client, base string, spec telemetry.SessionSpec) (string, error) {
	status, _, env, err := postJSON(c, base+"/api/v1/sessions", spec)
	if err != nil || status != http.StatusCreated {
		return "", fmt.Errorf("POST %s/%s: status %d, err %v", spec.Workload, spec.Stimulus, status, err)
	}
	var created struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	json.Unmarshal(env.Data, &created)
	return created.Session.ID, nil
}

// getOK GETs url and returns the body of its 200 response.
func getOK(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b, nil
}

// awaitResult polls the session's result endpoint (409 until the session
// finishes) and returns the result's "data" payload.
func awaitResult(c *http.Client, base, id string) (json.RawMessage, error) {
	backoff := time.Millisecond
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		status, env, err := getJSON(c, base+"/api/v1/sessions/"+id+"/result")
		if err != nil {
			return nil, err
		}
		switch status {
		case http.StatusOK:
			return env.Data, nil
		case http.StatusConflict:
			time.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
		default:
			return nil, fmt.Errorf("session %s result: status %d", id, status)
		}
	}
	return nil, fmt.Errorf("session %s never finished", id)
}

// settleGoroutines waits briefly for worker goroutines to unwind and returns
// how many remain above the pre-server baseline.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - baseline
}

// verify runs every check, each on a server of its own.
func verify() error {
	if err := verifyDedup(); err != nil {
		return fmt.Errorf("vp-load (dedup): %w", err)
	}
	if err := verifyBackpressure(); err != nil {
		return fmt.Errorf("vp-load (backpressure): %w", err)
	}
	if err := verifyDrain(); err != nil {
		return fmt.Errorf("vp-load (drain): %w", err)
	}
	if err := verifyForensics(); err != nil {
		return fmt.Errorf("vp-load (forensics): %w", err)
	}
	if err := verifyCover(); err != nil {
		return fmt.Errorf("vp-load (cover): %w", err)
	}
	if err := verifyPanic(); err != nil {
		return fmt.Errorf("vp-load (panic): %w", err)
	}
	fmt.Fprintln(os.Stderr, "vp-load: dedup, backpressure, drain, forensics, cover and panic checks passed")
	return nil
}

// verifyPanic runs a session whose simulation panics beside a healthy one.
// The panic must fail its own session only: the result is marked panicked
// and keeps a valid forensic bundle, the healthy session completes,
// /readyz stays 200 and serve.panics_total reads 1. The faulty session is a
// real micro platform with one extra kernel process that panics 10 µs into
// the run, submitted with Server.Submit.
func verifyPanic() error {
	tg, err := startSelf(2, 64)
	if err != nil {
		return err
	}
	defer tg.close()
	c := client()

	cfg, err := serve.NewFactory().Build(telemetry.SessionSpec{Workload: "micro", Stimulus: "verify-panic"})
	if err != nil {
		return err
	}
	cfg.ID = "faulty"
	cfg.Platform.(*soc.Platform).Sim.Spawn("faulty", func(p *kernel.Process) {
		if p.Now() > 0 {
			panic("vp-load: injected model bug")
		}
		p.WakeAfter(10 * kernel.US)
	})
	if err := tg.sv.Submit(cfg); err != nil {
		return err
	}
	healthy, err := createSession(c, tg.base, telemetry.SessionSpec{Workload: "micro", Stimulus: "verify-panic-healthy"})
	if err != nil {
		return err
	}

	type result struct {
		Panicked  bool   `json:"panicked"`
		Exited    bool   `json:"exited"`
		Error     string `json:"error"`
		Forensics bool   `json:"forensics"`
	}
	var bad, good result
	data, err := awaitResult(c, tg.base, "faulty")
	if err != nil {
		return err
	}
	json.Unmarshal(data, &bad)
	if !bad.Panicked || !bad.Forensics || bad.Error == "" {
		return fmt.Errorf("faulty result not marked panicked with a bundle: %s", data)
	}
	if data, err = awaitResult(c, tg.base, healthy); err != nil {
		return err
	}
	json.Unmarshal(data, &good)
	if good.Panicked || !good.Exited || good.Error != "" {
		return fmt.Errorf("healthy session did not complete cleanly: %s", data)
	}
	if _, err := getOK(c, tg.base+"/readyz"); err != nil {
		return fmt.Errorf("not ready after a panic: %w", err)
	}
	prom, err := getOK(c, tg.base+"/metrics")
	if err != nil {
		return err
	}
	if !bytes.Contains(prom, []byte("\nvpdift_serve_panics_total 1\n")) {
		return fmt.Errorf("/metrics does not count the panic as vpdift_serve_panics_total 1")
	}
	raw, err := getOK(c, tg.base+"/api/v1/sessions/faulty/forensics")
	if err != nil {
		return err
	}
	b, err := flight.ValidateBundle(raw)
	if err != nil {
		return err
	}
	if b.Reason != "panic" {
		return fmt.Errorf("faulty bundle reason %q, want panic", b.Reason)
	}
	return nil
}

// verifyCover runs one covered session end to end and holds its snapshot to
// the cross-run algebra: it parses canonically, merge(S,S) == S, and the
// self-diff is empty.
func verifyCover() error {
	tg, err := startSelf(2, 64)
	if err != nil {
		return err
	}
	defer tg.close()
	c := client()

	id, err := createSession(c, tg.base, telemetry.SessionSpec{Workload: "wk-3", Stimulus: "verify-cover", Cover: true})
	if err != nil {
		return err
	}
	data, err := awaitResult(c, tg.base, id)
	if err != nil {
		return err
	}
	var res struct {
		Cover json.RawMessage `json:"cover"`
	}
	json.Unmarshal(data, &res)
	if len(res.Cover) == 0 {
		return fmt.Errorf("covered session's result carries no snapshot: %s", data)
	}
	snap, err := cover.ParseSnapshot(res.Cover)
	if err != nil {
		return err
	}
	if snap.EdgeCount() == 0 {
		return fmt.Errorf("covered wk-3 snapshot has no edges")
	}
	self, err := cover.Merge(snap, snap)
	if err != nil {
		return fmt.Errorf("self-merge: %w", err)
	}
	if !bytes.Equal(self.JSON(), snap.JSON()) {
		return fmt.Errorf("merge(S,S) != S")
	}
	if d := cover.Diff(snap, snap); !d.Empty() {
		return fmt.Errorf("self-diff not empty: %s", d.JSON())
	}
	return nil
}

// verifyForensics runs a known-violating Wilander–Kamkar attack session and
// requires the forensics endpoint to serve a bundle that parses and
// validates, with the trace window ending at the violation.
func verifyForensics() error {
	tg, err := startSelf(2, 64)
	if err != nil {
		return err
	}
	defer tg.close()
	c := client()

	id, err := createSession(c, tg.base, telemetry.SessionSpec{Workload: "wk-3", Stimulus: "verify-forensics"})
	if err != nil {
		return err
	}
	data, err := awaitResult(c, tg.base, id)
	if err != nil {
		return err
	}
	var res struct {
		Detected  bool `json:"detected"`
		Forensics bool `json:"forensics"`
	}
	json.Unmarshal(data, &res)
	if !res.Detected {
		return fmt.Errorf("wk-3 not detected: %s", data)
	}
	if !res.Forensics {
		return fmt.Errorf("wk-3 result reports no forensic bundle: %s", data)
	}
	raw, err := getOK(c, tg.base+"/api/v1/sessions/"+id+"/forensics")
	if err != nil {
		return err
	}
	b, err := flight.ValidateBundle(raw)
	if err != nil {
		return err
	}
	if b.Reason != "violation" || len(b.Trace) == 0 || b.Trace[len(b.Trace)-1].Kind != "violation" {
		return fmt.Errorf("bundle reason %q; trace window does not end at the violation", b.Reason)
	}
	return nil
}

// verifyDedup submits the same spec twice and requires the second submission
// to be served from the result store without re-simulating.
func verifyDedup() error {
	tg, err := startSelf(2, 64)
	if err != nil {
		return err
	}
	defer tg.close()
	c := client()
	spec := telemetry.SessionSpec{Workload: "micro", Stimulus: "verify-dedup"}

	id, err := createSession(c, tg.base, spec)
	if err != nil {
		return err
	}
	if _, err := awaitResult(c, tg.base, id); err != nil {
		return err
	}
	status, _, env, err := postJSON(c, tg.base+"/api/v1/sessions", spec)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("second POST: status %d, err %v (want 200 cached)", status, err)
	}
	var hit struct {
		Cached bool `json:"cached"`
	}
	json.Unmarshal(env.Data, &hit)
	if !hit.Cached {
		return fmt.Errorf("second POST not served from store: %s", env.Data)
	}
	if st := tg.sv.Stats(); st.CacheHits != 1 || st.Submitted != 1 {
		return fmt.Errorf("stats = %+v, want 1 submitted, 1 cache hit", st)
	}
	return nil
}

// verifyBackpressure fills a 1-worker, depth-1 server with endless
// immobilizer sessions and requires the overflow submission to be a 429
// carrying Retry-After.
func verifyBackpressure() error {
	tg, err := startSelf(1, 1)
	if err != nil {
		return err
	}
	defer tg.close()
	c := client()
	post := func(i int) (int, http.Header, error) {
		status, hdr, _, err := postJSON(c, tg.base+"/api/v1/sessions",
			telemetry.SessionSpec{Workload: "immo", Stimulus: fmt.Sprintf("bp-%d", i)})
		return status, hdr, err
	}
	// #1 occupies the worker (endless), #2 takes the single queue slot.
	for i := 0; i < 2; i++ {
		if status, _, err := post(i); err != nil || status != http.StatusCreated {
			return fmt.Errorf("POST %d: status %d, err %v", i, status, err)
		}
		if i == 0 {
			if err := waitRunning(tg.sv, 1); err != nil {
				return err
			}
		}
	}
	status, hdr, err := post(2)
	if err != nil {
		return err
	}
	if status != http.StatusTooManyRequests {
		return fmt.Errorf("overflow POST: status %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		return fmt.Errorf("429 without Retry-After header")
	}
	return nil
}

func waitRunning(sv *telemetry.Server, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sv.Stats().Running >= n {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server never reached %d running sessions", n)
}

// verifyDrain runs a batch to completion, drains, and requires zero queued,
// zero running and no leaked goroutines.
func verifyDrain() error {
	before := runtime.NumGoroutine()
	tg, err := startSelf(4, 64)
	if err != nil {
		return err
	}
	c := client()
	ids := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := createSession(c, tg.base, telemetry.SessionSpec{Workload: "micro", Stimulus: fmt.Sprintf("drain-%d", i)})
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := awaitResult(c, tg.base, id); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tg.sv.Drain(ctx); err != nil {
		return err
	}
	st := tg.sv.Stats()
	if st.Queued != 0 || st.Running != 0 || st.Completed != 20 {
		return fmt.Errorf("after drain: %+v", st)
	}
	tg.close()
	if leaked := settleGoroutines(before); leaked > 0 {
		return fmt.Errorf("%d goroutines leaked", leaked)
	}
	return nil
}
