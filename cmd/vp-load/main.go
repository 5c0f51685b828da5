// Command vp-load is the pure-Go load harness for the session server: it
// drives thousands of concurrent sessions through the /api/v1 HTTP surface,
// measures submit-to-result latency and completed-sessions-per-second
// throughput, and emits a BENCH_serve.json report the CI serve-perf guard
// compares against the checked-in baseline.
//
// By default it self-hosts: an in-process vp-serve-equivalent (serve.Factory
// on a telemetry.Server) listens on a loopback port and the harness talks to
// it over real TCP, so the numbers include the full HTTP + scheduler path.
// -url points it at an external server instead.
//
// Modes:
//
//	vp-load -n 1000 -concurrency 64 -out BENCH_serve.json
//	    closed-loop load run: submit N sessions (unique stimuli, so nothing
//	    dedups), await every result, report throughput and percentiles.
//	vp-load -verify
//	    functional checks: dedup cache hit, queue-full 429 + Retry-After,
//	    drain leaves zero sessions and zero leaked goroutines, forensic and
//	    coverage payloads, and a panicking simulation that fails only its
//	    own session.
//	vp-load -n 200 -baseline BENCH_serve.json -regress 0.25
//	    load run plus guard: fail if throughput drops more than -regress
//	    below the baseline report (the cmd/perf -baseline idiom).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/serve"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
)

var (
	urlFlag     = flag.String("url", "", "target server base URL (default: self-hosted in-process server)")
	nFlag       = flag.Int("n", 1000, "total sessions to run")
	concurrency = flag.Int("concurrency", 64, "concurrent HTTP submitters/pollers")
	workersFlag = flag.Int("workers", 0, "self-hosted server worker pool size (0 = GOMAXPROCS)")
	queueDepth  = flag.Int("queue-depth", telemetry.DefaultQueueDepth, "self-hosted server queue capacity")
	workload    = flag.String("workload", "micro", "workload each session runs")
	sampleUs    = flag.Int64("sample-us", 0, "per-session sampler cadence in simulated µs (0 = none)")
	outFlag     = flag.String("out", "", "write the JSON report here (default stdout)")
	verifyFlag  = flag.Bool("verify", false, "run functional checks instead of a load run")
	baseline    = flag.String("baseline", "", "compare against an archived report and fail on throughput regression")
	regress     = flag.Float64("regress", 0.25, "allowed fractional throughput drop vs -baseline before failing")
	serverMet   = flag.String("server-metrics", "", "after the run, scrape the target's /metrics, validate the exposition, and write it to this file")
	forDir      = flag.String("forensics-dir", "", "after the await phase, download the forensic bundle of every failed/violating session into this directory")
	coverDir    = flag.String("cover-dir", "", "run sessions with the coverage layer attached and archive each session's snapshot as <id>.cover.json in this directory")
)

// Report is the BENCH_serve.json shape.
type Report struct {
	Meta struct {
		GoVersion string `json:"go_version"`
		OS        string `json:"os"`
		Arch      string `json:"arch"`
		NumCPU    int    `json:"num_cpu"`
	} `json:"meta"`
	Sessions      int     `json:"sessions"`
	Concurrency   int     `json:"concurrency"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	Workload      string  `json:"workload"`
	PeakInFlight  int     `json:"peak_in_flight"`
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputSPS float64 `json:"throughput_sps"`
	SPSPerWorker  float64 `json:"sps_per_worker"`
	LatencyMs     struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	Submitted        int `json:"submitted"`
	Completed        int `json:"completed"`
	CacheHits        int `json:"cache_hits"`
	Rejected429      int `json:"rejected_429"`
	Errors           int `json:"errors"`
	LeakedGoroutines int `json:"leaked_goroutines"`
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	if *verifyFlag {
		return verify()
	}
	return loadRun()
}

// target is a server under test: a base URL plus, when self-hosted, the
// in-process handle for drain and leak accounting.
type target struct {
	base  string
	sv    *telemetry.Server
	httpS *http.Server
	ln    net.Listener
}

// startSelf boots the in-process server on a loopback port.
func startSelf(workers, depth int) (*target, error) {
	opts := []telemetry.ServerOption{
		telemetry.WithFactory(serve.NewFactory()),
		telemetry.WithQueueDepth(depth),
	}
	if workers > 0 {
		opts = append(opts, telemetry.WithWorkers(workers))
	}
	sv := telemetry.NewServer(opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: sv.Handler()}
	go hs.Serve(ln)
	return &target{base: "http://" + ln.Addr().String(), sv: sv, httpS: hs, ln: ln}, nil
}

func (tg *target) close() {
	if tg.httpS != nil {
		tg.httpS.Close()
	}
	if tg.sv != nil {
		tg.sv.Close()
	}
}

func client() *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        *concurrency * 2,
		MaxIdleConnsPerHost: *concurrency * 2,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

type envelope struct {
	Data  json.RawMessage `json:"data"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
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

// loadRun is the closed-loop benchmark, in two phases so the server holds
// all N sessions concurrently at peak: C submitters first push every session
// in (unique stimuli defeat the dedup store on purpose), then C pollers
// await each result; completion latency is submit-to-result-available.
func loadRun() error {
	baselineGoroutines := runtime.NumGoroutine()
	tg, err := resolveTarget()
	if err != nil {
		return err
	}
	c := client()

	var (
		submitted, completed, cacheHits, rejected, errs atomic.Int64
		mu                                              sync.Mutex
		latencies                                       []time.Duration
		peak                                            int64
	)
	inFlight := new(atomic.Int64)
	bump := func(n int64) {
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				return
			}
		}
	}

	type pending struct {
		id string
		t0 time.Time
	}
	start := time.Now()

	// Phase 1: submit everything.
	idx := make(chan int, *nFlag)
	for i := 0; i < *nFlag; i++ {
		idx <- i
	}
	close(idx)
	queue := make(chan pending, *nFlag)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				id, ok := submitOne(c, tg.base, i, &submitted, &cacheHits, &rejected, &errs)
				if !ok {
					continue
				}
				bump(inFlight.Add(1))
				queue <- pending{id, t0}
			}
		}()
	}
	wg.Wait()
	close(queue)

	// Phase 2: await every result, noting which sessions kept forensics and
	// archiving coverage snapshots when -cover-dir asked for them.
	var failed []string
	var covered []coverEntry
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range queue {
				if data, ok := awaitResultData(c, tg.base, p.id, &errs); ok {
					completed.Add(1)
					var res struct {
						Forensics bool            `json:"forensics"`
						Cover     json.RawMessage `json:"cover"`
					}
					json.Unmarshal(data, &res)
					mu.Lock()
					latencies = append(latencies, time.Since(p.t0))
					if res.Forensics {
						failed = append(failed, p.id)
					}
					if *coverDir != "" && len(res.Cover) > 0 {
						covered = append(covered, coverEntry{p.id, res.Cover})
					}
					mu.Unlock()
				}
				inFlight.Add(-1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	if *coverDir != "" {
		if err := archiveCover(covered); err != nil {
			return err
		}
	}

	// Pull forensic bundles before drain/close releases anything.
	if *forDir != "" {
		if err := downloadForensics(c, tg.base, failed); err != nil {
			return err
		}
	}

	// Scrape server-side metrics while the run's series are still hot —
	// before drain flips the readiness gauges.
	if *serverMet != "" {
		if err := captureServerMetrics(c, tg.base, *serverMet); err != nil {
			return err
		}
	}

	leaked := 0
	if tg.sv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := tg.sv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		}
		cancel()
		st := tg.sv.Stats()
		if st.Queued != 0 || st.Running != 0 {
			return fmt.Errorf("vp-load: drain left %d queued, %d running", st.Queued, st.Running)
		}
		tg.close()
		leaked = settleGoroutines(baselineGoroutines)
	}

	rep := buildReport(tg, latencies, wall)
	rep.PeakInFlight = int(peak)
	rep.Submitted = int(submitted.Load())
	rep.Completed = int(completed.Load())
	rep.CacheHits = int(cacheHits.Load())
	rep.Rejected429 = int(rejected.Load())
	rep.Errors = int(errs.Load())
	rep.LeakedGoroutines = leaked

	if rep.Completed != *nFlag {
		defer os.Exit(1)
		fmt.Fprintf(os.Stderr, "vp-load: %d/%d sessions completed\n", rep.Completed, *nFlag)
	}
	if leaked > 0 {
		defer os.Exit(1)
		fmt.Fprintf(os.Stderr, "vp-load: %d goroutines leaked after drain\n", leaked)
	}

	if err := emit(rep); err != nil {
		return err
	}
	if *baseline != "" {
		return guard(rep)
	}
	return nil
}

// captureServerMetrics scrapes /metrics, validates the exposition (format
// and histogram contract), checks the run actually left server-side traces
// (request counters, queue-wait observations), and archives the text — the
// load report's server-side half.
func captureServerMetrics(c *http.Client, base, path string) error {
	b, err := getOK(c, base+"/metrics")
	if err != nil {
		return fmt.Errorf("vp-load: scrape: %w", err)
	}
	text := string(b)
	if err := telemetry.ValidateExposition(text); err != nil {
		return fmt.Errorf("vp-load: /metrics failed validation: %w", err)
	}
	for _, want := range []string{
		"vpdift_http_requests_total",
		"vpdift_http_request_duration_seconds_bucket",
		"vpdift_serve_queue_wait_seconds_count",
	} {
		if !bytes.Contains(b, []byte(want)) {
			return fmt.Errorf("vp-load: /metrics is missing %s after a load run", want)
		}
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "server metrics validated (%d bytes) -> %s\n", len(b), path)
	return nil
}

func resolveTarget() (*target, error) {
	if *urlFlag != "" {
		return &target{base: *urlFlag}, nil
	}
	return startSelf(*workersFlag, *queueDepth)
}

// submitOne POSTs one session, retrying briefly on 429. Unique stimuli keep
// every submission a cache miss. Returns the session ID.
func submitOne(c *http.Client, base string, i int, submitted, cacheHits, rejected, errs *atomic.Int64) (string, bool) {
	spec := telemetry.SessionSpec{
		Workload: *workload,
		Stimulus: fmt.Sprintf("load-%d", i),
		SampleUs: *sampleUs,
		Cover:    *coverDir != "",
	}
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		status, _, env, err := postJSON(c, base+"/api/v1/sessions", spec)
		if err != nil {
			errs.Add(1)
			return "", false
		}
		switch status {
		case http.StatusCreated:
			submitted.Add(1)
			var created struct {
				Session struct {
					ID string `json:"id"`
				} `json:"session"`
			}
			json.Unmarshal(env.Data, &created)
			return created.Session.ID, true
		case http.StatusOK:
			// Cached or coalesced — should not happen with unique stimuli,
			// but count it rather than hang waiting for a session.
			cacheHits.Add(1)
			return "", false
		case http.StatusTooManyRequests:
			// The header is second-granular; a load harness backs off in
			// milliseconds or the measurement drowns in politeness.
			rejected.Add(1)
			if attempt > 5000 {
				errs.Add(1)
				return "", false
			}
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		default:
			errs.Add(1)
			return "", false
		}
	}
}

// awaitResult polls the result endpoint (409 until the session finishes).
func awaitResult(c *http.Client, base, id string, errs *atomic.Int64) bool {
	_, ok := awaitResultData(c, base, id, errs)
	return ok
}

// awaitResultData is awaitResult returning the result's "data" payload.
func awaitResultData(c *http.Client, base, id string, errs *atomic.Int64) (json.RawMessage, bool) {
	backoff := time.Millisecond
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		status, env, err := getJSON(c, base+"/api/v1/sessions/"+id+"/result")
		if err != nil {
			errs.Add(1)
			return nil, false
		}
		switch status {
		case http.StatusOK:
			return env.Data, true
		case http.StatusConflict:
			time.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
		default:
			errs.Add(1)
			return nil, false
		}
	}
	errs.Add(1)
	return nil, false
}

// coverEntry is one completed session's coverage snapshot as served in its
// result payload.
type coverEntry struct {
	id  string
	raw json.RawMessage
}

// archiveCover validates and writes each covered session's snapshot as
// <id>.cover.json under -cover-dir, in canonical bytes. Every snapshot is
// round-tripped through the parser and held to merge idempotence
// (merge(S,S) == S) — a snapshot that double-counts under self-merge would
// poison every downstream campaign rollup.
func archiveCover(entries []coverEntry) error {
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "cover: no session carried a snapshot, nothing to archive")
		return nil
	}
	if err := os.MkdirAll(*coverDir, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		snap, err := cover.ParseSnapshot(e.raw)
		if err != nil {
			return fmt.Errorf("vp-load: cover %s: %w", e.id, err)
		}
		self, err := cover.Merge(snap, snap)
		if err != nil {
			return fmt.Errorf("vp-load: cover %s: self-merge: %w", e.id, err)
		}
		if !bytes.Equal(self.JSON(), snap.JSON()) {
			return fmt.Errorf("vp-load: cover %s: merge(S,S) != S", e.id)
		}
		if err := os.WriteFile(filepath.Join(*coverDir, e.id+".cover.json"), snap.JSON(), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "cover: %d validated snapshots -> %s\n", len(entries), *coverDir)
	return nil
}

// downloadForensics fetches each failed session's bundle, validates it, and
// writes it as <id>.forensics.json under -forensics-dir.
func downloadForensics(c *http.Client, base string, ids []string) error {
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "forensics: no failed sessions, nothing to download")
		return nil
	}
	if err := os.MkdirAll(*forDir, 0o755); err != nil {
		return err
	}
	for _, id := range ids {
		b, err := getOK(c, base+"/api/v1/sessions/"+id+"/forensics")
		if err != nil {
			return fmt.Errorf("vp-load: forensics %s: %w", id, err)
		}
		if _, err := flight.ValidateBundle(b); err != nil {
			return fmt.Errorf("vp-load: forensics %s: %w", id, err)
		}
		if err := os.WriteFile(filepath.Join(*forDir, id+".forensics.json"), b, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "forensics: %d validated bundles -> %s\n", len(ids), *forDir)
	return nil
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

func buildReport(tg *target, latencies []time.Duration, wall time.Duration) *Report {
	rep := &Report{
		Sessions:    *nFlag,
		Concurrency: *concurrency,
		QueueDepth:  *queueDepth,
		Workload:    *workload,
		WallSeconds: wall.Seconds(),
	}
	rep.Meta.GoVersion = runtime.Version()
	rep.Meta.OS = runtime.GOOS
	rep.Meta.Arch = runtime.GOARCH
	rep.Meta.NumCPU = runtime.NumCPU()
	rep.Workers = *workersFlag
	if rep.Workers == 0 {
		rep.Workers = runtime.GOMAXPROCS(0)
	}
	if wall > 0 {
		rep.ThroughputSPS = float64(len(latencies)) / wall.Seconds()
		rep.SPSPerWorker = rep.ThroughputSPS / float64(rep.Workers)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(latencies)-1))
			return float64(latencies[i]) / float64(time.Millisecond)
		}
		rep.LatencyMs.P50 = pct(0.50)
		rep.LatencyMs.P90 = pct(0.90)
		rep.LatencyMs.P99 = pct(0.99)
		rep.LatencyMs.Max = float64(latencies[len(latencies)-1]) / float64(time.Millisecond)
	}
	return rep
}

func emit(rep *Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *outFlag == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	fmt.Fprintf(os.Stderr, "throughput %.1f sessions/s (p50 %.1fms p99 %.1fms), report -> %s\n",
		rep.ThroughputSPS, rep.LatencyMs.P50, rep.LatencyMs.P99, *outFlag)
	return os.WriteFile(*outFlag, b, 0o644)
}

// guard fails the run when throughput regressed more than -regress below the
// baseline report — the serve flavour of cmd/perf's CI guard.
func guard(rep *Report) error {
	b, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("vp-load: baseline %s: %w", *baseline, err)
	}
	if base.SPSPerWorker <= 0 {
		return fmt.Errorf("vp-load: baseline %s has no throughput", *baseline)
	}
	// Per-worker throughput absorbs core-count differences between the
	// machine that archived the baseline and the one checking it.
	got, want := rep.SPSPerWorker, base.SPSPerWorker
	if got < want*(1-*regress) {
		return fmt.Errorf("vp-load: %.1f sessions/s/worker is %.1f%% below baseline %.1f (tolerance %.0f%%)",
			got, (1-got/want)*100, want, *regress*100)
	}
	fmt.Fprintf(os.Stderr, "serve perf guard ok: %.1f sessions/s/worker vs baseline %.1f (tolerance %.0f%%)\n",
		got, want, *regress*100)
	return nil
}

// verify runs the functional checks: dedup, backpressure, drain.
func verify() error {
	if err := verifyDedup(); err != nil {
		return fmt.Errorf("vp-load verify (dedup): %w", err)
	}
	if err := verifyBackpressure(); err != nil {
		return fmt.Errorf("vp-load verify (backpressure): %w", err)
	}
	if err := verifyDrain(); err != nil {
		return fmt.Errorf("vp-load verify (drain): %w", err)
	}
	if err := verifyForensics(); err != nil {
		return fmt.Errorf("vp-load verify (forensics): %w", err)
	}
	if err := verifyCover(); err != nil {
		return fmt.Errorf("vp-load verify (cover): %w", err)
	}
	if err := verifyPanic(); err != nil {
		return fmt.Errorf("vp-load verify (panic): %w", err)
	}
	fmt.Fprintln(os.Stderr, "vp-load verify: dedup, backpressure, drain, forensics, cover and panic checks passed")
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
	var e atomic.Int64
	var bad, good result
	data, ok := awaitResultData(c, tg.base, "faulty", &e)
	if !ok {
		return fmt.Errorf("faulty session never finished")
	}
	json.Unmarshal(data, &bad)
	if !bad.Panicked || !bad.Forensics || bad.Error == "" {
		return fmt.Errorf("faulty result not marked panicked with a bundle: %s", data)
	}
	if data, ok = awaitResultData(c, tg.base, healthy, &e); !ok {
		return fmt.Errorf("healthy session never finished")
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
	var e atomic.Int64
	data, ok := awaitResultData(c, tg.base, id, &e)
	if !ok {
		return fmt.Errorf("covered wk-3 session never finished")
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
	var e atomic.Int64
	data, ok := awaitResultData(c, tg.base, id, &e)
	if !ok {
		return fmt.Errorf("wk-3 session never finished")
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
	var e atomic.Int64
	if !awaitResult(c, tg.base, id, &e) {
		return fmt.Errorf("first session never finished")
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
	var e atomic.Int64
	ids := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := createSession(c, tg.base, telemetry.SessionSpec{Workload: "micro", Stimulus: fmt.Sprintf("drain-%d", i)})
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if !awaitResult(c, tg.base, id, &e) {
			return fmt.Errorf("session %s never finished", id)
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
