package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
)

// Platform is the slice of *soc.Platform the server needs. Keeping it an
// interface here (rather than importing soc) breaks the soc→telemetry→soc
// cycle and lets tests drive the server with a stub.
type Platform interface {
	// Run advances the simulation to the horizon (kernel.Simulator.Run
	// semantics: the clock never passes it).
	Run(horizon kernel.Time) error
	// Now returns the current simulated time.
	Now() kernel.Time
	// MetricsSnapshotInto fills dst with the platform's current counters.
	MetricsSnapshotInto(dst map[string]uint64)
	// Observer returns the attached observer, nil when observability is off.
	Observer() *obs.Observer
	// Exited reports whether the guest powered off, with its exit code.
	Exited() (bool, uint32)
}

// SessionConfig describes one simulation to serve.
type SessionConfig struct {
	// ID names the session in URLs and the session label on /metrics.
	ID string
	// Platform is the simulation; the owning worker runs it and all HTTP
	// access is serialized against it through the session mutex.
	Platform Platform
	// Sampler, when set, backs the /timeseries endpoint. The caller starts
	// it (soc wires it through Config.Telemetry); the server only reads.
	Sampler *Sampler
	// Step is how much simulated time each locked Run chunk advances.
	// Defaults to 1ms — long enough to amortize lock traffic, short enough
	// that scrapes never wait perceptibly.
	Step kernel.Time
	// Horizon ends the session when simulated time reaches it; 0 runs until
	// the guest exits or the session is stopped.
	Horizon kernel.Time
	// Drive, when set, is called between chunks (under the session lock) to
	// feed the simulation — e.g. delivering the next immobilizer challenge.
	// Returning an error ends the session.
	Drive func() error
	// Priority orders the pending queue: higher runs sooner, FIFO within a
	// level. Default 0.
	Priority int
	// Timeout bounds the session's host wall-clock run time; exceeding it
	// ends the session with a timeout error. 0 means no limit.
	Timeout time.Duration
	// Key is the (image, policy, stimulus) content hash used for result
	// dedup. Empty keys are never cached.
	Key string
	// Close, when set, releases the platform (soc.Platform.Shutdown) once
	// the session has finalized; the server snapshots final metrics first.
	Close func()
	// CoverSnapshot, when set, freezes the platform's coverage into a
	// cross-run snapshot at finalize time (before Close releases the
	// platform); the result lands in SessionResult.Cover. Factories set it
	// when the spec asked for coverage.
	CoverSnapshot func() *cover.Snapshot
	// Origin is the request ID of the HTTP request that created the session,
	// "" for programmatic submissions. It joins the session's lifecycle log
	// lines and trace spans back to the request log.
	Origin string
}

// Version is the build version stamped into the vpdift_build_info metric.
// Overridable at link time:
//
//	go build -ldflags "-X vpdift/internal/telemetry.Version=v1.2.3"
var Version = "dev"

// Session lifecycle states, as reported in the API.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// session wraps a platform with the mutex that serializes the run loop
// against HTTP readers. The kernel is single-threaded by design; the mutex
// is the only thing that makes snapshots safe while the loop runs.
type session struct {
	cfg      SessionConfig
	seq      uint64 // FIFO stamp, assigned by the pool
	origin   string // request ID that created the session, "" if programmatic
	stop     chan struct{}
	stopOnce sync.Once

	mu        sync.Mutex // guards the platform and the fields below
	state     string
	done      bool
	finalized bool
	canceled  bool
	timedOut  bool
	err       error
	started   time.Time
	lc        lifecycle         // wall-clock lifecycle stamps
	final     map[string]uint64 // metrics snapshot taken at finalize
	simNs     uint64
	result    SessionResult
	forensics *flight.Bundle // frozen at finalize for failed sessions
	callbacks []func(SessionResult)
}

func (s *session) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

func (s *session) cancel() { s.stopOnce.Do(func() { close(s.stop) }) }

// onDone registers fn to run with the session's result once it finalizes;
// if it already has, fn runs immediately. Used by campaigns to coalesce
// cells onto in-flight sessions.
func (s *session) onDone(fn func(SessionResult)) {
	s.mu.Lock()
	if s.finalized {
		r := s.result
		s.mu.Unlock()
		fn(r)
		return
	}
	s.callbacks = append(s.callbacks, fn)
	s.mu.Unlock()
}

// ServerOption configures a Server, mirroring the vpdift.NewPlatform
// options facade.
type ServerOption func(*serverOptions)

type serverOptions struct {
	workers    int
	queueDepth int
	store      ResultStore
	factory    SessionFactory
	timeout    time.Duration
	log        *slog.Logger
}

// Default pool sizing: one worker per scheduler thread (floored at 2 so a
// one-CPU host still interleaves an endless session with new arrivals) and
// a queue deep enough for fleet-scale campaign bursts.
const DefaultQueueDepth = 4096

// WithWorkers sets the worker-pool size; n <= 0 keeps the default
// (GOMAXPROCS, floored at 2).
func WithWorkers(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.workers = n
		}
	}
}

// WithQueueDepth caps how many sessions may wait in the pending queue;
// submissions beyond it fail with ErrQueueFull (HTTP 429). n <= 0 keeps
// DefaultQueueDepth.
func WithQueueDepth(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.queueDepth = n
		}
	}
}

// WithResultStore sets the dedup result store (default: a fresh MemStore).
func WithResultStore(st ResultStore) ServerOption {
	return func(o *serverOptions) {
		if st != nil {
			o.store = st
		}
	}
}

// WithFactory installs the session factory that backs POST /api/v1/sessions
// and /api/v1/campaigns. Without one, those endpoints report that session
// creation over HTTP is not configured.
func WithFactory(f SessionFactory) ServerOption {
	return func(o *serverOptions) { o.factory = f }
}

// WithSessionTimeout sets the default wall-clock timeout applied to
// factory-built sessions whose spec does not choose one. 0 means no limit.
func WithSessionTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.timeout = d }
}

// serverStats counts scheduling outcomes; exposed on /healthz and as
// serve.* metrics.
type serverStats struct {
	submitted    atomic.Uint64
	completed    atomic.Uint64
	canceled     atomic.Uint64
	timedOut     atomic.Uint64
	panics       atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	forced       atomic.Uint64
	coalesced    atomic.Uint64
	rejectedFull atomic.Uint64
}

// Stats is a point-in-time snapshot of the server's scheduling counters.
type Stats struct {
	Submitted     uint64 `json:"submitted"`
	Completed     uint64 `json:"completed"`
	Canceled      uint64 `json:"canceled"`
	TimedOut      uint64 `json:"timed_out"`
	Panics        uint64 `json:"panics"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Forced        uint64 `json:"forced"`
	Coalesced     uint64 `json:"coalesced"`
	RejectedFull  uint64 `json:"rejected_full"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queue_depth"`
	StoredResults int    `json:"stored_results"`
}

// Server schedules simulation sessions onto a bounded worker pool and
// serves them over a versioned HTTP API. Create with NewServer, submit
// sessions with Submit (or POST /api/v1/sessions when a factory is
// configured), expose Handler on any http.Server.
type Server struct {
	opts      serverOptions
	pool      *pool
	stats     serverStats
	log       *slog.Logger
	metrics   *serverMetrics
	reqIDs    *requestIDs
	startedAt time.Time
	ready     atomic.Bool // readiness gate for /readyz; true once serving

	// submitMu serializes multi-session submissions (campaign expansion)
	// against the pool's capacity check so a campaign is admitted or
	// rejected atomically.
	submitMu sync.Mutex

	mu        sync.Mutex
	sessions  map[string]*session
	order     []string
	byKey     map[string]*session // live session per dedup key, for coalescing
	campaigns map[string]*campaign
	campOrder []string
	nextID    uint64
	closed    bool
}

// NewServer creates a server. With no options it has a GOMAXPROCS-sized
// worker pool, a DefaultQueueDepth pending queue, an in-memory result
// store, and no session factory (sessions are submitted programmatically).
func NewServer(opts ...ServerOption) *Server {
	o := serverOptions{
		workers:    runtime.GOMAXPROCS(0),
		queueDepth: DefaultQueueDepth,
	}
	if o.workers < 2 {
		o.workers = 2
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.store == nil {
		o.store = NewMemStore()
	}
	if o.log == nil {
		o.log = nopLogger()
	}
	sv := &Server{
		opts:      o,
		log:       o.log,
		reqIDs:    newRequestIDs(),
		startedAt: time.Now(),
		sessions:  make(map[string]*session),
		byKey:     make(map[string]*session),
		campaigns: make(map[string]*campaign),
	}
	sv.metrics = newServerMetrics(sv.routes())
	sv.ready.Store(true)
	sv.pool = newPool(o.workers, o.queueDepth, sv.runSession)
	return sv
}

// SetReady flips the /readyz readiness gate. vp-serve holds it false while
// preloading sessions so an orchestrator does not route traffic at a server
// still building platforms; Drain and Close clear it permanently.
func (sv *Server) SetReady(ready bool) { sv.ready.Store(ready) }

// Workers returns the pool size.
func (sv *Server) Workers() int { return sv.opts.workers }

// Store returns the server's result store.
func (sv *Server) Store() ResultStore { return sv.opts.store }

// Stats returns the current scheduling counters.
func (sv *Server) Stats() Stats {
	queued, running := sv.pool.load()
	return Stats{
		Submitted:     sv.stats.submitted.Load(),
		Completed:     sv.stats.completed.Load(),
		Canceled:      sv.stats.canceled.Load(),
		TimedOut:      sv.stats.timedOut.Load(),
		Panics:        sv.stats.panics.Load(),
		CacheHits:     sv.stats.cacheHits.Load(),
		CacheMisses:   sv.stats.cacheMisses.Load(),
		Forced:        sv.stats.forced.Load(),
		Coalesced:     sv.stats.coalesced.Load(),
		RejectedFull:  sv.stats.rejectedFull.Load(),
		Queued:        queued,
		Running:       running,
		Workers:       sv.opts.workers,
		QueueDepth:    sv.opts.queueDepth,
		StoredResults: sv.opts.store.Len(),
	}
}

// Submit registers a session and queues it on the worker pool. It fails
// with ErrQueueFull at capacity and ErrDraining after Drain/Close.
func (sv *Server) Submit(cfg SessionConfig) error {
	if cfg.ID == "" || cfg.Platform == nil {
		return fmt.Errorf("telemetry: session needs an ID and a Platform")
	}
	if cfg.Step == 0 {
		cfg.Step = kernel.Time(1_000_000) // 1ms
	}
	s := &session{cfg: cfg, origin: cfg.Origin, stop: make(chan struct{}), state: StateQueued}
	s.lc.submitted = time.Now()

	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return ErrDraining
	}
	if _, dup := sv.sessions[cfg.ID]; dup {
		sv.mu.Unlock()
		return fmt.Errorf("telemetry: duplicate session %q: %w", cfg.ID, ErrDuplicateID)
	}
	sv.sessions[cfg.ID] = s
	sv.order = append(sv.order, cfg.ID)
	if cfg.Key != "" {
		sv.byKey[cfg.Key] = s
	}
	sv.mu.Unlock()

	if err := sv.pool.submit(s); err != nil {
		if errors.Is(err, ErrQueueFull) {
			sv.stats.rejectedFull.Add(1)
		}
		sv.unregister(s)
		if cfg.Close != nil {
			cfg.Close()
		}
		return err
	}
	sv.stats.submitted.Add(1)
	if sv.log.Enabled(context.Background(), slog.LevelInfo) {
		sv.log.LogAttrs(context.Background(), slog.LevelInfo, "session submitted",
			slog.String("session", cfg.ID),
			slog.String("request_id", cfg.Origin),
			slog.String("key", cfg.Key),
			slog.Int("priority", cfg.Priority),
		)
	}
	return nil
}

// unregister removes a session from the registries (failed submit, DELETE).
func (sv *Server) unregister(s *session) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.sessions[s.cfg.ID] == s {
		delete(sv.sessions, s.cfg.ID)
		for i, id := range sv.order {
			if id == s.cfg.ID {
				sv.order = append(sv.order[:i], sv.order[i+1:]...)
				break
			}
		}
	}
	if s.cfg.Key != "" && sv.byKey[s.cfg.Key] == s {
		delete(sv.byKey, s.cfg.Key)
	}
}

// Cancel stops a session: a queued one is pulled from the pool and
// finalized immediately, a running one stops at its next chunk boundary.
// Returns false for unknown IDs.
func (sv *Server) Cancel(id string) bool {
	s := sv.get(id)
	if s == nil {
		return false
	}
	s.cancel()
	if sv.pool.remove(s) {
		sv.finalize(s)
	}
	return true
}

// EndSession cancels a session, waits for it to finalize (bounded), and
// removes it from the registry — the DELETE /api/v1/sessions/{id}
// semantics. The final result is returned.
func (sv *Server) EndSession(id string) (SessionResult, error) {
	s := sv.get(id)
	if s == nil {
		return SessionResult{}, fmt.Errorf("telemetry: unknown session %q", id)
	}
	s.cancel()
	if sv.pool.remove(s) {
		sv.finalize(s)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		fin := s.finalized
		r := s.result
		s.mu.Unlock()
		if fin {
			sv.unregister(s)
			return r, nil
		}
		if time.Now().After(deadline) {
			return SessionResult{}, fmt.Errorf("telemetry: session %q did not stop", id)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Drain stops intake and waits for queued and running sessions to finish —
// the graceful-shutdown half of SIGTERM handling. On ctx expiry the
// remainder keeps running; call Close to cancel it. /readyz reports 503
// from the moment drain begins.
func (sv *Server) Drain(ctx context.Context) error {
	sv.ready.Store(false)
	sv.log.LogAttrs(ctx, slog.LevelInfo, "drain started")
	err := sv.pool.drain(ctx)
	if err != nil {
		sv.log.LogAttrs(context.Background(), slog.LevelWarn, "drain incomplete",
			slog.String("error", err.Error()))
	} else {
		sv.log.LogAttrs(context.Background(), slog.LevelInfo, "drain complete")
	}
	return err
}

// Close stops every session and the worker pool. Queued sessions finalize
// as canceled; running ones stop at their next chunk boundary. Platforms
// with a Close hook are released.
func (sv *Server) Close() {
	sv.ready.Store(false)
	sv.mu.Lock()
	sv.closed = true
	all := make([]*session, 0, len(sv.order))
	for _, id := range sv.order {
		all = append(all, sv.sessions[id])
	}
	sv.mu.Unlock()
	for _, s := range all {
		s.cancel()
	}
	for _, s := range sv.pool.close() {
		sv.finalize(s)
	}
}

func (sv *Server) get(id string) *session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.sessions[id]
}

func (sv *Server) all() []*session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make([]*session, 0, len(sv.order))
	for _, id := range sv.order {
		out = append(out, sv.sessions[id])
	}
	return out
}

// liveByKey returns the in-flight session for a dedup key, if any.
func (sv *Server) liveByKey(key string) *session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.byKey[key]
}

// runSession is the worker-pool body: advance the platform in Step-sized
// chunks, holding the session lock only while the kernel runs, so scrapes
// interleave between chunks.
func (sv *Server) runSession(s *session) {
	if s.stopped() {
		sv.finalize(s)
		return
	}
	s.mu.Lock()
	s.state = StateRunning
	s.started = time.Now()
	s.lc.started = s.started
	wait := s.started.Sub(s.lc.submitted)
	var deadline time.Time
	if s.cfg.Timeout > 0 {
		deadline = s.started.Add(s.cfg.Timeout)
	}
	s.mu.Unlock()
	// Queue wait is booked at dequeue, not finalize, so an endless session
	// (the immo preload) still contributes its wait to the histogram.
	sv.metrics.queueWait.Observe(wait)
	if sv.log.Enabled(context.Background(), slog.LevelDebug) {
		sv.log.LogAttrs(context.Background(), slog.LevelDebug, "session started",
			slog.String("session", s.cfg.ID),
			slog.String("request_id", s.origin),
			slog.Duration("queue_wait", wait),
		)
	}

	pl := s.cfg.Platform
	for {
		if s.stopped() {
			sv.finalize(s)
			return
		}
		s.mu.Lock()
		target := pl.Now() + s.cfg.Step
		if s.cfg.Horizon != 0 && target > s.cfg.Horizon {
			target = s.cfg.Horizon
		}
		// The platform's work around its simulation and the drive step run
		// outside Simulator.Run; a panic there fails the session as one
		// inside it does.
		var err error
		if pe := kernel.Contain("drive", func() {
			err = pl.Run(target)
			if err == nil && s.cfg.Drive != nil {
				err = s.cfg.Drive()
			}
		}); pe != nil {
			err = pe
		}
		exited, _ := pl.Exited()
		finished := err != nil || exited || (s.cfg.Horizon != 0 && pl.Now() >= s.cfg.Horizon)
		if !finished && !deadline.IsZero() && time.Now().After(deadline) {
			err = fmt.Errorf("telemetry: session timeout after %v", s.cfg.Timeout)
			s.timedOut = true
			finished = true
		}
		if finished {
			s.err = err
			s.done = true
		}
		s.mu.Unlock()
		if finished {
			sv.finalize(s)
			return
		}
		// Yield between chunks so HTTP readers can take the lock. Simulated
		// time advances even through guest idle (the kernel idles to the
		// chunk horizon), so there is nothing to busy-poll for.
		time.Sleep(50 * time.Microsecond)
	}
}

// finalize snapshots the session's terminal state, publishes its result to
// the store, fires completion callbacks, and releases the platform. Safe to
// call more than once; only the first call acts.
func (sv *Server) finalize(s *session) {
	s.mu.Lock()
	if s.finalized {
		s.mu.Unlock()
		return
	}
	s.finalized = true
	s.lc.finished = time.Now()
	if !s.started.IsZero() {
		sv.metrics.serviceTime.Observe(s.lc.finished.Sub(s.started))
	}
	if !s.done {
		// Stopped before completing (cancel or drain-kill).
		s.canceled = true
		s.state = StateCanceled
	} else {
		s.state = StateDone
	}
	s.done = true
	// The captures below call into the platform and the factory's closures
	// outside Simulator.Run. A panic in one fails the session as a panic in
	// Run does, and finalizing goes on.
	capture := func(fn func()) {
		if pe := kernel.Contain("finalize", fn); pe != nil {
			s.err = errors.Join(s.err, pe)
		}
	}
	pl := s.cfg.Platform
	m := make(map[string]uint64, 64)
	var exited bool
	var code uint32
	capture(func() {
		pl.MetricsSnapshotInto(m)
		s.simNs = uint64(pl.Now())
		exited, code = pl.Exited()
	})
	s.final = m
	var violations uint64
	for k, n := range m {
		if strings.HasPrefix(k, "violations.") {
			violations += n
		}
	}
	r := SessionResult{
		Key:        s.cfg.Key,
		Session:    s.cfg.ID,
		SimNs:      s.simNs,
		Instret:    m["sim.instret"],
		Exited:     exited,
		ExitCode:   code,
		Violations: violations,
		Canceled:   s.canceled,
		TimedOut:   s.timedOut,
	}
	if !s.started.IsZero() {
		r.WallNs = time.Since(s.started).Nanoseconds()
	}
	if s.cfg.Sampler != nil {
		r.Samples = s.cfg.Sampler.Total()
	}
	// Freeze the flight-recorder bundle now, while the platform is still
	// alive — the Close hook below releases it.
	capture(func() { s.forensics = s.captureForensics(violations) })
	r.Forensics = s.forensics != nil
	// Likewise the coverage snapshot: capture before Close.
	if s.cfg.CoverSnapshot != nil {
		capture(func() { r.Cover = s.cfg.CoverSnapshot() })
	}
	var pe *kernel.PanicError
	if s.err != nil {
		r.Error = s.err.Error()
		r.Fault = faultDetail(s.err)
		var v *core.Violation
		if errors.As(s.err, &v) {
			r.Detected = true
		}
		r.Panicked = errors.As(s.err, &pe)
	}
	s.result = r
	cbs := s.callbacks
	s.callbacks = nil
	closeFn := s.cfg.Close
	// Count before the result is readable (this unlock, the store, the
	// callbacks): a client that reads it and then scrapes /metrics must find
	// the session counted.
	switch {
	case s.canceled:
		sv.stats.canceled.Add(1)
	case s.timedOut:
		sv.stats.timedOut.Add(1)
	default:
		sv.stats.completed.Add(1)
	}
	if r.Panicked {
		sv.stats.panics.Add(1)
	}
	s.mu.Unlock()

	if r.cacheable() {
		sv.opts.store.Put(r.Key, r)
	}
	s.mu.Lock()
	s.lc.stored = time.Now()
	state := s.state
	s.mu.Unlock()
	if s.cfg.Key != "" {
		sv.mu.Lock()
		if sv.byKey[s.cfg.Key] == s {
			delete(sv.byKey, s.cfg.Key)
		}
		sv.mu.Unlock()
	}
	if sv.log.Enabled(context.Background(), slog.LevelInfo) {
		attrs := []slog.Attr{
			slog.String("session", s.cfg.ID),
			slog.String("request_id", s.origin),
			slog.String("state", state),
			slog.Uint64("sim_ns", r.SimNs),
			slog.Uint64("instret", r.Instret),
			slog.Uint64("violations", r.Violations),
			slog.Int64("wall_ns", r.WallNs),
		}
		if r.Error != "" {
			attrs = append(attrs, slog.String("error", r.Error))
		}
		if pe != nil {
			// The one place the panic's stack is kept; the API shows only
			// the message.
			attrs = append(attrs, slog.String("stack", string(pe.Stack)))
		}
		sv.log.LogAttrs(context.Background(), slog.LevelInfo, "session finished", attrs...)
	}
	for _, cb := range cbs {
		cb(r)
	}
	// The result is out by now, so a panic in Close can only be logged.
	if closeFn != nil {
		if pe := kernel.Contain("close", closeFn); pe != nil {
			sv.log.Error("session close panicked", "session", s.cfg.ID, "error", pe.Error(), "stack", string(pe.Stack))
		}
	}
}

// sessionInfo is the session JSON shape (the "data" payload of the v1
// session endpoints).
type sessionInfo struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Priority int    `json:"priority,omitempty"`
	Key      string `json:"key,omitempty"`
	SimNs    uint64 `json:"sim_time_ns"`
	Instret  uint64 `json:"instret"`
	Samples  uint64 `json:"samples"`
	Done     bool   `json:"done"`
	Exited   bool   `json:"exited"`
	ExitCode uint32 `json:"exit_code,omitempty"`
	Error    string `json:"error,omitempty"`
	// Fault is the guest-fault headline when the session died on a bus
	// error or unhandled trap.
	Fault *FaultDetail `json:"fault,omitempty"`
	// Forensics reports that a flight-recorder bundle was kept; fetch it on
	// GET /api/v1/sessions/{id}/forensics.
	Forensics bool `json:"forensics,omitempty"`
	// Timings is the session's wall-clock lifecycle (queue wait, run, store
	// publication); open spans are reported up to the request time.
	Timings *SessionTimings `json:"timings,omitempty"`
}

func (s *session) info() sessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := sessionInfo{
		ID:       s.cfg.ID,
		State:    s.state,
		Priority: s.cfg.Priority,
		Key:      s.cfg.Key,
		Done:     s.done,
		Timings:  s.lc.timings(time.Now()),
	}
	if s.finalized {
		info.SimNs = s.result.SimNs
		info.Instret = s.result.Instret
		info.Exited = s.result.Exited
		info.ExitCode = s.result.ExitCode
		info.Fault = s.result.Fault
		info.Forensics = s.result.Forensics
	} else {
		m := make(map[string]uint64, 64)
		s.cfg.Platform.MetricsSnapshotInto(m)
		exited, code := s.cfg.Platform.Exited()
		info.SimNs = uint64(s.cfg.Platform.Now())
		info.Instret = m["sim.instret"]
		info.Exited = exited
		info.ExitCode = code
	}
	if s.cfg.Sampler != nil {
		info.Samples = s.cfg.Sampler.Total()
	}
	if s.err != nil {
		info.Error = s.err.Error()
	}
	return info
}

// metrics returns the session's counter snapshot: live from the platform
// while it runs, the frozen finalize-time snapshot afterwards (the platform
// may have been released).
func (s *session) metrics() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]uint64, 64)
	if s.finalized {
		for k, v := range s.final {
			m[k] = v
		}
		return m
	}
	s.cfg.Platform.MetricsSnapshotInto(m)
	return m
}

// Handler returns the server's HTTP routes. Versioned API (all JSON bodies
// use the {"data":...} / {"error":{"code","message"}} envelope; streaming
// responses — SSE, JSONL, CSV — are raw):
//
//	GET    /healthz                              liveness + scheduler counters
//	GET    /readyz                               readiness: 503 while preloading or draining
//	GET    /metrics                              Prometheus text format, all sessions
//	GET    /api/v1/sessions                      session list
//	POST   /api/v1/sessions                      create a session from a SessionSpec
//	GET    /api/v1/sessions/{id}                 one session's state
//	DELETE /api/v1/sessions/{id}                 cancel and remove a session
//	GET    /api/v1/sessions/{id}/result          final result (409 until done)
//	GET    /api/v1/sessions/{id}/forensics       flight-recorder bundle (?format=report for text)
//	GET    /api/v1/sessions/{id}/timeseries      sampler ring (?format=jsonl|csv streams raw)
//	GET    /api/v1/sessions/{id}/events          SSE tail of the observer event ring
//	GET    /api/v1/campaigns                     campaign list
//	POST   /api/v1/campaigns                     run N policies x M workloads
//	GET    /api/v1/campaigns/{id}                campaign progress
//	DELETE /api/v1/campaigns/{id}                cancel a campaign's sessions
//	GET    /api/v1/campaigns/{id}/results        paginated cells (?offset,limit) or SSE (?stream=sse)
//	GET    /api/v1/results/{key}                 result-store lookup by content hash
//	GET    /api/v1/trace                         session lifecycles as a Chrome trace timeline
//
// Unknown v1 paths return an enveloped 404; known paths with a wrong method
// return an enveloped 405 with an Allow header.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range sv.routes() {
		// Route capture: inside the mux dispatch the cloned request carries
		// http.Request.Pattern, which the wrapper stashes on the pooled
		// statusWriter so the instrument middleware can book the request
		// under its route without re-matching (a wildcard match would
		// allocate). The type assertion on a concrete pointer is free.
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			if sw, ok := w.(*statusWriter); ok {
				sw.pattern = r.Pattern
			}
			rt.handler(w, r)
		})
	}
	// Observability middleware: withRequestID (outer) mints/propagates the
	// request ID — the only per-request allocation the server adds — and
	// instrument (inner) does timing, status capture, RED counters and the
	// request log without allocating.
	return sv.withRequestID(sv.instrument(mux))
}

// route is one registered mux pattern and its handler.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes is the route table: Handler registers exactly these patterns, and
// their method-stripped forms (plus routeOther) are the label universe of
// the per-route RED metrics. The v1 patterns carry no method so the
// handlers can answer wrong-method requests with an enveloped 405 + Allow.
func (sv *Server) routes() []route {
	return []route{
		{"GET /healthz", sv.handleHealthz},
		{"GET /readyz", sv.handleReadyz},
		{"GET /metrics", sv.handleMetrics},
		{"/api/v1/sessions", sv.v1Sessions},
		{"/api/v1/sessions/{id}", sv.v1Session},
		{"/api/v1/sessions/{id}/result", sv.v1SessionResult},
		{"/api/v1/sessions/{id}/forensics", sv.v1Forensics},
		{"/api/v1/sessions/{id}/timeseries", sv.v1Timeseries},
		{"/api/v1/sessions/{id}/events", sv.v1Events},
		{"/api/v1/campaigns", sv.v1Campaigns},
		{"/api/v1/campaigns/{id}", sv.v1Campaign},
		{"/api/v1/campaigns/{id}/results", sv.v1CampaignResults},
		{"/api/v1/campaigns/{id}/coverage", sv.v1CampaignCoverage},
		{"/api/v1/campaigns/{id}/coverage/diff", sv.v1CampaignCoverageDiff},
		{"/api/v1/results/{key}", sv.v1StoredResult},
		{"/api/v1/trace", sv.handleTrace},
		{"/api/v1/", sv.v1NotFound}, // the enveloped 404 catch-all
	}
}

// v1NotFound answers v1 paths no route matched with an enveloped 404.
func (sv *Server) v1NotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "not_found", "no such v1 route: "+r.URL.Path)
}

// handleReadyz answers readiness probes. Liveness (/healthz) stays 200 for
// the whole process lifetime; readiness goes 503 before vp-serve finishes
// preloading and again once drain/shutdown begins, so load balancers stop
// routing new submissions while in-flight work finishes.
func (sv *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case sv.pool.stopped():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "{\"status\":\"draining\"}\n")
	case !sv.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "{\"status\":\"starting\"}\n")
	default:
		fmt.Fprint(w, "{\"status\":\"ready\"}\n")
	}
}

func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	sv.mu.Lock()
	n := len(sv.sessions)
	sv.mu.Unlock()
	st := sv.Stats()
	fmt.Fprintf(w, "{\"status\":\"ok\",\"sessions\":%d,\"queued\":%d,\"running\":%d,\"workers\":%d,\"completed\":%d,\"cache_hits\":%d,\"rejected_full\":%d}\n",
		n, st.Queued, st.Running, st.Workers, st.Completed, st.CacheHits, st.RejectedFull)
}

func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sets := make([]MetricSet, 0, 4)
	for _, s := range sv.all() {
		sets = append(sets, MetricSet{
			Labels:  map[string]string{"session": s.cfg.ID},
			Metrics: s.metrics(),
		})
	}
	st := sv.Stats()
	draining := sv.pool.stopped()
	serve := map[string]uint64{
		"serve.queued":              uint64(st.Queued),
		"serve.running":             uint64(st.Running),
		"serve.workers":             uint64(st.Workers),
		"serve.stored_results":      uint64(st.StoredResults),
		"serve.submitted_total":     st.Submitted,
		"serve.completed_total":     st.Completed,
		"serve.canceled_total":      st.Canceled,
		"serve.timeout_total":       st.TimedOut,
		"serve.panics_total":        st.Panics,
		"serve.cache_hits_total":    st.CacheHits,
		"serve.cache_misses_total":  st.CacheMisses,
		"serve.forced_total":        st.Forced,
		"serve.coalesced_total":     st.Coalesced,
		"serve.rejected_full_total": st.RejectedFull,
		"serve.draining":            0,
		"serve.ready":               0,
	}
	if draining {
		serve["serve.draining"] = 1
	}
	if sv.ready.Load() && !draining {
		serve["serve.ready"] = 1
	}
	// Stores that track load failures (FileStore) surface them here; the
	// MemStore cannot fail a load and emits no such series.
	if le, ok := sv.opts.store.(interface{ LoadErrors() uint64 }); ok {
		serve["serve.store_load_errors_total"] = le.LoadErrors()
	}
	sets = append(sets, MetricSet{Metrics: serve})
	sets = append(sets, sv.campaignRollupSets()...)
	sets = append(sets, sv.metrics.requestSets()...)
	sets = append(sets, MetricSet{
		Labels: map[string]string{
			"version":   Version,
			"goversion": runtime.Version(),
			"platform":  runtime.GOOS + "/" + runtime.GOARCH,
		},
		Metrics: map[string]uint64{"build_info": 1},
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheusSets(w, sets)
	WriteHistogramFamilies(w, sv.metrics.histogramFamilies())
}

func (sv *Server) sessionInfos() []sessionInfo {
	infos := make([]sessionInfo, 0, 4)
	for _, s := range sv.all() {
		infos = append(infos, s.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// streamEvents tails the observer's provenance ring as server-sent events:
// each taint event newer than the last delivered sequence number becomes one
// `data:` frame of the event's JSON. The handler polls the ring — the
// simulation cannot push without perturbing determinism.
func (sv *Server) streamEvents(w http.ResponseWriter, r *http.Request, s *session) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var lastSeq uint64
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.mu.Lock()
		events := s.cfg.Platform.Observer().Events()
		done := s.done
		s.mu.Unlock()
		for _, ev := range events {
			if ev.Seq <= lastSeq {
				continue
			}
			lastSeq = ev.Seq
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, b)
		}
		fl.Flush()
		if done {
			fmt.Fprint(w, "event: done\ndata: {}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case <-ticker.C:
		}
	}
}
