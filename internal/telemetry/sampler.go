// Package telemetry turns a running virtual prototype into a live data
// source: a kernel-resident sampler snapshots the platform's metrics on a
// fixed simulated-time cadence into a bounded ring, exporters render the
// ring as JSONL, CSV, or Prometheus text format, and Server exposes one or
// more simulation sessions over HTTP.
//
// The package follows the same disabled-by-default contract as obs, trace,
// and cover: a platform built without a sampler pays nothing — no goroutine,
// no per-instruction branch, no allocation. The sampler itself rides on a
// kernel daemon process (kernel.SpawnDaemon), so it never keeps an unbounded
// Run alive and never perturbs the deterministic event order of the
// simulation proper: it only reads counters at quiescent points between
// scheduled work.
//
// telemetry deliberately does not import internal/soc — soc imports
// telemetry for its Config — so everything here operates on plain counter
// maps and the small Platform interface in server.go, which *soc.Platform
// satisfies.
package telemetry

import (
	"strings"
	"sync"
	"time"

	"vpdift/internal/kernel"
)

// Default sampling cadence and ring size.
const (
	DefaultEvery        = kernel.Time(1_000_000) // 1ms of simulated time
	DefaultRingCapacity = 4096
)

// Options configures a Sampler.
type Options struct {
	// Every is the sampling period in simulated nanoseconds.
	// Defaults to DefaultEvery (1ms).
	Every kernel.Time
	// RingCapacity bounds how many samples are retained; older samples are
	// overwritten. Defaults to DefaultRingCapacity.
	RingCapacity int
}

// Derived holds the rates computed from the delta between two consecutive
// samples. Rates are per simulated second — a paused or slow host does not
// distort them.
type Derived struct {
	// MIPS is millions of retired instructions per simulated second.
	MIPS float64 `json:"mips"`
	// TaintEventRate is provenance events recorded per simulated second
	// (0 when no observer is attached).
	TaintEventRate float64 `json:"taint_events_per_s"`
	// Violations is the cumulative count of policy violations across every
	// violations.* counter.
	Violations uint64 `json:"violations"`
	// DecodeCacheHitRatio is hits/(hits+misses) over the sample interval,
	// 0 when no instruction was fetched during it.
	DecodeCacheHitRatio float64 `json:"decode_cache_hit_ratio"`
	// BusBytesPerSec is TLM bus payload traffic (read + write) per
	// simulated second.
	BusBytesPerSec float64 `json:"bus_bytes_per_s"`
}

// Sample is one timestamped snapshot of the platform's metrics.
type Sample struct {
	// Seq numbers samples from 1 in capture order.
	Seq uint64 `json:"seq"`
	// Time is the simulated timestamp in nanoseconds.
	Time kernel.Time `json:"t_ns"`
	// Wall is host wall-clock time elapsed since Start.
	Wall time.Duration `json:"wall_ns"`
	// Derived holds the interval rates.
	Derived Derived `json:"derived"`
	// Metrics is the full counter snapshot. The map is owned by the
	// sampler's ring and reused; callers outside the sampler's lock must
	// copy it (Samples does).
	Metrics map[string]uint64 `json:"metrics"`
}

// Sampler captures periodic metric snapshots into a bounded ring. All
// methods are safe for concurrent use; the simulation side only ever calls
// TakeSample (via the daemon process), readers use Samples, Last, Total, or
// the Write* exporters.
type Sampler struct {
	opts Options

	mu      sync.Mutex
	ring    []Sample
	total   uint64 // samples ever taken; ring index = (seq-1) % cap
	started time.Time
	haveT0  bool

	// Previous cumulative values for interval rates.
	prevTime    kernel.Time
	prevInstret uint64
	prevEvents  uint64
	prevHits    uint64
	prevMisses  uint64
	prevBus     uint64
}

// NewSampler creates a sampler; zero-value options pick the defaults.
func NewSampler(opts Options) *Sampler {
	if opts.Every == 0 {
		opts.Every = DefaultEvery
	}
	if opts.RingCapacity <= 0 {
		opts.RingCapacity = DefaultRingCapacity
	}
	return &Sampler{opts: opts, ring: make([]Sample, opts.RingCapacity)}
}

// Options returns the sampler's effective configuration.
func (s *Sampler) Options() Options { return s.opts }

// Start spawns the sampling daemon on sim. snapshot must fill dst with the
// platform's current counters (soc.Platform.MetricsSnapshotInto); it runs at
// quiescent simulation points, so it may read simulation state freely. The
// daemon never keeps an unbounded Run alive — see kernel.SpawnDaemon.
func (s *Sampler) Start(sim *kernel.Simulator, snapshot func(dst map[string]uint64)) {
	s.mu.Lock()
	if !s.haveT0 {
		s.started = time.Now()
		s.haveT0 = true
	}
	s.mu.Unlock()
	every := s.opts.Every
	started := false
	sim.SpawnDaemon("telemetry", func(p *kernel.Process) {
		if started {
			s.takeSample(p.Now(), snapshot)
		}
		started = true
		p.WakeAfter(every)
	})
}

// TakeSample captures one snapshot immediately — the manual variant for
// callers that drive the simulation themselves and want a final sample at an
// exact point (e.g. end of run).
func (s *Sampler) TakeSample(now kernel.Time, snapshot func(dst map[string]uint64)) {
	s.takeSample(now, snapshot)
}

func (s *Sampler) takeSample(now kernel.Time, snapshot func(dst map[string]uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveT0 {
		s.started = time.Now()
		s.haveT0 = true
	}
	s.total++
	sm := &s.ring[int((s.total-1)%uint64(len(s.ring)))]
	sm.Seq = s.total
	sm.Time = now
	sm.Wall = time.Since(s.started)
	// Reuse the slot's map: after the ring's first lap every sample is
	// allocation-free (clear + refill of an already-sized map).
	if sm.Metrics == nil {
		sm.Metrics = make(map[string]uint64, 64)
	} else {
		clear(sm.Metrics)
	}
	snapshot(sm.Metrics)
	sm.Derived = s.derive(sm)
}

// derive computes interval rates against the previous sample and rolls the
// cumulative baselines forward. Called with s.mu held.
func (s *Sampler) derive(sm *Sample) Derived {
	m := sm.Metrics
	instret := m["sim.instret"]
	events := m["obs.events"]
	hits := m["sim.decode_cache_hits"]
	misses := m["sim.decode_cache_misses"]
	bus := m["bus.read_bytes"] + m["bus.write_bytes"]
	var violations uint64
	for k, n := range m {
		if strings.HasPrefix(k, "violations.") {
			violations += n
		}
	}

	var d Derived
	d.Violations = violations
	dt := float64(sm.Time - s.prevTime) // simulated ns since previous sample
	if dt > 0 {
		perSec := 1e9 / dt
		d.MIPS = float64(instret-s.prevInstret) * perSec / 1e6
		d.TaintEventRate = float64(events-s.prevEvents) * perSec
		d.BusBytesPerSec = float64(bus-s.prevBus) * perSec
	}
	if dh, dm := hits-s.prevHits, misses-s.prevMisses; dh+dm > 0 {
		d.DecodeCacheHitRatio = float64(dh) / float64(dh+dm)
	}

	s.prevTime = sm.Time
	s.prevInstret = instret
	s.prevEvents = events
	s.prevHits = hits
	s.prevMisses = misses
	s.prevBus = bus
	return d
}

// Total returns how many samples have ever been taken (the ring may retain
// fewer).
func (s *Sampler) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Last returns the most recent sample with a copied metrics map, or false
// when none has been taken.
func (s *Sampler) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total == 0 {
		return Sample{}, false
	}
	return copySample(s.ring[int((s.total-1)%uint64(len(s.ring)))]), true
}

// Samples returns the retained samples oldest-first. Metric maps are copied,
// so the result is safe to hold while sampling continues.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.retained())
	s.each(func(sm *Sample) { out = append(out, copySample(*sm)) })
	return out
}

// retained and each iterate the ring oldest-first. Called with s.mu held.
func (s *Sampler) retained() int {
	if s.total < uint64(len(s.ring)) {
		return int(s.total)
	}
	return len(s.ring)
}

func (s *Sampler) each(fn func(*Sample)) {
	n := s.retained()
	for i := 0; i < n; i++ {
		seq := s.total - uint64(n) + uint64(i) + 1
		fn(&s.ring[int((seq-1)%uint64(len(s.ring)))])
	}
}

func copySample(sm Sample) Sample {
	cp := sm
	cp.Metrics = make(map[string]uint64, len(sm.Metrics))
	for k, v := range sm.Metrics {
		cp.Metrics[k] = v
	}
	return cp
}
