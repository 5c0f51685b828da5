package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vpdift/internal/kernel"
)

// fakeCounters simulates a platform snapshot source: instret grows 1000 per
// simulated microsecond, taint events at a tenth of that.
type fakeCounters struct {
	instret uint64
	events  uint64
	hits    uint64
	misses  uint64
	bus     struct{ read, write uint64 }
	viol    uint64
}

func (f *fakeCounters) snapshot(dst map[string]uint64) {
	dst["sim.instret"] = f.instret
	dst["obs.events"] = f.events
	dst["sim.decode_cache_hits"] = f.hits
	dst["sim.decode_cache_misses"] = f.misses
	dst["bus.read_bytes"] = f.bus.read
	dst["bus.write_bytes"] = f.bus.write
	dst["violations.output-clearance"] = f.viol
}

func TestSamplerDaemonCapture(t *testing.T) {
	sim := kernel.New()
	defer sim.Shutdown()
	var fc fakeCounters
	ticks := 0
	sim.Spawn("workload", func(p *kernel.Process) {
		if ticks > 0 {
			fc.instret += 1000
			fc.events += 100
			fc.hits += 990
			fc.misses += 10
			fc.bus.read += 64
		}
		if ticks++; ticks <= 100 {
			p.WakeAfter(1000) // 1µs
		}
	})
	s := NewSampler(Options{Every: 10_000}) // 10µs cadence
	s.Start(sim, fc.snapshot)
	if err := sim.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	// Workload spans 100µs; sampler ticks at 10, 20, ... 90µs while the
	// workload is live (the 100µs tick races the worker's last event in the
	// heap order, so only the nine interior ticks are guaranteed).
	if s.Total() < 9 {
		t.Fatalf("Total() = %d, want >= 9", s.Total())
	}
	samples := s.Samples()
	var prev kernel.Time
	for i, sm := range samples {
		if sm.Time <= prev && i > 0 {
			t.Fatalf("sample %d: time %d not strictly increasing after %d", i, sm.Time, prev)
		}
		prev = sm.Time
		if sm.Metrics["sim.instret"] == 0 {
			t.Fatalf("sample %d: empty metrics", i)
		}
	}
	// 1000 instrs per µs = 1000 MIPS; every interval after the first has a
	// full delta.
	d := samples[3].Derived
	if d.MIPS < 999 || d.MIPS > 1001 {
		t.Errorf("MIPS = %v, want ~1000", d.MIPS)
	}
	if d.TaintEventRate < 0.99e8 || d.TaintEventRate > 1.01e8 {
		t.Errorf("TaintEventRate = %v, want ~1e8", d.TaintEventRate)
	}
	if d.DecodeCacheHitRatio < 0.98 || d.DecodeCacheHitRatio > 1 {
		t.Errorf("DecodeCacheHitRatio = %v, want ~0.99", d.DecodeCacheHitRatio)
	}
	if d.BusBytesPerSec == 0 {
		t.Error("BusBytesPerSec = 0, want > 0")
	}
}

func TestSamplerRingBounded(t *testing.T) {
	s := NewSampler(Options{Every: 1, RingCapacity: 4})
	var fc fakeCounters
	for i := 1; i <= 10; i++ {
		fc.instret = uint64(i)
		s.TakeSample(kernel.Time(i), fc.snapshot)
	}
	if s.Total() != 10 {
		t.Fatalf("Total() = %d, want 10", s.Total())
	}
	samples := s.Samples()
	if len(samples) != 4 {
		t.Fatalf("len(Samples()) = %d, want ring capacity 4", len(samples))
	}
	for i, sm := range samples {
		if want := uint64(7 + i); sm.Seq != want {
			t.Errorf("sample %d: Seq = %d, want %d (oldest-first tail)", i, sm.Seq, want)
		}
	}
	last, ok := s.Last()
	if !ok || last.Seq != 10 || last.Metrics["sim.instret"] != 10 {
		t.Errorf("Last() = %+v, %v", last, ok)
	}
}

func TestSamplerViolationsCumulative(t *testing.T) {
	s := NewSampler(Options{})
	var fc fakeCounters
	fc.viol = 3
	s.TakeSample(1000, fc.snapshot)
	last, _ := s.Last()
	if last.Derived.Violations != 3 {
		t.Errorf("Violations = %d, want 3", last.Derived.Violations)
	}
}

// Steady-state sampling must not allocate: the ring slot's map is reused and
// the derived-rate math is plain arithmetic. One lap of the ring warms every
// slot; after that, zero.
func TestSamplerTakeSampleZeroAlloc(t *testing.T) {
	s := NewSampler(Options{RingCapacity: 8})
	var fc fakeCounters
	now := kernel.Time(0)
	for i := 0; i < 8; i++ { // warm the full ring
		now += 1000
		s.TakeSample(now, fc.snapshot)
	}
	allocs := testing.AllocsPerRun(100, func() {
		now += 1000
		fc.instret += 500
		s.TakeSample(now, fc.snapshot)
	})
	if allocs != 0 {
		t.Errorf("TakeSample allocates %.1f per call, want 0", allocs)
	}
}

func TestWriteJSONL(t *testing.T) {
	s := NewSampler(Options{})
	var fc fakeCounters
	for i := 1; i <= 3; i++ {
		fc.instret = uint64(i * 100)
		s.TakeSample(kernel.Time(i*1000), fc.snapshot)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var prevT uint64
	for i, line := range lines {
		var sm struct {
			Seq     uint64            `json:"seq"`
			T       uint64            `json:"t_ns"`
			Metrics map[string]uint64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &sm); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if sm.T <= prevT {
			t.Fatalf("line %d: t_ns %d not increasing", i, sm.T)
		}
		prevT = sm.T
		if sm.Metrics["sim.instret"] != uint64((i+1)*100) {
			t.Errorf("line %d: instret = %d", i, sm.Metrics["sim.instret"])
		}
	}
}

func TestWriteCSV(t *testing.T) {
	s := NewSampler(Options{})
	var fc fakeCounters
	fc.instret = 42
	s.TakeSample(1000, fc.snapshot)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "seq,t_ns,wall_ns,instret,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,1000,") {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.Contains(lines[1], ",42,") {
		t.Errorf("row missing instret 42: %q", lines[1])
	}
}
