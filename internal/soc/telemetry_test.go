package soc_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/trace"
)

// spinSrc busy-loops forever; the platform is driven by a finite horizon.
const spinSrc = `
main:
1:	addi t0, t0, 1
	j 1b
`

func TestTelemetrySamplerOnPlatform(t *testing.T) {
	img, err := guest.Program(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	l := core.IFP1()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLC)).
		WithOutput("uart0.tx", l.MustTag(core.ClassLC))
	smp := telemetry.NewSampler(telemetry.Options{Every: kernel.MS})
	o := obs.New()
	pl, err := soc.New(soc.Config{Policy: pol, Obs: o, Telemetry: smp})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if pl.Telemetry() != smp {
		t.Fatal("Telemetry() accessor lost the sampler")
	}
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(12 * kernel.MS); err != nil {
		t.Fatal(err)
	}
	if pl.Now() != 12*kernel.MS {
		t.Fatalf("Now() = %v", pl.Now())
	}
	samples := smp.Samples()
	if len(samples) < 10 {
		t.Fatalf("got %d samples over 12ms at 1ms cadence, want >= 10", len(samples))
	}
	var prevT kernel.Time
	var prevI uint64
	for i, sm := range samples {
		if sm.Time <= prevT && i > 0 {
			t.Fatalf("sample %d: time %d not strictly increasing", i, sm.Time)
		}
		prevT = sm.Time
		ir := sm.Metrics["sim.instret"]
		if ir <= prevI {
			t.Fatalf("sample %d: sim.instret %d not monotone after %d", i, ir, prevI)
		}
		prevI = ir
	}
	// A 100 MHz single-issue busy loop retires ~100 M instructions per
	// simulated second.
	if mips := samples[len(samples)-1].Derived.MIPS; mips < 50 || mips > 200 {
		t.Errorf("MIPS = %v, want ~100", mips)
	}
	// A real platform's sampled snapshot exports as valid exposition.
	var prom bytes.Buffer
	if err := telemetry.WritePrometheus(&prom, samples[len(samples)-1].Metrics); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(prom.String()); err != nil {
		t.Errorf("sampled snapshot's exposition is invalid: %v", err)
	}
}

// Each key of the snapshot has one source: the observer's counters pass
// through as the observer holds them, and the platform's and the cover
// layer's gauges come from their own state, never from the observer.
func TestMetricsSnapshotPrecedence(t *testing.T) {
	img, err := guest.Program(coverSrc)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	cv := cover.New()
	pl, err := soc.New(soc.Config{Obs: o, Cover: cv})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	own := map[string]uint64{}
	o.MetricsSnapshotInto(own)
	m := pl.MetricsSnapshot()
	for k, v := range own {
		if m[k] != v {
			t.Errorf("%s = %d, want the observer's %d", k, m[k], v)
		}
	}
	for _, k := range []string{"sim.instret", "sim.time_ns", "cover.guest_blocks", "lub_ops", "checks.fetch"} {
		if _, ok := own[k]; ok {
			t.Errorf("the observer writes %s, which the platform owns", k)
		}
	}
	if m["sim.instret"] != pl.Instret() {
		t.Errorf("sim.instret = %d, want the platform's %d", m["sim.instret"], pl.Instret())
	}
	if m["sim.time_ns"] != uint64(pl.Now()) {
		t.Errorf("sim.time_ns = %d, want %d", m["sim.time_ns"], uint64(pl.Now()))
	}
	if want := uint64(cv.Guest.Stats().Blocks); m["cover.guest_blocks"] != want {
		t.Errorf("cover.guest_blocks = %d, want the cover view's %d", m["cover.guest_blocks"], want)
	}
}

// Every metric name the full-featured platform emits must round-trip
// unchanged through the JSON exporter and become a legal Prometheus name —
// the two export formats must agree on what a metric is called.
func TestMetricsNamesRoundTrip(t *testing.T) {
	img, err := guest.Program(coverSrc)
	if err != nil {
		t.Fatal(err)
	}
	l := core.IFP1()
	hi := l.MustTag(core.ClassHC)
	pol := core.NewPolicy(l, l.MustTag(core.ClassLC)).
		WithOutput("uart0.tx", l.MustTag(core.ClassLC)).
		WithRegion(core.RegionRule{
			Name: "image", Start: img.Base, End: img.End(),
			Classify: true, Class: hi,
		})
	o := obs.New()
	cv := cover.New()
	tr := &trace.Trace{Kernel: trace.NewKernelTrace(0)}
	pl, err := soc.New(soc.Config{Policy: pol, Obs: o, Cover: cv, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	m := pl.MetricsSnapshot()
	if len(m) < 20 {
		t.Fatalf("suspiciously small snapshot: %d keys", len(m))
	}

	// JSON round-trip: names verbatim, values intact.
	var buf bytes.Buffer
	if err := obs.WriteMetricsJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	var back map[string]uint64
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(m) {
		t.Fatalf("JSON round-trip lost keys: %d != %d", len(back), len(m))
	}
	for k, v := range m {
		if back[k] != v {
			t.Errorf("JSON round-trip: %s = %d, want %d", k, back[k], v)
		}
	}

	// Prometheus: every name sanitizes legally and the exposition validates.
	buf.Reset()
	if err := telemetry.WritePrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(buf.String()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}
}

// The sampler's per-tick path — MetricsSnapshotInto on a platform with
// every observability layer attached — must not allocate once the
// destination map has seen the key set.
func TestMetricsSnapshotIntoZeroAlloc(t *testing.T) {
	img, err := guest.Program(coverSrc)
	if err != nil {
		t.Fatal(err)
	}
	l := core.IFP1()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLC)).
		WithOutput("uart0.tx", l.MustTag(core.ClassLC)).
		WithOutput("can0.tx", l.MustTag(core.ClassLC))
	o := obs.New()
	cv := cover.New()
	pl, err := soc.New(soc.Config{Policy: pol, Obs: o, Cover: cv})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	dst := make(map[string]uint64, 64)
	pl.MetricsSnapshotInto(dst) // warm the key set
	allocs := testing.AllocsPerRun(100, func() {
		pl.MetricsSnapshotInto(dst)
	})
	if allocs != 0 {
		t.Errorf("MetricsSnapshotInto allocates %.1f per call, want 0", allocs)
	}

	// The allocation-free dead-rule count agrees with the rendered list.
	if got, want := cv.Audit.DeadRuleCount(), len(cv.Audit.DeadRules()); got != want {
		t.Errorf("DeadRuleCount = %d, len(DeadRules) = %d", got, want)
	}
}
