package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"vpdift/internal/core"
	"vpdift/internal/tlm"
)

const secret core.Tag = 1 // any non-default tag

// leakChain drives the hooks through a minimal classified-load -> op ->
// store -> failed-check sequence and returns the observer and violation.
func leakChain(o *Observer) *core.Violation {
	o.PinClassify("secret", 0x100, 0x104, secret)
	o.BeginInsn(0x8000, 0x00052283) // lw t0, 0(a0)
	o.OnLoad(0x100, 4, core.W(0xAB, secret))
	o.AssignReg(5)
	o.BeginInsn(0x8004, 0x00628333) // add t1, t0, t2
	o.OnOp(5, 7, 0xAB, secret)
	o.AssignReg(6)
	o.BeginInsn(0x8008, 0x00632023) // sw t1, 0(t1)
	o.OnStore(0x4000_1000, 4, 6, core.W(0xAB, secret))
	v := &core.Violation{Kind: core.KindOutputClearance, Have: secret, Port: "uart0.tx"}
	o.OnViolation(v, o.LastStore(), 0)
	return v
}

func TestChainReconstruction(t *testing.T) {
	o := New()
	v := leakChain(o)
	want := []core.TaintEventKind{
		core.EvClassify, core.EvLoad, core.EvOp, core.EvStore, core.EvCheck,
	}
	if len(v.Provenance) != len(want) {
		t.Fatalf("chain has %d events, want %d: %v", len(v.Provenance), len(want), v.Provenance)
	}
	for i, ev := range v.Provenance {
		if ev.Kind != want[i] {
			t.Errorf("chain[%d] = %v, want %v", i, ev.Kind, want[i])
		}
		if i > 0 && ev.Seq <= v.Provenance[i-1].Seq {
			t.Errorf("chain not in sequence order at %d", i)
		}
	}
}

func TestChainFollowsPrev2(t *testing.T) {
	// An op combining two tracked sources must pull both lineages in.
	o := New()
	o.PinClassify("a", 0x100, 0x104, secret)
	o.PinClassify("b", 0x200, 0x204, secret)
	o.BeginInsn(0x8000, 1)
	o.OnLoad(0x100, 4, core.W(1, secret))
	o.AssignReg(5)
	o.BeginInsn(0x8004, 2)
	o.OnLoad(0x200, 4, core.W(2, secret))
	o.AssignReg(6)
	o.BeginInsn(0x8008, 3)
	o.OnOp(5, 6, 3, secret)
	o.AssignReg(7)
	v := &core.Violation{Kind: core.KindBranchClearance, Have: secret}
	o.OnViolation(v, o.RegSource(7), 0)
	roots := 0
	for _, ev := range v.Provenance {
		if ev.Kind == core.EvClassify {
			roots++
		}
	}
	if roots != 2 {
		t.Errorf("chain reaches %d classification roots, want both; chain: %v", roots, v.Provenance)
	}
}

func TestUntrackedFlowsRecordNothing(t *testing.T) {
	// Default-class data with no tracked sources must not grow the ring.
	o := New()
	o.BeginInsn(0x8000, 1)
	o.OnLoad(0x100, 4, core.W(7, 0))
	o.AssignReg(5)
	o.OnOp(5, RegNone, 7, 0)
	o.AssignReg(6)
	o.OnStore(0x200, 4, 6, core.W(7, 0))
	o.OnJump(0x8000, 1, 0)
	if o.EventCount() != 0 {
		t.Errorf("untracked flows recorded %d events, want 0", o.EventCount())
	}
}

func TestStoreSeversOldChain(t *testing.T) {
	// Overwriting a tracked word with untracked data must clear its source.
	o := New()
	o.PinClassify("secret", 0x100, 0x104, secret)
	if o.MemSource(0x100) == 0 {
		t.Fatal("classified word has no source")
	}
	o.OnStore(0x100, 4, 9, core.W(0, 0))
	if o.MemSource(0x100) != 0 {
		t.Error("untracked store must sever the word's provenance")
	}
}

func TestRingEviction(t *testing.T) {
	o := NewWithOptions(Options{RingCapacity: 4, MaxChain: 16})
	o.PinClassify("secret", 0x100, 0x104, secret)
	// Push enough tracked stores through the 4-slot ring to evict the early
	// links of the final chain.
	o.BeginInsn(0x8000, 1)
	o.OnLoad(0x100, 4, core.W(1, secret))
	o.AssignReg(5)
	for i := 0; i < 10; i++ {
		o.OnStore(0x200+uint32(8*i), 4, 5, core.W(1, secret))
	}
	if o.Evicted() == 0 {
		t.Fatal("10 events through a 4-slot ring must evict")
	}
	v := &core.Violation{Kind: core.KindOutputClearance, Have: secret, Port: "uart0.tx"}
	o.OnViolation(v, o.LastStore(), 0)
	// The load (and hence the pinned root's link) was evicted: the chain
	// terminates at the evicted link but still ends with the check.
	if len(v.Provenance) == 0 {
		t.Fatal("chain empty after eviction")
	}
	if last := v.Provenance[len(v.Provenance)-1]; last.Kind != core.EvCheck {
		t.Errorf("chain ends with %v, want the check", last.Kind)
	}
	for _, ev := range v.Provenance {
		if ev.Kind == core.EvLoad {
			t.Error("evicted load must not appear in the chain")
		}
	}
	// Events() must never return stale evicted entries or zero-Seq holes.
	evs := o.Events()
	if len(evs) > 4+len(o.pinned) {
		t.Errorf("Events returned %d entries from a 4-slot ring", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq == 0 {
			t.Errorf("Events()[%d] is a hole", i)
		}
	}
}

// TestRingGrowthDoubles bounds what filling the ring allocates: the slice
// doubles up to its capacity, so the copies left behind add up to less than
// one more ring, and it ends at exactly the capacity.
func TestRingGrowthDoubles(t *testing.T) {
	o := New()
	sink := o.BusSink("dev")
	tr := tlm.Transaction{Cmd: tlm.Read, Data: []core.TByte{{V: 1}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < DefaultRingCapacity; i++ {
		sink(tr)
	}
	runtime.ReadMemStats(&after)
	if len(o.ring) != DefaultRingCapacity || cap(o.ring) != DefaultRingCapacity {
		t.Errorf("ring len %d cap %d after %d events, want both %d", len(o.ring), cap(o.ring),
			DefaultRingCapacity, DefaultRingCapacity)
	}
	ring := uint64(DefaultRingCapacity) * uint64(unsafe.Sizeof(core.TaintEvent{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*ring {
		t.Errorf("filling the ring allocated %.1f MiB, want at most %.1f (twice the ring)",
			float64(got)/(1<<20), float64(2*ring)/(1<<20))
	}
}

func TestPinnedRootsSurviveEviction(t *testing.T) {
	o := NewWithOptions(Options{RingCapacity: 2, MaxChain: 16})
	o.PinClassify("secret", 0x100, 0x104, secret)
	for i := 0; i < 50; i++ {
		o.BeginInsn(0x8000, 1)
		o.OnLoad(0x100, 4, core.W(1, secret)) // Prev = pinned root every time
		o.AssignReg(5)
	}
	v := &core.Violation{Kind: core.KindOutputClearance, Have: secret}
	o.OnViolation(v, o.RegSource(5), 0)
	if first := v.Provenance[0]; first.Kind != core.EvClassify || first.Port != "secret" {
		t.Errorf("chain root = %+v, want the pinned classification", first)
	}
}

func TestMaxChainBound(t *testing.T) {
	o := NewWithOptions(Options{MaxChain: 3})
	v := leakChain(o)
	if len(v.Provenance) > 3 {
		t.Errorf("chain has %d events, MaxChain is 3", len(v.Provenance))
	}
	// The terminal check must survive the bound (it is pushed first).
	found := false
	for _, ev := range v.Provenance {
		if ev.Kind == core.EvCheck {
			found = true
		}
	}
	if !found {
		t.Error("bounded chain lost its terminal check event")
	}
}

func TestWriteJSONL(t *testing.T) {
	o := New()
	leakChain(o)
	var buf bytes.Buffer
	if err := o.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != int(o.EventCount()) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), o.EventCount())
	}
	var prev uint64
	for _, line := range lines {
		var ev struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Seq <= prev {
			t.Errorf("JSONL out of order at seq %d", ev.Seq)
		}
		if ev.Kind == "" {
			t.Errorf("event %d has no kind name", ev.Seq)
		}
		prev = ev.Seq
	}
}

func TestWriteChromeTrace(t *testing.T) {
	o := New()
	leakChain(o)
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) != int(o.EventCount()) {
		t.Fatalf("trace has %d events, want %d", len(events), o.EventCount())
	}
	for _, ev := range events {
		if ev["ph"] != "i" {
			t.Errorf("event phase %v, want instant", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event has no numeric ts: %v", ev)
		}
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	o := New()
	leakChain(o)
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, o.MetricsSnapshot()); err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["obs.events"] != o.EventCount() {
		t.Errorf("obs.events = %d, want %d", m["obs.events"], o.EventCount())
	}
	if m["checks.output"] == 0 {
		// leakChain raises an output violation via OnViolation, which does
		// not itself bump Checks (the call sites do) — but the violation
		// count must be there.
		t.Logf("checks.output not counted by OnViolation (by design)")
	}
	if m["violations.output-clearance"] != 1 {
		t.Errorf("violations.output-clearance = %d, want 1", m["violations.output-clearance"])
	}
}

func TestWriteMetricsJSONDeterministic(t *testing.T) {
	// The export must be byte-identical across snapshots of the same state:
	// archived metrics files are diffed, so map-iteration order
	// must never leak into the output.
	m := NewMetrics()
	for _, name := range []string{"z.last", "a.first", "m.middle", "core.instret", "cover.edges"} {
		m.Add(name, 7)
	}
	var first, second bytes.Buffer
	if err := WriteMetricsJSON(&first, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsJSON(&second, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("two snapshots of the same state render differently:\n%s\nvs\n%s",
			first.String(), second.String())
	}
	// Keys must appear in sorted order, not insertion order.
	idx := func(sub string) int { return bytes.Index(first.Bytes(), []byte(sub)) }
	if !(idx("a.first") < idx("cover.edges") && idx("cover.edges") < idx("m.middle") &&
		idx("m.middle") < idx("z.last")) {
		t.Errorf("keys are not sorted:\n%s", first.String())
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("x")
	*c += 41
	m.Add("x", 1)
	if got := m.Get("x"); got != 42 {
		t.Errorf("x = %d", got)
	}
	if got := m.Get("missing"); got != 0 {
		t.Errorf("missing = %d", got)
	}
	snap := m.Snapshot()
	if snap["x"] != 42 {
		t.Errorf("snapshot x = %d", snap["x"])
	}
}

func TestFormatEvents(t *testing.T) {
	o := New()
	v := leakChain(o)
	s := FormatEvents(v.Provenance, nil, func(ev core.TaintEvent) string {
		if ev.Kind == core.EvCheck {
			return "HERE"
		}
		return ""
	})
	if !strings.Contains(s, "classify") || !strings.Contains(s, "HERE") {
		t.Errorf("formatted events:\n%s", s)
	}
	if got := len(strings.Split(strings.TrimSpace(s), "\n")); got != len(v.Provenance) {
		t.Errorf("%d lines for %d events", got, len(v.Provenance))
	}
}

func TestInputPortProvenance(t *testing.T) {
	// An input event on a registered device defines the MMIO word's source,
	// so the CPU's subsequent load links to it.
	o := New()
	o.RegisterPort("uart0", 0x4000_1000)
	o.OnInput("uart0", 8, 4, "uart0.rx", 0x41, secret)
	if o.MemSource(0x4000_1008) == 0 {
		t.Fatal("input did not define the RX register's provenance")
	}
	o.BeginInsn(0x8000, 1)
	o.OnLoad(0x4000_1008, 4, core.W(0x41, secret))
	o.AssignReg(5)
	v := &core.Violation{Kind: core.KindFetchClearance, Have: secret}
	o.OnViolation(v, o.RegSource(5), 0)
	if first := v.Provenance[0]; first.Kind != core.EvInput || first.Port != "uart0.rx" {
		t.Errorf("chain root = %+v, want the uart0.rx input", first)
	}
}
