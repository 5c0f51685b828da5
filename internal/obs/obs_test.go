package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
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

// trackedOps primes register 5 with a tracked load, then records n-1 op
// events each linked to the one before: n tracked events, none with a port
// or a memory word, so recording them allocates nothing but ring chunks.
func trackedOps(o *Observer, n int) {
	o.BeginInsn(0x8000, 1)
	o.OnLoad(0x100, 4, core.W(1, secret))
	o.AssignReg(5)
	for i := 1; i < n; i++ {
		o.OnOp(5, RegNone, uint32(i), secret)
		o.AssignReg(5)
	}
}

// TestRingChunks bounds what filling the ring allocates: one ring of
// fixed-size records, chunk by chunk (the chunk table is allocated with the
// observer, so it is slack here), where the old doubling slice left up to
// one more ring of copies behind. The runtime's own allocations only add
// to a reading, so the least of three fills is the observer's.
func TestRingChunks(t *testing.T) {
	// No collection during a fill: a cycle's own work allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var o *Observer
	got := uint64(math.MaxUint64)
	for range 3 {
		o = New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		trackedOps(o, DefaultRingCapacity)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if o.EventCount() != DefaultRingCapacity || o.Evicted() != 0 {
		t.Fatalf("%d events, %d evicted; want %d and 0", o.EventCount(), o.Evicted(), DefaultRingCapacity)
	}
	ring := uint64(DefaultRingCapacity) * uint64(unsafe.Sizeof(rec{}))
	table := uint64(len(o.ring)) * uint64(unsafe.Sizeof([]rec{}))
	if got > ring+table {
		t.Errorf("filling the ring allocated %d bytes, want at most %d (one ring of records plus the chunk table)",
			got, ring+table)
	}
}

// A capacity that is not a multiple of the chunk size ends in a short
// chunk; lookups, chains and eviction work across every chunk boundary and
// across the wrap.
func TestRingChunkBoundaries(t *testing.T) {
	const capacity = 2*chunkLen + 100
	o := NewWithOptions(Options{RingCapacity: capacity, MaxChain: 8})
	trackedOps(o, chunkLen+3)
	// The chain ending just past the first boundary walks back across it.
	v := &core.Violation{Kind: core.KindOutputClearance, Have: secret}
	o.OnViolation(v, o.RegSource(5), 0)
	if len(v.Provenance) != 8 {
		t.Fatalf("chain has %d events, want MaxChain 8", len(v.Provenance))
	}
	for i, ev := range v.Provenance[:7] {
		if want := uint64(chunkLen - 3 + i); ev.Seq != want {
			t.Errorf("chain[%d] seq %d, want %d", i, ev.Seq, want)
		}
	}

	// Fill past the capacity: the short last chunk takes the tail, then the
	// ring wraps into the first chunk.
	extra := 10
	for i := int(o.EventCount()); i < capacity+extra; i++ {
		o.OnOp(5, RegNone, uint32(i), secret)
		o.AssignReg(5)
	}
	total := 0
	for i, c := range o.ring {
		if want := min(chunkLen, capacity-i*chunkLen); len(c) != want {
			t.Errorf("chunk %d holds %d records, want %d", i, len(c), want)
		}
		total += len(c)
	}
	if total != capacity {
		t.Errorf("chunks hold %d records, want the capacity %d", total, capacity)
	}
	if got, want := o.Evicted(), uint64(extra); got != want {
		t.Errorf("evicted %d, want %d", got, want)
	}
	last := o.EventCount()
	for _, seq := range []uint64{
		last - capacity + 1,                                  // the oldest live event
		chunkLen, chunkLen + 1, 2 * chunkLen, 2*chunkLen + 1, // chunk boundaries
		capacity, capacity + 1, // the last slot and the wrap
		last,
	} {
		if ev, ok := o.event(seq); !ok || ev.Seq != seq {
			t.Errorf("event(%d) = %d, %v; want it live", seq, ev.Seq, ok)
		}
	}
	for _, seq := range []uint64{1, last - capacity} {
		if _, ok := o.event(seq); ok {
			t.Errorf("event(%d) resolves after its slot was overwritten", seq)
		}
	}
	evs := o.Events()
	if len(evs) != capacity || evs[0].Seq != last-capacity+1 || evs[len(evs)-1].Seq != last {
		t.Errorf("Events() = %d events from %d to %d, want %d from %d to %d", len(evs),
			evs[0].Seq, evs[len(evs)-1].Seq, capacity, last-capacity+1, last)
	}
}

// RAM words keep their provenance in pages allocated when a tracked source
// first reaches them; the words outside RAM keep theirs in the map. A
// classified range across the end of RAM, an input on a register window
// and an untracked store severing a word resolve the same on both sides.
func TestMemSourceTable(t *testing.T) {
	const ram, size = 0x8000_0000, 3 * memPageLen * 4
	o := New()
	o.SizeRAM(ram, size)
	o.RegisterPort("uart0", 0x1000_0000, 12)
	o.OnStore(ram, 4, 9, core.W(0, 0))
	for i, p := range o.memPages {
		if p != nil {
			t.Fatalf("page %d allocated before any tracked source", i)
		}
	}
	o.PinClassify("edge", ram+size-8, ram+size+8, secret)
	o.OnInput("uart0", 8, 4, "uart0.rx", 0x41, secret)
	for _, a := range []uint32{ram + size - 8, ram + size - 4, ram + size, ram + size + 4, 0x1000_0008} {
		if o.MemSource(a) == 0 {
			t.Errorf("MemSource(%#x) = 0, want the tracked source", a)
		}
	}
	if o.memPages[0] != nil || o.memPages[1] != nil || o.memPages[2] == nil {
		t.Errorf("pages allocated %v, want only the last", []bool{o.memPages[0] != nil, o.memPages[1] != nil, o.memPages[2] != nil})
	}
	if len(o.memSrc) != 3 {
		t.Errorf("map holds %d words, want the 3 outside RAM", len(o.memSrc))
	}
	o.OnStore(ram+size-4, 8, 9, core.W(0, 0)) // severs one word each side of the end
	if o.MemSource(ram+size-4) != 0 || o.MemSource(ram+size) != 0 {
		t.Error("untracked store must sever the words' provenance on both sides of the RAM end")
	}
	if o.MemSource(ram+size-8) == 0 || o.MemSource(ram+size+4) == 0 {
		t.Error("untracked store severed words it did not write")
	}
}

// The bus's trace hook reports every transaction; OnBus records only those
// inside a registered port's window, with the global address, the first
// four data bytes and the join of the bytes' classes (a lone byte keeps
// its own class, whatever tag 0 is).
func TestOnBusRecordsPortWindowOnly(t *testing.T) {
	l, err := core.PerByteKeyIntegrity(2)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := l.MustTag("K0"), l.MustTag("K1")
	o := New()
	o.Attach(nil, l, l.MustTag(core.ClassLI))
	o.RegisterPort("uart0", 0x1000_0000, 12)
	bus := func(dev string, cmd tlm.Command, addr uint32, data ...core.TByte) {
		o.OnBus(o.BusPort(dev), &tlm.Payload{Cmd: cmd, Addr: addr, Data: data})
	}
	bus("uart0", tlm.Write, 0x1000_0000, core.TByte{V: 0x41, T: k0})
	bus("uart0", tlm.Read, 0x1000_0008, core.TByte{V: 1, T: k0}, core.TByte{V: 2, T: k1})
	bus("clint", tlm.Read, 0x0200_0000, core.TByte{V: 3})         // not a port
	bus("", tlm.Read, 0x3000_0000, core.TByte{V: 4})              // unmapped
	bus("uart0", tlm.Read, 0x1000_000a, make([]core.TByte, 4)...) // crosses the end
	want := []core.TaintEvent{
		{Seq: 1, Kind: core.EvBusWrite, Addr: 0x1000_0000, Value: 0x41, Tag: k0, Port: "uart0"},
		{Seq: 2, Kind: core.EvBusRead, Addr: 0x1000_0008, Value: 0x0201, Tag: l.MustTag(core.ClassHI), Port: "uart0"},
	}
	if got := o.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("events =\n%+v\nwant\n%+v", got, want)
	}
	m := map[string]uint64{}
	o.MetricsSnapshotInto(m)
	if m["bus.txns"] != 2 || m["bus.write_bytes"] != 1 || m["bus.read_bytes"] != 2 {
		t.Errorf("bus counters txns=%d write=%d read=%d, want 2, 1, 2",
			m["bus.txns"], m["bus.write_bytes"], m["bus.read_bytes"])
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
	snap := map[string]uint64{}
	o.MetricsSnapshotInto(snap)
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["obs.events"] != o.EventCount() {
		t.Errorf("obs.events = %d, want %d", m["obs.events"], o.EventCount())
	}
	if !reflect.DeepEqual(m, snap) {
		t.Errorf("exported metrics %v, want the snapshot %v", m, snap)
	}
}

func TestWriteMetricsJSONDeterministic(t *testing.T) {
	// The export must be byte-identical across snapshots of the same state:
	// archived metrics files are diffed, so map-iteration order
	// must never leak into the output.
	m := map[string]uint64{}
	for _, name := range []string{"z.last", "a.first", "m.middle", "core.instret", "cover.edges"} {
		m[name] = 7
	}
	var first, second bytes.Buffer
	if err := WriteMetricsJSON(&first, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsJSON(&second, m); err != nil {
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
	o.RegisterPort("uart0", 0x4000_1000, 12)
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
