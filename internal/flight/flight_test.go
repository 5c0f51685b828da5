package flight

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testCode is a program for expanding blocks: the words at pcs it maps,
// nop elsewhere, classified by their RV32 opcode the way the cores'
// opcode table does.
type testCode map[uint32]uint32

func (m testCode) Word(pc uint32) uint32 {
	if w, ok := m[pc]; ok {
		return w
	}
	return 0x13
}

func (testCode) Flags(w uint32) uint8 {
	switch w & 0x7f {
	case 0x03:
		return FlagLoad
	case 0x23:
		return FlagStore
	case 0x63, 0x67, 0x6f:
		return FlagBranch
	}
	return 0
}

// retire captures one retired instruction the way a core runs one: a Run
// call of one instruction whose block ends at it. insn's opcode decides
// its flags; addr is the effective address of a load or store and the
// successor PC otherwise; flags adds FlagTaintRd.
func retire(r *Recorder, pc, insn, addr uint32, time uint64, flags uint8) {
	r.Resume(testCode(nil), pc, time)
	next := addr
	if (testCode(nil)).Flags(insn)&(FlagLoad|FlagStore) != 0 {
		r.Addr(time, addr)
		next = pc + 4
	}
	if flags&FlagTaintRd != 0 {
		r.TaintRd(time)
	}
	r.Branch(time, insn, next)
	r.Pause(time + 1)
}

const (
	lw = 0x0005a583 // lw a1, 0(a1)
	sw = 0x00b52023 // sw a1, 0(a0)
)

func TestRingRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultSize}, {-1, DefaultSize}, {1, 1}, {2, 2}, {3, 4},
		{100, 128}, {4096, 4096}, {5000, 8192},
	} {
		if got := New(tc.in).Size(); got != tc.want {
			t.Errorf("New(%d).Size() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestWindowOverwritesOldest(t *testing.T) {
	r := New(4)
	for k := uint32(0); k < 10; k++ {
		retire(r, 0x80000000+4*k, 0x13, 0, uint64(k), 0)
	}
	if r.Captured() != 10 || r.Dropped() != 6 || r.Len() != 4 {
		t.Fatalf("captured/dropped/len = %d/%d/%d, want 10/6/4",
			r.Captured(), r.Dropped(), r.Len())
	}
	w := r.Window()
	if len(w) != 4 {
		t.Fatalf("window length %d, want 4", len(w))
	}
	for k, rec := range w {
		if want := uint64(6 + k); rec.Time != want {
			t.Errorf("window[%d].Time = %d, want %d (oldest first)", k, rec.Time, want)
		}
	}
}

func TestWindowPartialFill(t *testing.T) {
	r := New(8)
	retire(r, 0x80000000, 0x13, 0, 0, 0)
	r.MarkIRQ(1, 0x80)
	w := r.Window()
	if len(w) != 2 || w[0].Kind != KindRetire || w[1].Kind != KindIRQ {
		t.Fatalf("window = %+v, want [retire irq]", w)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

func TestMarkNameInterning(t *testing.T) {
	r := New(8)
	r.MarkBus(1, "uart0", 0x10000000, true, 4)
	r.MarkBus(2, "uart0", 0x10000004, false, 1)
	r.MarkEvent(3, "wfi-sleep")
	w := r.Window()
	if got := r.NameOf(w[0].Aux); got != "uart0" {
		t.Errorf("NameOf(bus) = %q, want uart0", got)
	}
	if w[0].Aux != w[1].Aux {
		t.Errorf("same name interned twice: %d vs %d", w[0].Aux, w[1].Aux)
	}
	if got := r.NameOf(w[2].Aux); got != "wfi-sleep" {
		t.Errorf("NameOf(mark) = %q, want wfi-sleep", got)
	}
	if r.NameOf(0) != "" || r.NameOf(999) != "" {
		t.Error("NameOf must be empty for id 0 and unknown ids")
	}
	if w[0].Flags&FlagStore == 0 || w[1].Flags&FlagLoad == 0 {
		t.Error("bus marks must carry the transfer direction flag")
	}
}

// TestCaptureZeroAlloc is the recorder's always-on contract: steady-state
// capture — retires, IRQ/trap marks, and bus/kernel marks with already
// interned names — must not allocate, like the telemetry sampler's tick.
func TestCaptureZeroAlloc(t *testing.T) {
	r := New(64)
	r.MarkBus(0, "uart0", 0x10000000, true, 4) // intern outside the measured loop
	r.MarkEvent(0, "wfi-sleep")
	n := testing.AllocsPerRun(1000, func() {
		retire(r, 0x80000100, 0x00a50533, 0x80001000, 42, FlagLoad)
		r.MarkIRQ(42, 0x80)
		r.MarkTrap(42, 0x80000100, 0, 11)
		r.MarkBus(42, "uart0", 0x10000000, true, 4)
		r.MarkEvent(42, "wfi-sleep")
	})
	if n != 0 {
		t.Fatalf("steady-state capture allocates %v times per run, want 0", n)
	}
}

func testSnapshot() *Snapshot {
	s := &Snapshot{
		Reason:  "violation",
		Version: "test",
		SimNs:   1000,
		Instret: 42,
		PC:      0x80000120,
		RAMBase: 0x80000000,
		RAMSize: 1 << 20,
		Policy:  &PolicyInfo{Classes: []string{"LO", "HI"}, Default: "LO"},
		Violation: &ViolationInfo{
			Kind: "fetch-clearance", Have: "LO", Required: "HI",
			PC: Hex32(0x80000120), Message: "security violation",
		},
		Disasm: func(w, pc uint32) string { return "insn" },
		Mem: func(addr, size uint32) (data, tags []byte) {
			d := make([]byte, size)
			tg := make([]byte, size)
			for i := range d {
				d[i] = byte(addr + uint32(i))
			}
			return d, tg
		},
	}
	for i := range s.Regs {
		s.Regs[i] = RegState{Name: "x0", Value: Hex32(0)}
	}
	return s
}

// Hex32 renders the bytes fmt's "0x%08x" does.
func TestHex32(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xf, 0x10, 0xabcdef, 0x8000_0070, 0x0123_4567, 0xffff_ffff} {
		if got, want := Hex32(v), fmt.Sprintf("0x%08x", v); got != want {
			t.Errorf("Hex32(%#x) = %q, want %q", v, got, want)
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	r := New(16)
	retire(r, 0x80000100, 0x00a50533, 0, 40, 0)
	retire(r, 0x80000104, 0x0005a583, 0x80001000, 41, FlagLoad)
	r.MarkViolation(42, 0x80000120, 0xdeadbeef, 0)
	b := r.Bundle(testSnapshot())
	if r.Bundles() != 1 {
		t.Fatalf("bundles counter = %d, want 1", r.Bundles())
	}
	got, err := ValidateBundle(b.JSON())
	if err != nil {
		t.Fatalf("ValidateBundle: %v", err)
	}
	if got.Schema != SchemaV1 || got.Reason != "violation" {
		t.Fatalf("round-trip lost identity: %+v", got)
	}
	if len(got.Trace) != 3 {
		t.Fatalf("trace has %d records, want 3", len(got.Trace))
	}
	if last := got.Trace[len(got.Trace)-1]; last.Kind != "violation" {
		t.Fatalf("window must end at the violation, ends at %q", last.Kind)
	}
	if len(got.Mem) == 0 {
		t.Fatal("load in window must produce a memory window")
	}
	if got.Mem[0].Tags == "" || len(got.Mem[0].Tags) != len(got.Mem[0].Data) {
		t.Fatalf("memory window must carry matching tag bytes: %+v", got.Mem[0])
	}
}

// TestWriteFilesPair pins the forensic file pair: <name>.forensics.json
// holds JSON() and <name>.forensics.txt the report, in a directory the
// call creates.
func TestWriteFilesPair(t *testing.T) {
	r := New(16)
	retire(r, 0x80000100, 0x00a50533, 0, 40, 0)
	r.MarkViolation(41, 0x80000104, 0xdeadbeef, 0)
	b := r.Bundle(testSnapshot())
	dir := filepath.Join(t.TempDir(), "new")
	path, err := b.WriteFiles(dir, "wk-3")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "wk-3.forensics.json"); path != want {
		t.Fatalf("path %q, want %q", path, want)
	}
	var report bytes.Buffer
	if err := b.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"wk-3.forensics.json": b.JSON(), "wk-3.forensics.txt": report.Bytes()} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the bundle's rendering", name)
		}
	}
}

func TestBundleMergesMemWindows(t *testing.T) {
	r := New(16)
	// Two accesses 16 bytes apart merge into one ±64 window; one far away
	// stays separate.
	retire(r, 0x80000100, lw, 0x80001000, 1, 0)
	retire(r, 0x80000104, sw, 0x80001010, 2, 0)
	retire(r, 0x80000108, lw, 0x80010000, 3, 0)
	retire(r, 0x8000010c, sw, 0x10000000, 4, 0) // MMIO: no window
	b := r.Bundle(testSnapshot())
	if len(b.Mem) != 2 {
		t.Fatalf("got %d memory windows, want 2 (merged + separate): %+v", len(b.Mem), b.Mem)
	}
}

// corruptions each break one invariant ValidateBundle checks, applied to a
// valid bundle's JSON as a single replacement.
var corruptions = []struct{ name, from, to string }{
	{"bad schema", SchemaV1, "nope/v9"},
	{"no reason", `"reason": "violation"`, `"reason": ""`},
	{"missing disasm", `"disasm": "insn"`, `"disasm": ""`},
}

func TestValidateBundleRejects(t *testing.T) {
	r := New(16)
	retire(r, 0x80000100, 0x13, 0, 1, 0)
	good := r.Bundle(testSnapshot()).JSON()
	for _, tc := range corruptions {
		raw := strings.Replace(string(good), tc.from, tc.to, 1)
		if _, err := ValidateBundle([]byte(raw)); err == nil {
			t.Errorf("%s: ValidateBundle accepted a corrupt bundle", tc.name)
		}
	}
	if _, err := ValidateBundle([]byte("not json")); err == nil {
		t.Error("ValidateBundle accepted non-JSON input")
	}
}

// FuzzValidateBundle feeds ValidateBundle arbitrary bytes, starting from a
// valid bundle and its corruptions: it must reject or accept, never panic.
func FuzzValidateBundle(f *testing.F) {
	r := New(16)
	retire(r, 0x80000100, 0x00a50533, 0, 40, 0)
	retire(r, 0x80000104, 0x0005a583, 0x80001000, 41, FlagLoad)
	r.MarkViolation(42, 0x80000120, 0xdeadbeef, 0)
	good := r.Bundle(testSnapshot()).JSON()
	f.Add(good)
	for _, tc := range corruptions {
		f.Add([]byte(strings.Replace(string(good), tc.from, tc.to, 1)))
	}
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := ValidateBundle(raw)
		if (b == nil) == (err == nil) {
			t.Fatalf("ValidateBundle returned bundle %v with error %v", b != nil, err)
		}
	})
}

func TestReportIsDeterministicAndComplete(t *testing.T) {
	build := func() string {
		r := New(16)
		retire(r, 0x80000100, 0x00a50533, 0, 40, 0)
		retire(r, 0x80000104, 0x0005a583, 0x80001000, 41, FlagLoad|FlagTaintRd)
		r.MarkIRQ(41, 0x80)
		r.MarkViolation(42, 0x80000120, 0xdeadbeef, 0)
		s := testSnapshot()
		s.GoVersion = "go-host-specific" // must not leak into the report
		s.Metrics = map[string]uint64{"flight.capture_cost_ns": 3}
		var sb strings.Builder
		if err := r.Bundle(s).WriteReport(&sb); err != nil {
			t.Fatalf("WriteReport: %v", err)
		}
		return sb.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatal("report is not deterministic across identical runs")
	}
	for _, want := range []string{"violation", "trace (last 4", "registers:", "memory", "taint>rd", "irq line"} {
		if !strings.Contains(a, want) {
			t.Errorf("report missing %q:\n%s", want, a)
		}
	}
	for _, banned := range []string{"go-host-specific", "capture_cost_ns"} {
		if strings.Contains(a, banned) {
			t.Errorf("report leaks volatile field %q", banned)
		}
	}
}

// TestSubscribersSeeEveryRecordOnce drives the stream through ring wraps,
// interleaved marks and flushes at ragged points: every subscriber must see
// each record captured after it subscribed exactly once, in capture order —
// including one that subscribes while the other still has records pending.
func TestSubscribersSeeEveryRecordOnce(t *testing.T) {
	r := New(8)
	// Without a subscriber the ring only overwrites: full never fires.
	for k := uint64(0); k < 100; k++ {
		if r.full() {
			t.Fatalf("full() true at capture %d without a subscriber", k)
		}
		retire(r, 0x80000000, 0x13, 0x80000004, k, 0)
	}
	var got [2][]uint64
	subscribe := func(i int) {
		r.Subscribe(func(recs []Rec) {
			for _, rec := range recs {
				got[i] = append(got[i], rec.Time)
			}
		})
	}
	const from, late, total = 100, 605, 1000
	subscribe(0)
	for k := uint64(from); k < from+total; k++ {
		if k == late {
			subscribe(1)
		}
		switch k % 7 {
		case 3:
			r.MarkIRQ(k, 0x800)
		case 5:
			r.MarkEvent(k, "wfi-sleep")
		default:
			retire(r, 0x80000000, 0x13, 0x80000004, k, 0)
		}
		if k%13 == 0 {
			r.Flush()
		}
	}
	r.Flush()
	r.Flush() // nothing pending: must deliver nothing
	for i, first := range []uint64{from, late} {
		times := got[i]
		if want := from + total - first; uint64(len(times)) != want {
			t.Fatalf("subscriber %d saw %d records, want %d", i, len(times), want)
		}
		for k, tm := range times {
			if tm != first+uint64(k) {
				t.Fatalf("subscriber %d: record %d has time %d, want %d", i, k, tm, first+uint64(k))
			}
		}
	}
}

// TestSubscriberCancels: a per-retire consumer that cancels from inside
// its own call receives no later batch while another keeps receiving every
// record; once neither is left the recorder stops delivering, and its ring
// no longer fills.
func TestSubscriberCancels(t *testing.T) {
	r := New(8)
	var all, some []uint64
	stopAll := r.Subscribe(func(recs []Rec) {
		for _, rec := range recs {
			all = append(all, rec.Time)
		}
	})
	var stopSome func()
	stopSome = r.Subscribe(func(recs []Rec) {
		for _, rec := range recs {
			some = append(some, rec.Time)
		}
		if len(some) >= 5 {
			stopSome()
		}
	})
	for k := uint64(0); k < 40; k++ {
		retire(r, 0x80000000, 0x13, 0x80000004, k, 0)
		if k%3 == 0 {
			r.Flush()
		}
	}
	r.Flush()
	if len(all) != 40 || all[39] != 39 {
		t.Fatalf("remaining subscriber saw %d records (last %v), want 40", len(all), all[len(all)-1:])
	}
	// Flushes after records 0, 3 and 6 hand it 1, 3 and 3 records; it
	// cancels in the third call.
	if len(some) != 7 || some[6] != 6 {
		t.Fatalf("cancelled subscriber saw %v, want records 0 to 6", some)
	}
	stopAll()
	r.Flush()
	if r.Subscribed() {
		t.Fatal("Subscribed() true after every subscriber cancelled")
	}
	for k := uint64(40); k < 100; k++ {
		retire(r, 0x80000000, 0x13, 0x80000004, k, 0)
		if r.full() {
			t.Fatalf("full() true at record %d after every subscriber cancelled", k)
		}
	}
	r.Flush()
	if len(all) != 40 || len(some) != 7 {
		t.Fatalf("cancelled subscribers saw %d and %d records, want 40 and 7", len(all), len(some))
	}
}

// TestFlushZeroAlloc extends the always-on contract to the stream: a
// subscribed ring that flushes on every wrap must not allocate either.
func TestFlushZeroAlloc(t *testing.T) {
	r := New(4)
	var n uint64
	r.Subscribe(func(recs []Rec) { n += uint64(len(recs)) })
	r.MarkEvent(0, "wfi-sleep") // intern outside the measured loop
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 10; k++ {
			retire(r, 0x80000100, 0x00a50533, 0x80000104, 42, 0)
		}
		r.MarkIRQ(42, 0x80)
		r.MarkEvent(42, "wfi-sleep")
		r.Flush()
	})
	if allocs != 0 {
		t.Fatalf("subscribed capture and flush allocate %v times per run, want 0", allocs)
	}
	if n != r.Captured() {
		t.Fatalf("subscriber saw %d records, ring captured %d", n, r.Captured())
	}
}
