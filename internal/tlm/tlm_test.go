package tlm

import (
	"fmt"
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
)

// echoTarget records the last payload and answers reads with a fixed tainted
// pattern.
type echoTarget struct {
	lastCmd  Command
	lastAddr uint32
	lastData []core.TByte
	fill     core.TByte
	latency  kernel.Time
}

func (e *echoTarget) Transport(p *Payload, delay *kernel.Time) {
	e.lastCmd = p.Cmd
	e.lastAddr = p.Addr
	e.lastData = append([]core.TByte(nil), p.Data...)
	if p.Cmd == Read {
		for i := range p.Data {
			p.Data[i] = e.fill
		}
	}
	*delay += e.latency
	p.Resp = OK
}

func TestCommandAndResponseStrings(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("command strings")
	}
	if OK.String() != "ok" || AddressError.String() != "address-error" ||
		CommandError.String() != "command-error" || Response(9).String() != "response(9)" {
		t.Error("response strings")
	}
}

func TestBusRoutingRebasesAddress(t *testing.T) {
	b := NewBus()
	t1 := &echoTarget{}
	t2 := &echoTarget{}
	b.MustMap("low", 0x1000, 0x100, t1)
	b.MustMap("high", 0x8000, 0x1000, t2)

	var delay kernel.Time
	p := Payload{Cmd: Write, Addr: 0x1010, Data: make([]core.TByte, 4)}
	b.Transport(&p, &delay)
	if p.Resp != OK {
		t.Fatalf("resp = %v", p.Resp)
	}
	if t1.lastAddr != 0x10 {
		t.Errorf("target saw addr 0x%x, want rebased 0x10", t1.lastAddr)
	}
	if p.Addr != 0x1010 {
		t.Errorf("payload addr must be restored, got 0x%x", p.Addr)
	}

	p = Payload{Cmd: Read, Addr: 0x8ffc, Data: make([]core.TByte, 4)}
	b.Transport(&p, &delay)
	if p.Resp != OK || t2.lastAddr != 0xffc {
		t.Errorf("resp=%v addr=0x%x", p.Resp, t2.lastAddr)
	}
}

func TestBusAddressErrors(t *testing.T) {
	b := NewBus()
	b.MustMap("dev", 0x1000, 0x100, &echoTarget{})
	var delay kernel.Time

	for _, addr := range []uint32{0x0, 0xfff, 0x1100, 0xffffffff} {
		p := Payload{Cmd: Read, Addr: addr, Data: make([]core.TByte, 1)}
		b.Transport(&p, &delay)
		if p.Resp != AddressError {
			t.Errorf("addr 0x%x: resp = %v, want address-error", addr, p.Resp)
		}
	}
	// A transfer that starts inside but runs past the end must fail.
	p := Payload{Cmd: Read, Addr: 0x10fe, Data: make([]core.TByte, 4)}
	b.Transport(&p, &delay)
	if p.Resp != AddressError {
		t.Errorf("straddling transfer: resp = %v, want address-error", p.Resp)
	}
}

// TestBusTraceRangeIDs: the trace hook gets each range's 1-based position
// in Map order, which the address-sorted routing table does not change,
// and id 0 for an unmapped address.
func TestBusTraceRangeIDs(t *testing.T) {
	b := NewBus()
	b.MustMap("high", 0x8000, 0x100, &echoTarget{})
	b.MustMap("low", 0x1000, 0x100, &echoTarget{})
	b.MustMap("mid", 0x4000, 0x100, &echoTarget{})
	var got []string
	b.Trace = func(id int, name string, p *Payload) {
		got = append(got, fmt.Sprintf("%d %q 0x%x %v", id, name, p.Addr, p.Resp))
	}
	var delay kernel.Time
	for _, addr := range []uint32{0x1004, 0x8000, 0x4010, 0x2000, 0x10fe} {
		p := Payload{Cmd: Read, Addr: addr, Data: make([]core.TByte, 4)}
		b.Transport(&p, &delay)
	}
	want := []string{
		`2 "low" 0x1004 ok`,
		`1 "high" 0x8000 ok`,
		`3 "mid" 0x4010 ok`,
		`0 "" 0x2000 address-error`,
		`2 "low" 0x10fe address-error`, // crosses the end of the range
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestBusRangeAtTopOfAddressSpace(t *testing.T) {
	b := NewBus()
	tgt := &echoTarget{}
	b.MustMap("top", 0xffff0000, 0x10000, tgt)
	var delay kernel.Time
	p := Payload{Cmd: Write, Addr: 0xfffffffc, Data: make([]core.TByte, 4)}
	b.Transport(&p, &delay)
	if p.Resp != OK || tgt.lastAddr != 0xfffc {
		t.Errorf("resp=%v addr=0x%x", p.Resp, tgt.lastAddr)
	}
}

func TestBusMapValidation(t *testing.T) {
	b := NewBus()
	b.MustMap("a", 0x1000, 0x100, &echoTarget{})
	if err := b.Map("empty", 0x5000, 0, &echoTarget{}); err == nil {
		t.Error("empty range must be rejected")
	}
	if err := b.Map("wrap", 0xffffff00, 0x200, &echoTarget{}); err == nil {
		t.Error("wrapping range must be rejected")
	}
	if err := b.Map("nil", 0x2000, 4, nil); err == nil {
		t.Error("nil target must be rejected")
	}
	for _, c := range []struct {
		name        string
		start, size uint32
	}{
		{"inside", 0x1010, 4},
		{"covering", 0x0800, 0x1000},
		{"head", 0x0ff0, 0x20},
		{"tail", 0x10f0, 0x20},
		{"exact", 0x1000, 0x100},
	} {
		if err := b.Map(c.name, c.start, c.size, &echoTarget{}); err == nil {
			t.Errorf("overlap %q must be rejected", c.name)
		}
	}
	// Adjacent ranges are fine.
	if err := b.Map("before", 0x0f00, 0x100, &echoTarget{}); err != nil {
		t.Errorf("adjacent-before: %v", err)
	}
	if err := b.Map("after", 0x1100, 0x100, &echoTarget{}); err != nil {
		t.Errorf("adjacent-after: %v", err)
	}
}

func TestMustMapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMap must panic on error")
		}
	}()
	NewBus().MustMap("bad", 0, 0, &echoTarget{})
}

func TestTagsTravelThroughBus(t *testing.T) {
	// The core claim of the TLM integration: tags are preserved end-to-end
	// through a transaction.
	l := core.IFP1()
	hc := l.MustTag(core.ClassHC)
	b := NewBus()
	tgt := &echoTarget{fill: core.B(0x5a, hc)}
	b.MustMap("dev", 0x4000, 0x100, tgt)

	var delay kernel.Time
	// Write: target must see the tags the initiator sent.
	p := Payload{Cmd: Write, Addr: 0x4000, Data: core.TagAll([]byte{1, 2}, hc)}
	b.Transport(&p, &delay)
	for i, tb := range tgt.lastData {
		if tb.T != hc {
			t.Errorf("write byte %d lost its tag", i)
		}
	}
	// Read: initiator must see the tags the target produced.
	p = Payload{Cmd: Read, Addr: 0x4000, Data: make([]core.TByte, 2)}
	b.Transport(&p, &delay)
	for i, tb := range p.Data {
		if tb != core.B(0x5a, hc) {
			t.Errorf("read byte %d = %+v", i, tb)
		}
	}
}

func TestTargetFunc(t *testing.T) {
	called := false
	var tf Target = TargetFunc(func(p *Payload, delay *kernel.Time) {
		called = true
		p.Resp = OK
	})
	var delay kernel.Time
	p := Payload{}
	tf.Transport(&p, &delay)
	if !called || p.Resp != OK {
		t.Error("TargetFunc adapter failed")
	}
}

func TestDelayAccumulates(t *testing.T) {
	b := NewBus()
	b.MustMap("slow", 0, 0x100, &echoTarget{latency: 10 * kernel.NS})
	delay := 5 * kernel.NS
	p := Payload{Cmd: Read, Addr: 0, Data: make([]core.TByte, 1)}
	b.Transport(&p, &delay)
	if delay != 15*kernel.NS {
		t.Errorf("delay = %v, want 15ns", delay)
	}
}

func TestReadWriteWordHelpers(t *testing.T) {
	l := core.IFP2()
	hi := l.MustTag(core.ClassHI)
	b := NewBus()
	ram := make([]core.TByte, 16)
	b.MustMap("ram", 0x100, 16, TargetFunc(func(p *Payload, delay *kernel.Time) {
		switch p.Cmd {
		case Read:
			copy(p.Data, ram[p.Addr:])
		case Write:
			copy(ram[p.Addr:], p.Data)
		}
		p.Resp = OK
	}))

	var delay kernel.Time
	if resp := b.WriteWord(core.W(0x11223344, hi), 0x104, &delay); resp != OK {
		t.Fatalf("write resp = %v", resp)
	}
	w, resp := b.ReadWord(l, 0x104, &delay)
	if resp != OK || w.V != 0x11223344 || w.T != hi {
		t.Errorf("read = %v resp = %v", w, resp)
	}
	if _, resp := b.ReadWord(l, 0xdead0000, &delay); resp != AddressError {
		t.Errorf("unmapped read resp = %v", resp)
	}
	if resp := b.WriteWord(core.Word{}, 0xdead0000, &delay); resp != AddressError {
		t.Errorf("unmapped write resp = %v", resp)
	}
}

func TestRangeOfAndRanges(t *testing.T) {
	b := NewBus()
	b.MustMap("ram", 0x8000, 0x1000, &echoTarget{})
	b.MustMap("uart", 0x1000, 0x100, &echoTarget{})
	name, start, end, ok := b.RangeOf(0x8123)
	if !ok || name != "ram" || start != 0x8000 || end != 0x9000 {
		t.Errorf("RangeOf = %q 0x%x 0x%x %v", name, start, end, ok)
	}
	if _, _, _, ok := b.RangeOf(0x0); ok {
		t.Error("RangeOf unmapped must report !ok")
	}
	rs := b.Ranges()
	if len(rs) != 2 || !strings.Contains(rs[0], "uart") || !strings.Contains(rs[1], "ram") {
		t.Errorf("Ranges() = %v, want address order", rs)
	}
}

// TestPropertyBusRouting cross-checks the binary-search router against a
// linear-scan oracle over randomized maps and addresses.
func TestPropertyBusRouting(t *testing.T) {
	seed := uint32(0xB005)
	rnd := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	for trial := 0; trial < 50; trial++ {
		b := NewBus()
		type rng struct{ start, end uint64 }
		var oracle []rng
		// Build up to 8 non-overlapping ranges by trial insertion.
		for i := 0; i < 8; i++ {
			start := rnd() % 0xFFFF0000
			size := rnd()%0x10000 + 1
			overlaps := false
			for _, r := range oracle {
				if uint64(start) < r.end && r.start < uint64(start)+uint64(size) {
					overlaps = true
					break
				}
			}
			if overlaps {
				continue
			}
			if err := b.Map(fmt.Sprintf("r%d", i), start, size, &echoTarget{}); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			oracle = append(oracle, rng{uint64(start), uint64(start) + uint64(size)})
		}
		for probe := 0; probe < 200; probe++ {
			addr := rnd()
			want := false
			for _, r := range oracle {
				if uint64(addr) >= r.start && uint64(addr) < r.end {
					want = true
					break
				}
			}
			_, _, _, got := b.RangeOf(addr)
			if got != want {
				t.Fatalf("trial %d: route(0x%x) = %v, oracle %v", trial, addr, got, want)
			}
		}
	}
}
