package rv32

import (
	"fmt"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/tlm"
)

// streamGuest exercises what a retire record can get wrong: branches
// taken and not taken, calls and returns, a trap, sleeping wfis, a device
// write (with its bus mark), code rewritten after it ran (by a store, by
// a store after fence.i, by the device through the RAM write hook and by
// the test between two Run calls), code run past the image and rewritten
// there, and a load from a region the VP+ policy classifies. It exits
// with a0 = 283.
const streamGuest = `
	.equ DEV, 0x12000000
	.equ FAR, 0x80040000
_start:
	la t0, handler
	csrw mtvec, t0
	li s1, 0
	li s0, 0
1:	call victim
	add s1, s1, a0
	addi s0, s0, 1
	li t1, 3
	blt s0, t1, 1b
	la t0, victim
	la t1, tmpl3
	lw t1, 0(t1)
	sw t1, 0(t0)          # a store over code that ran
	call victim
	add s1, s1, a0
	fence.i
	la t1, tmpl4
	lw t1, 0(t1)
	sw t1, 0(t0)          # fence.i, then a write
	call victim
	add s1, s1, a0
	li t2, DEV
	la t1, tmpl5
	lw t1, 0(t1)
	sw t1, 0(t2)
	sw t0, 4(t2)          # the device writes victim through the RAM hook
	call victim
	add s1, s1, a0
	ecall
	li s0, 0
2:	wfi                   # at the second stop the test rewrites wake
wake:
	li a0, 1
	add s1, s1, a0
	addi s0, s0, 1
	li t1, 2
	blt s0, t1, 2b
	li s2, FAR
	la t0, victim2
	lw t1, 0(t0)
	sw t1, 0(s2)
	lw t1, 4(t0)
	sw t1, 4(s2)
	fence.i
	jalr s2               # past the image
	add s1, s1, a0
	la t1, tmpl3
	lw t1, 0(t1)
	sw t1, 0(s2)          # rewrite the far copy after it ran
	jalr s2
	add s1, s1, a0
	la t0, secret
	lw t1, 0(t0)
	add s1, s1, t1
	mv a0, s1
	call halt

handler:
	csrr t3, mepc
	addi t3, t3, 4
	csrw mepc, t3
	mret

victim:
	li a0, 1
	ret

victim2:
	li a0, 2
	ret

	.data
	.align 2
tmpl3:	.word 0x00300513      # li a0, 3
tmpl4:	.word 0x00400513      # li a0, 4
tmpl5:	.word 0x00500513      # li a0, 5
tmpl6:	.word 0x00600513      # li a0, 6
secret:	.word 0x100
`

const streamDev = 0x12000000

// streamCore is one core running streamGuest, whichever flavour.
type streamCore struct {
	run     func(max uint64, delay *kernel.Time) (uint64, RunStatus, error)
	setFR   func(*flight.Recorder)
	pos     func() (pc uint32, instret uint64)
	word    func(pc uint32) uint32
	reg     func(r uint8) uint32
	tagged  func(r uint8) bool // r carries a non-default tag
	mm      *mmode
	ram     tlm.Target
	devMark func(t uint64) // the device's write at instret t
}

// newStreamCore builds a core for img, the VP+ when pol is set, with its
// decode cache over the image or, with cacheOff, sized to 0. The device
// at streamDev latches a word at +0 and writes it through the RAM's
// transport (and so its write hook) to the address stored at +4.
func newStreamCore(t *testing.T, img *asm.Image, pol *core.Policy, cacheOff bool) *streamCore {
	t.Helper()
	s := &streamCore{}
	bus := tlm.NewBus()
	var latch uint32
	bus.MustMap("dev", streamDev, 8, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		p.Resp = tlm.OK
		if p.Cmd != tlm.Write {
			return
		}
		var v uint32
		for j := range p.Data {
			v |= uint32(p.Data[j].V) << (8 * j)
		}
		if p.Addr == 0 {
			latch = v
			return
		}
		_, now := s.pos()
		s.devMark(now)
		data := make([]core.TByte, 4)
		for j := range data {
			data[j].V = byte(latch >> (8 * j))
		}
		s.ram.Transport(&tlm.Payload{Cmd: tlm.Write, Addr: v - testRAMBase, Data: data}, d)
	}))
	halted := func() {}
	bus.MustMap("exit", testExit, 4, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		halted()
		p.Resp = tlm.OK
	}))
	cache := img.End() - testRAMBase
	if cacheOff {
		cache = 0
	}
	if pol == nil {
		ram := mem.NewPlain(testRAMSize)
		if err := ram.Load(0, img.Flatten()); err != nil {
			t.Fatal(err)
		}
		c := NewCore(bus)
		c.AttachRAM(ram, testRAMBase)
		c.SizeDecodeCache(cache)
		c.PC = img.Entry
		halted = func() { c.Halted = true }
		s.run, s.mm, s.ram = c.Run, &c.mmode, ram
		s.setFR = func(fr *flight.Recorder) { c.FR = fr }
		s.pos = func() (uint32, uint64) { return c.PC, c.Instret }
		s.word = func(pc uint32) uint32 { return c.fetchWord(pc - testRAMBase) }
		s.reg = func(r uint8) uint32 { return c.Regs[r] }
		s.tagged = func(uint8) bool { return false }
		return s
	}
	ram := mem.New(testRAMSize, pol.Default)
	if err := ram.Load(0, img.Flatten(), pol.Default); err != nil {
		t.Fatal(err)
	}
	for _, r := range pol.Regions {
		if err := ram.Classify(r.Start-testRAMBase, r.End-testRAMBase, r.Class); err != nil {
			t.Fatal(err)
		}
	}
	c := NewTaintCore(bus, pol)
	c.AttachRAM(ram, testRAMBase)
	c.SizeDecodeCache(cache)
	c.PC = img.Entry
	halted = func() { c.Halted = true }
	s.run, s.mm, s.ram = c.Run, &c.mmode, ram
	s.setFR = func(fr *flight.Recorder) { c.FR = fr }
	s.pos = func() (uint32, uint64) { return c.PC, c.Instret }
	s.word = func(pc uint32) uint32 { return c.fetchWord(pc - testRAMBase) }
	s.reg = func(r uint8) uint32 { return c.Regs[r].V }
	s.tagged = func(r uint8) bool { return c.Regs[r].T != pol.Default }
	return s
}

// atStop is what the test does when a Run call stops at a sleeping wfi:
// it marks the wake-up interrupt, and at the second stop rewrites wake —
// a word that already ran — through the RAM's transport.
func (s *streamCore) atStop(t *testing.T, img *asm.Image, stops int, mark func(uint64)) {
	_, now := s.pos()
	mark(now)
	if stops == 2 {
		w := img.MustSymbol("tmpl6") - img.DataAddr
		data := make([]core.TByte, 4)
		for j := range data {
			data[j].V = img.Data[w+uint32(j)]
		}
		var d kernel.Time
		s.ram.Transport(&tlm.Payload{Cmd: tlm.Write, Addr: img.MustSymbol("wake") - testRAMBase, Data: data}, &d)
	}
}

// recorded runs the guest in Run calls of five instructions into a
// recorder of ring entries and returns what a subscriber saw and the
// window.
func recorded(t *testing.T, img *asm.Image, pol *core.Policy, cacheOff bool, ring int) (stream, window []flight.Rec, a0 uint32) {
	t.Helper()
	s := newStreamCore(t, img, pol, cacheOff)
	fr := flight.New(ring)
	fr.Subscribe(func(b []flight.Rec) { stream = append(stream, b...) })
	s.setFR(fr)
	s.devMark = func(now uint64) { fr.MarkBus(now, "dev", streamDev+4, true, 4) }
	var delay kernel.Time
	for stops := 0; ; {
		_, st, err := s.run(5, &delay)
		if err != nil {
			t.Fatal(err)
		}
		if st == RunHalt {
			break
		}
		if st == RunWFI {
			stops++
			s.atStop(t, img, stops, func(now uint64) { fr.MarkIRQ(now, IntMTI) })
		}
	}
	fr.Flush()
	return stream, fr.Window(), s.reg(10)
}

// derived single-steps the guest with no recorder and derives the record
// each step should produce from architectural state alone: the pc and
// instret before the step, the word in RAM there before it, the effective
// address from the decoded operands, and the successor from the PC after
// it. A step that lands in the handler took a trap instead of retiring.
func derived(t *testing.T, img *asm.Image, pol *core.Policy, cacheOff bool) []flight.Rec {
	t.Helper()
	s := newStreamCore(t, img, pol, cacheOff)
	var want []flight.Rec
	s.devMark = func(now uint64) {
		want = append(want, flight.Rec{Time: now, Insn: 4, Addr: streamDev + 4, Aux: 1, Kind: flight.KindBus, Flags: flight.FlagStore})
	}
	handler := img.MustSymbol("handler")
	var delay kernel.Time
	for stops := 0; ; {
		pc, now := s.pos()
		w := s.word(pc)
		i := Decode(w)
		ea := s.reg(i.Rs1) + uint32(i.Imm)
		n, st, err := s.run(1, &delay)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		next, _ := s.pos()
		if next == handler && i.Op != OpJAL && i.Op != OpJALR {
			want = append(want, flight.Rec{Time: now, PC: s.mm.mepc, Insn: s.mm.mcause, Addr: s.mm.mtval, Kind: flight.KindTrap})
			continue
		}
		r := flight.Rec{Time: now, PC: pc, Insn: w, Addr: next, Kind: flight.KindRetire}
		switch i.Op {
		case OpJAL, OpJALR, OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpMRET:
			r.Flags |= flight.FlagBranch
		case OpLB, OpLH, OpLW, OpLBU, OpLHU:
			r.Flags |= flight.FlagLoad
			r.Addr = ea
		case OpSB, OpSH, OpSW:
			r.Flags |= flight.FlagStore
			r.Addr = ea
		}
		if next != pc+4 {
			r.Flags |= flight.FlagTaken
		}
		if i.Rd != 0 && s.tagged(i.Rd) {
			r.Flags |= flight.FlagTaintRd
		}
		want = append(want, r)
		if st == RunWFI {
			stops++
			s.atStop(t, img, stops, func(now uint64) {
				want = append(want, flight.Rec{Time: now, Aux: IntMTI, Kind: flight.KindIRQ})
			})
		}
	}
	return want
}

// TestRetireStreamMatchesSingleStep holds the block-granular capture to an
// oracle that does not use the recorder: on both cores, with the decode
// cache on and sized to 0, into a 16-entry ring and the default one, the
// per-retire subscriber's stream must equal the records derived by single
// steps, and the window their tail.
func TestRetireStreamMatchesSingleStep(t *testing.T) {
	img := asm.MustAssemble(streamGuest+testEpilogue, asm.Options{Base: testRAMBase})
	if img.End() > 0x80040000 {
		t.Fatalf("image ends at %#x, past the far copy", img.End())
	}
	l := core.IFP2()
	secret := img.MustSymbol("secret")
	pol := core.NewPolicy(l, l.MustTag(core.ClassLI)).WithRegion(core.RegionRule{
		Name: "secret", Start: secret, End: secret + 4, Classify: true, Class: l.MustTag(core.ClassHI),
	})
	for _, p := range []*core.Policy{nil, pol} {
		for _, cacheOff := range []bool{false, true} {
			want := derived(t, img, p, cacheOff)
			var traps, marks, taken, tainted int
			for _, r := range want {
				switch {
				case r.Kind == flight.KindTrap:
					traps++
				case r.Kind != flight.KindRetire:
					marks++
				case r.Flags&flight.FlagTaken != 0:
					taken++
				}
				if r.Flags&flight.FlagTaintRd != 0 {
					tainted++
				}
			}
			if traps != 1 || marks != 3 || taken < 10 || (p != nil) != (tainted > 0) {
				t.Fatalf("derived stream has %d traps, %d marks, %d taken, %d tagged-rd retires", traps, marks, taken, tainted)
			}
			for _, ring := range []int{16, 0} {
				name := fmt.Sprintf("VP+=%v/cacheOff=%v/ring=%d", p != nil, cacheOff, ring)
				stream, window, a0 := recorded(t, img, p, cacheOff, ring)
				if a0 != 283 {
					t.Fatalf("%s: a0 = %d, want 283", name, a0)
				}
				diffRecs(t, name+": stream", stream, want)
				diffRecs(t, name+": window", window, want[len(want)-len(window):])
				if size := flight.New(ring).Size(); len(window) != min(size, len(want)) {
					t.Errorf("%s: window holds %d records, want %d", name, len(window), min(size, len(want)))
				}
			}
		}
	}
}

// diffRecs fails at the first record got and want differ in.
func diffRecs(t *testing.T, what string, got, want []flight.Rec) {
	t.Helper()
	for k := range min(len(got), len(want)) {
		if got[k] != want[k] {
			t.Fatalf("%s: record %d\n got %+v\nwant %+v", what, k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
}
