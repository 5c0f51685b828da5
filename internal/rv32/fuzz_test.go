package rv32

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/tlm"
)

// The differential ISA check as a fuzz target: genProgram's programs, with
// UART traffic and self-modifying code added, run on Core and on TaintCore
// under policies the programs cannot violate. Tags must never change a
// value, so both cores must end in the same architectural state and their
// flight recorders must hold the same window.

const (
	parityUART    = 0x10000000 // byte writes at +0; +4 reads the count written
	parityScratch = 0x80080000 // x31: the loads' and stores' base
)

// parityEpilogue follows the generated program: the trap handler, which
// counts traps in x27 and resumes past the trapping instruction; patchsite
// and the template words genProgram stores over its first instruction; and
// halt, which exits with x23 ^ x27.
const parityEpilogue = `
	j halt
handler:
	addi x27, x27, 1
	csrr x28, mcause
	csrr x29, mtval
	csrr x30, mepc
	addi x30, x30, 4
	csrw mepc, x30
	mret
patchsite:
	addi x23, x23, 7
	ret
tmpl0:	addi x23, x23, 1
tmpl1:	xori x23, x23, 0x55
tmpl2:	slli x23, x23, 1
tmpl3:	addi x23, x23, -3
halt:
	xor a0, x23, x27
	li t6, 0x11000000
	sw a0, 0(t6)
1:	j 1b
`

// paritySource generates one program from seed with n generated
// instructions.
func paritySource(seed uint32, n int) string {
	rnd := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	var b strings.Builder
	fmt.Fprintf(&b, "_start:\n\tli x31, 0x%08x\n\tla x30, handler\n\tcsrw mtvec, x30\n\tli x26, 0x%08x\n",
		parityScratch, parityUART)
	genProgram(&b, rnd, n, true)
	b.WriteString(parityEpilogue)
	return b.String()
}

// parityState is everything the two cores must agree on.
type parityState struct {
	regs    [32]uint32
	pc      uint32
	csrs    [8]uint32
	instret uint64
	exit    uint32
	uart    []byte
	ram     []byte
	window  []flight.Rec
}

// parityDevices maps the UART and the exit register on a new bus. halt
// stops the core once the guest writes its exit code.
func parityDevices(s *parityState, halt func()) *tlm.Bus {
	bus := tlm.NewBus()
	bus.MustMap("uart", parityUART, 8, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		switch {
		case p.Cmd == tlm.Write && p.Addr == 0:
			s.uart = append(s.uart, p.Data[0].V)
		case p.Cmd == tlm.Read:
			n := uint32(len(s.uart))
			for j := range p.Data {
				p.Data[j] = core.TByte{V: byte(n >> (8 * j))}
			}
		}
		p.Resp = tlm.OK
	}))
	bus.MustMap("exit", testExit, 4, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		if p.Cmd == tlm.Write {
			for j := range p.Data {
				s.exit |= uint32(p.Data[j].V) << (8 * j)
			}
			halt()
		}
		p.Resp = tlm.OK
	}))
	return bus
}

// parityRun runs img to its halt in Run calls of quantum instructions on
// the plain core (pol nil) or the taint core, with a flight recorder of
// ring entries attached, and returns the final state.
func parityRun(t *testing.T, img *asm.Image, pol *core.Policy, quantum uint64, ring int) *parityState {
	t.Helper()
	s := &parityState{}
	fr := flight.New(ring)
	var (
		run  func(max uint64, delay *kernel.Time) (uint64, RunStatus, error)
		done func() *mmode
	)
	if pol == nil {
		ram := mem.NewPlain(testRAMSize)
		if err := ram.Load(0, img.Flatten()); err != nil {
			t.Fatal(err)
		}
		var c *Core
		c = NewCore(parityDevices(s, func() { c.Halted = true }))
		c.AttachRAM(ram, testRAMBase)
		c.SizeDecodeCache(img.End() - testRAMBase)
		c.PC, c.FR = img.Entry, fr
		run = c.Run
		done = func() *mmode {
			s.regs, s.pc, s.instret = c.Regs, c.PC, c.Instret
			s.ram = ram.Data()
			return &c.mmode
		}
	} else {
		ram := mem.New(testRAMSize, pol.Default)
		if err := ram.Load(0, img.Flatten(), pol.Default); err != nil {
			t.Fatal(err)
		}
		for _, r := range pol.Regions {
			if r.Classify {
				if err := ram.Classify(r.Start-testRAMBase, r.End-testRAMBase, r.Class); err != nil {
					t.Fatal(err)
				}
			}
		}
		var c *TaintCore
		c = NewTaintCore(parityDevices(s, func() { c.Halted = true }), pol)
		c.AttachRAM(ram, testRAMBase)
		c.SizeDecodeCache(img.End() - testRAMBase)
		c.PC, c.FR = img.Entry, fr
		run = c.Run
		done = func() *mmode {
			for r, w := range c.Regs {
				s.regs[r] = w.V
			}
			s.pc, s.instret = c.PC, c.Instret
			s.ram = make([]byte, len(ram.Data()))
			for i, b := range ram.Data() {
				s.ram[i] = b.V
			}
			return &c.mmode
		}
	}
	var delay kernel.Time
	for total := uint64(0); ; {
		n, st, err := run(quantum, &delay)
		if err != nil {
			t.Fatalf("policy %v: run: %v", pol != nil, err)
		}
		total += n
		if st == RunHalt {
			break
		}
		if total > 200_000 {
			t.Fatalf("policy %v: no halt after %d instructions", pol != nil, total)
		}
	}
	m := done()
	s.csrs = [8]uint32{m.mstatus, m.mie, m.mip, m.mtvec, m.mepc, m.mcause, m.mtval, m.mscratch}
	s.window = fr.Window()
	for i := range s.window {
		s.window[i].Flags &^= flight.FlagTaintRd
	}
	return s
}

// parityPolicies are the policies no generated program can violate: the
// all-default one, and one that classifies the scratch area HI under
// branch and memory-address clearances the default class LI passes.
func parityPolicies() []*core.Policy {
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	return []*core.Policy{
		core.NewPolicy(l, li),
		core.NewPolicy(l, li).
			WithBranchClearance(li).
			WithMemAddrClearance(li).
			WithRegion(core.RegionRule{
				Name: "scratch", Start: parityScratch, End: parityScratch + 512,
				Classify: true, Class: hi,
			}),
	}
}

// FuzzCoreParity generates a program from seed and size, runs it on both
// cores in Run calls of quantum instructions, and requires equal
// registers, PC, CSRs, RAM, instret, exit code and UART bytes, and flight
// windows equal record for record but for FlagTaintRd, which only the VP+
// can set.
func FuzzCoreParity(f *testing.F) {
	// The seeds TestDifferentialPlainVsTaint's generator starts from, and
	// run lengths from one instruction per Run to whole programs.
	for _, seed := range []uint32{0x1234567, 0x89abcdef, 7, 0xdeadbeef} {
		f.Add(seed, uint8(120), uint16(4096))
		f.Add(seed, uint8(40), uint16(1))
		f.Add(seed, uint8(250), uint16(37))
	}
	f.Fuzz(func(t *testing.T, seed uint32, size uint8, quantum uint16) {
		src := paritySource(seed, 1+int(size))
		img, err := asm.Assemble(src, asm.Options{Base: testRAMBase})
		if err != nil {
			t.Fatalf("assemble: %v\n%s", err, src)
		}
		q := uint64(max(quantum, 1))
		plain := parityRun(t, img, nil, q, 64)
		for _, pol := range parityPolicies() {
			got := parityRun(t, img, pol, q, 64)
			switch {
			case got.regs != plain.regs:
				t.Fatalf("registers differ:\nVP  %x\nVP+ %x", plain.regs, got.regs)
			case got.pc != plain.pc || got.instret != plain.instret:
				t.Fatalf("pc, instret: VP 0x%08x, %d; VP+ 0x%08x, %d", plain.pc, plain.instret, got.pc, got.instret)
			case got.csrs != plain.csrs:
				t.Fatalf("mstatus, mie, mip, mtvec, mepc, mcause, mtval, mscratch\nVP  %x\nVP+ %x", plain.csrs, got.csrs)
			case got.exit != plain.exit || !bytes.Equal(got.uart, plain.uart):
				t.Fatalf("exit code, UART: VP %d %q; VP+ %d %q", plain.exit, plain.uart, got.exit, got.uart)
			case !bytes.Equal(got.ram, plain.ram):
				i := 0
				for got.ram[i] == plain.ram[i] {
					i++
				}
				t.Fatalf("RAM differs first at 0x%08x: VP 0x%02x, VP+ 0x%02x", testRAMBase+i, plain.ram[i], got.ram[i])
			}
			if len(got.window) != len(plain.window) {
				t.Fatalf("flight windows hold %d (VP) and %d (VP+) records", len(plain.window), len(got.window))
			}
			for k := range got.window {
				if got.window[k] != plain.window[k] {
					t.Fatalf("flight record %d: VP %+v, VP+ %+v", k, plain.window[k], got.window[k])
				}
			}
		}
	})
}
