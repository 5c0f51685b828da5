package rv32

import (
	"errors"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/tlm"
)

// taintRig bundles a TaintCore test platform.
type taintRig struct {
	c   *TaintCore
	img *asm.Image
	ram *mem.Memory
	pol *core.Policy
}

// buildTaint assembles src (plus the halt epilogue) and builds a TaintCore
// under the given policy. The program image is loaded with the policy's
// load-time classification applied per byte.
func buildTaint(t *testing.T, src string, pol *core.Policy) *taintRig {
	t.Helper()
	if err := pol.Validate(); err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ram := mem.New(testRAMSize, pol.Default)
	flat := img.Flatten()
	for i, b := range flat {
		addr := testRAMBase + uint32(i)
		ram.Data()[i] = core.TByte{V: b, T: pol.ClassifyAt(addr)}
	}
	// Classification also applies to zero-initialized regions (BSS, key
	// buffers) beyond the image.
	for i := len(flat); i < len(ram.Data()); i++ {
		addr := testRAMBase + uint32(i)
		if tag := pol.ClassifyAt(addr); tag != pol.Default {
			ram.Data()[i].T = tag
		}
	}
	bus := tlm.NewBus()
	c := NewTaintCore(bus, pol)
	c.AttachRAM(ram, testRAMBase)
	c.SizeDecodeCache(img.End() - testRAMBase)
	bus.MustMap("exit", testExit, 4, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		c.Halted = true
		p.Resp = tlm.OK
	}))
	c.PC = img.Entry
	return &taintRig{c: c, img: img, ram: ram, pol: pol}
}

// run executes until halt or error.
func (r *taintRig) run(t *testing.T) error {
	t.Helper()
	var delay kernel.Time
	n, st, err := r.c.Run(1_000_000, &delay)
	if err != nil {
		return err
	}
	if st != RunHalt {
		t.Fatalf("status = %v after %d instructions, want halt", st, n)
	}
	return nil
}

// mustViolate runs and requires a violation of the given kind.
func (r *taintRig) mustViolate(t *testing.T, kind core.ViolationKind) *core.Violation {
	t.Helper()
	err := r.run(t)
	var v *core.Violation
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want a violation", err)
	}
	if v.Kind != kind {
		t.Fatalf("violation kind = %v, want %v (%v)", v.Kind, kind, v)
	}
	return v
}

// confidentialityPolicy: IFP-1, secret region [secret, secret+len) is HC.
func confidentialityPolicy(secretStart, secretLen uint32) *core.Policy {
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	return core.NewPolicy(l, lc).WithRegion(core.RegionRule{
		Name: "secret", Start: secretStart, End: secretStart + secretLen,
		Classify: true, Class: hc,
	})
}

func TestTaintPropagationThroughALU(t *testing.T) {
	// secret is HC; sums and moves derived from it must be HC; unrelated
	// data stays LC.
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)        # a0: HC
	li a1, 5            # a1: LC
	add a2, a0, a1      # HC (LUB)
	mv a3, a1           # LC
	xor a4, a0, a0      # HC (value 0, still tainted)
	addi a5, a2, 1      # HC via immediate op
	call halt
	.data
secret:
	.word 0x1337
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	r := buildTaint(t, src, pol)
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
	hc := pol.L.MustTag(core.ClassHC)
	lc := pol.L.MustTag(core.ClassLC)
	checks := map[int]core.Tag{10: hc, 11: lc, 12: hc, 13: lc, 14: hc, 15: hc}
	for reg, want := range checks {
		if got := r.c.Regs[reg].T; got != want {
			t.Errorf("x%d tag = %s, want %s", reg, pol.L.Name(got), pol.L.Name(want))
		}
	}
	if r.c.Regs[12].V != 0x1337+5 {
		t.Errorf("a2 value = 0x%x", r.c.Regs[12].V)
	}
}

func TestTaintStoreAndLoadRoundTrip(t *testing.T) {
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)
	la t1, buf
	sw a0, 0(t1)        # taints buf bytes
	sb a0, 4(t1)
	lw a1, 0(t1)        # HC again
	lbu a2, 4(t1)       # HC
	lw a3, 8(t1)        # untouched: LC
	call halt
	.data
secret:
	.word 0xAABBCCDD
buf:
	.space 12
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	r := buildTaint(t, src, pol)
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
	hc, lc := pol.L.MustTag(core.ClassHC), pol.L.MustTag(core.ClassLC)
	if r.c.Regs[11].T != hc || r.c.Regs[12].T != hc {
		t.Error("tags must survive the store/load round trip")
	}
	if r.c.Regs[13].T != lc {
		t.Error("untouched memory must stay LC")
	}
	// Partial overwrite: storing an LC byte into the middle of a tainted
	// word makes the word's load tag still HC (LUB of remaining bytes).
	buf := img.MustSymbol("buf") - testRAMBase
	if r.ram.Data()[buf].T != hc || r.ram.Data()[buf+4].T != hc {
		t.Error("stored bytes must carry the stored tag")
	}
}

func TestBranchClearanceViolation(t *testing.T) {
	// if(secret == 1) — branching on HC data with LC branch clearance is the
	// implicit-flow guard (paper Section V-B2a).
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)
	beqz a0, 1f
1:	call halt
	.data
secret:
	.word 1
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	pol.WithBranchClearance(pol.L.MustTag(core.ClassLC))
	r := buildTaint(t, src, pol)
	v := r.mustViolate(t, core.KindBranchClearance)
	if v.PC == 0 {
		t.Error("violation must carry the PC")
	}
}

func TestBranchOnPublicDataPasses(t *testing.T) {
	src := `
_start:
	li a0, 3
1:	addi a0, a0, -1
	bnez a0, 1b
	call halt
`
	pol := confidentialityPolicy(0x9f000000, 4) // secret region unused
	pol.WithBranchClearance(pol.L.MustTag(core.ClassLC))
	r := buildTaint(t, src, pol)
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
}

func TestJalrClearanceViolation(t *testing.T) {
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)
	la t1, halt
	add t1, t1, a0      # target derived from secret
	jr t1
	.data
secret:
	.word 0
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	pol.WithBranchClearance(pol.L.MustTag(core.ClassLC))
	r := buildTaint(t, src, pol)
	r.mustViolate(t, core.KindBranchClearance)
}

func TestMemAddrClearanceViolation(t *testing.T) {
	// Mem[secret] = public — address side channel (paper Section V-B2c).
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)
	la t1, buf
	add t1, t1, a0
	sw x0, 0(t1)        # store with secret-derived address
	call halt
	.data
secret:
	.word 4
buf:
	.space 64
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	pol.WithMemAddrClearance(pol.L.MustTag(core.ClassLC))
	r := buildTaint(t, src, pol)
	v := r.mustViolate(t, core.KindMemAddrClearance)
	if v.Addr == 0 {
		t.Error("violation must carry the address")
	}

	// The load direction leaks too.
	src2 := `
_start:
	la t0, secret
	lw a0, 0(t0)
	la t1, buf
	add t1, t1, a0
	lw a1, 0(t1)
	call halt
	.data
secret:
	.word 4
buf:
	.space 64
`
	img2 := asm.MustAssemble(src2+testEpilogue, asm.Options{Base: testRAMBase})
	pol2 := confidentialityPolicy(img2.MustSymbol("secret"), 4)
	pol2.WithMemAddrClearance(pol2.L.MustTag(core.ClassLC))
	r2 := buildTaint(t, src2, pol2)
	r2.mustViolate(t, core.KindMemAddrClearance)
}

func TestFetchClearanceDetectsInjectedCode(t *testing.T) {
	// IFP-2 integrity policy: program text is HI, fetch clearance HI, the
	// "injected" code region is LI (as if written by an attacker). Jumping
	// into it must raise a fetch-clearance violation — the Table I detector.
	src := `
_start:
	la t0, payload
	jr t0
	.data
payload:
	.word 0x00000013    # nop encoded as data, classified LI
	.word 0x00008067    # ret
`
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "text", Start: img.Base, End: img.Base + uint32(len(img.Text)),
			Classify: true, Class: hi,
		})
	r := buildTaint(t, src, pol)
	v := r.mustViolate(t, core.KindFetchClearance)
	if v.PC != img.MustSymbol("payload") {
		t.Errorf("violation at pc=0x%x, want payload 0x%x", v.PC, img.MustSymbol("payload"))
	}
}

func TestFetchClearancePassesForTrustedCode(t *testing.T) {
	src := `
_start:
	li a0, 1
	call halt
`
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "text", Start: img.Base, End: img.Base + uint32(len(img.Text)),
			Classify: true, Class: hi,
		})
	r := buildTaint(t, src, pol)
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
}

func TestStoreClearanceProtectsRegion(t *testing.T) {
	// Integrity: untrusted (LI) data must not overwrite the protected PIN.
	src := `
_start:
	la t0, pin
	la t1, input
	lbu a0, 0(t1)       # LI data
	sb a0, 0(t0)        # must violate
	call halt
	.data
pin:
	.word 0x44434241
input:
	.byte 0x66
`
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pin := img.MustSymbol("pin")
	pol := core.NewPolicy(l, li).WithRegion(core.RegionRule{
		Name: "pin", Start: pin, End: pin + 4,
		Classify: true, Class: hi,
		CheckStore: true, Clearance: hi,
	})
	r := buildTaint(t, src, pol)
	v := r.mustViolate(t, core.KindStoreClearance)
	if v.Addr != pin {
		t.Errorf("violation addr = 0x%x, want pin 0x%x", v.Addr, pin)
	}
}

func TestStoreClearanceAllowsTrustedWrite(t *testing.T) {
	// HI data may be written into the HI-protected region (this permissive
	// behaviour is exactly what the paper's entropy attack exploits; the
	// per-byte fix is tested in internal/immo).
	src := `
_start:
	la t0, pin
	lbu a0, 0(t0)       # HI data (pin byte 0)
	sb a0, 1(t0)        # overwrite pin byte 1 with byte 0: allowed under HI
	call halt
	.data
pin:
	.word 0x44434241
`
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pin := img.MustSymbol("pin")
	pol := core.NewPolicy(l, li).WithRegion(core.RegionRule{
		Name: "pin", Start: pin, End: pin + 4,
		Classify: true, Class: hi,
		CheckStore: true, Clearance: hi,
	})
	r := buildTaint(t, src, pol)
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
	if r.ram.Data()[pin-testRAMBase+1].V != 0x41 {
		t.Error("trusted overwrite did not happen")
	}
}

func TestPerByteKeyPolicyStopsEntropyAttack(t *testing.T) {
	// The same overwrite with the per-byte key policy must be detected.
	src := `
_start:
	la t0, pin
	lbu a0, 0(t0)
	sb a0, 1(t0)
	call halt
	.data
pin:
	.word 0x44434241
`
	l, err := core.PerByteKeyIntegrity(4)
	if err != nil {
		t.Fatal(err)
	}
	li := l.MustTag(core.ClassLI)
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pin := img.MustSymbol("pin")
	pol := core.NewPolicy(l, li)
	for i := uint32(0); i < 4; i++ {
		k := l.MustTag([]string{"K0", "K1", "K2", "K3"}[i])
		pol.WithRegion(core.RegionRule{
			Name: "pin", Start: pin + i, End: pin + i + 1,
			Classify: true, Class: k,
			CheckStore: true, Clearance: k,
		})
	}
	r := buildTaint(t, src, pol)
	v := r.mustViolate(t, core.KindStoreClearance)
	if v.HaveClass() != "K0" || v.RequiredClass() != "K1" {
		t.Errorf("violation %s -> %s, want K0 -> K1", v.HaveClass(), v.RequiredClass())
	}
}

func TestTrapVectorClearance(t *testing.T) {
	// mtvec written from a secret-derived value: taking a trap must violate
	// the branch clearance (the paper checks the trap handler address with
	// the same clearance).
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)
	la t1, handler
	add t1, t1, a0      # handler address depends on secret (value 0)
	csrw mtvec, t1
	ecall
	call halt
handler:
	mret
	.data
secret:
	.word 0
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	pol.WithBranchClearance(pol.L.MustTag(core.ClassLC))
	r := buildTaint(t, src, pol)
	r.mustViolate(t, core.KindBranchClearance)
}

func TestMretTargetClearance(t *testing.T) {
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)
	la t1, target
	add t1, t1, a0
	csrw mepc, t1       # tainted return target
	mret
target:
	call halt
	.data
secret:
	.word 0
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	pol.WithBranchClearance(pol.L.MustTag(core.ClassLC))
	r := buildTaint(t, src, pol)
	r.mustViolate(t, core.KindBranchClearance)
}

func TestCSRTagPropagation(t *testing.T) {
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)
	csrw mscratch, a0   # CSR carries the tag
	csrr a1, mscratch   # read it back
	call halt
	.data
secret:
	.word 0x55
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	r := buildTaint(t, src, pol)
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
	if r.c.Regs[11].T != pol.L.MustTag(core.ClassHC) {
		t.Error("tag must round-trip through a CSR")
	}
}

func TestMMIOTagsOnTaintCore(t *testing.T) {
	// A device register returning HC-tagged bytes must taint the loaded
	// word; a store must deliver the store tag to the device.
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	pol := core.NewPolicy(l, lc)
	src := `
_start:
	li t0, 0x20000000
	lw a0, 0(t0)
	sw a0, 4(t0)
	call halt
`
	r := buildTaint(t, src, pol)
	// Rewire with the device: build a fresh rig by hand.
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	ram := mem.New(testRAMSize, lc)
	if err := ram.Load(0, img.Flatten(), lc); err != nil {
		t.Fatal(err)
	}
	bus := tlm.NewBus()
	c := NewTaintCore(bus, pol)
	c.AttachRAM(ram, testRAMBase)
	c.SizeDecodeCache(img.End() - testRAMBase)
	var seenTag core.Tag
	bus.MustMap("exit", testExit, 4, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		c.Halted = true
		p.Resp = tlm.OK
	}))
	bus.MustMap("dev", 0x20000000, 8, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		switch p.Cmd {
		case tlm.Read:
			for j := range p.Data {
				p.Data[j] = core.B(0x11, hc)
			}
		case tlm.Write:
			seenTag = p.Data[0].T
		}
		p.Resp = tlm.OK
	}))
	c.PC = img.Entry
	var delay kernel.Time
	if _, st, err := c.Run(1000, &delay); err != nil || st != RunHalt {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if c.Regs[10].T != hc {
		t.Error("MMIO read must deliver device tags")
	}
	if seenTag != hc {
		t.Error("MMIO write must deliver register tags to the device")
	}
	_ = r
}

func TestTaintCoreUnhandledTrapAndBusError(t *testing.T) {
	l := core.IFP1()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLC))
	r := buildTaint(t, "_start:\n\tecall\n", pol)
	var delay kernel.Time
	_, _, err := r.c.Run(100, &delay)
	var te *TrapError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TrapError", err)
	}

	r2 := buildTaint(t, "_start:\n\tli t0, 0x30000000\n\tlw a0, 0(t0)\n", pol)
	_, _, err = r2.c.Run(100, &delay)
	var be *BusError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BusError", err)
	}
}

func TestTaintCoreTrapHandling(t *testing.T) {
	// Full trap round trip on the taint core (same program as the plain
	// core's TestTrapAndMret).
	l := core.IFP2()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
	r := buildTaint(t, `
_start:
	la t0, handler
	csrw mtvec, t0
	li s0, 0
	ecall
	li s1, 1
	call halt
handler:
	addi s0, s0, 1
	csrr t1, mepc
	addi t1, t1, 4
	csrw mepc, t1
	mret
`, pol)
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
	if r.c.Regs[8].V != 1 || r.c.Regs[9].V != 1 {
		t.Error("trap round trip failed on taint core")
	}
}

func TestTaintCoreWFIAndInterrupt(t *testing.T) {
	l := core.IFP2()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
	r := buildTaint(t, `
_start:
	la t0, handler
	csrw mtvec, t0
	li t1, 0x80
	csrw mie, t1
	csrsi mstatus, 8
	wfi
	li s1, 1
	call halt
handler:
	addi s0, s0, 1
	csrw mie, x0
	mret
`, pol)
	var delay kernel.Time
	_, st, err := r.c.Run(1000, &delay)
	if err != nil || st != RunWFI {
		t.Fatalf("st=%v err=%v", st, err)
	}
	r.c.SetIRQ(IntMTI, true)
	_, st, err = r.c.Run(1000, &delay)
	if err != nil || st != RunHalt {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if r.c.Regs[8].V != 1 || r.c.Regs[9].V != 1 {
		t.Error("interrupt round trip failed")
	}
}

func TestX0KeepsDefaultTag(t *testing.T) {
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)
	add x0, a0, a0      # write to x0 discarded, tag too
	mv a1, x0
	call halt
	.data
secret:
	.word 9
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	r := buildTaint(t, src, pol)
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
	if r.c.Regs[10+1].T != pol.L.MustTag(core.ClassLC) || r.c.Regs[0].V != 0 {
		t.Error("x0 must stay zero with the default tag")
	}
}
