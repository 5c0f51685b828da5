package rv32

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/tlm"
)

const (
	testRAMBase = 0x80000000
	testRAMSize = 1 << 20
	testExit    = 0x11000000 // writing here halts the core
)

// testEpilogue halts the core; guest test programs end with `call halt`.
const testEpilogue = `
	.text
halt:
	li t6, 0x11000000
	sw x0, 0(t6)
1:	j 1b
`

func buildPlain(t *testing.T, src string) (*Core, *asm.Image, *mem.PlainMemory) {
	t.Helper()
	img, err := asm.Assemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ram := mem.NewPlain(testRAMSize)
	if err := ram.Load(0, img.Flatten()); err != nil {
		t.Fatal(err)
	}
	bus := tlm.NewBus()
	c := NewCore(bus)
	c.AttachRAM(ram, testRAMBase)
	c.SizeDecodeCache(img.End() - testRAMBase)
	bus.MustMap("exit", testExit, 4, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		if p.Cmd == tlm.Write {
			c.Halted = true
		}
		p.Resp = tlm.OK
	}))
	c.PC = img.Entry
	return c, img, ram
}

// runPlain executes src until halt and returns the core for inspection.
func runPlain(t *testing.T, src string) (*Core, *asm.Image, *mem.PlainMemory) {
	t.Helper()
	c, img, ram := buildPlain(t, src)
	var delay kernel.Time
	n, st, err := c.Run(1_000_000, &delay)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st != RunHalt {
		t.Fatalf("status = %v after %d instructions, want halt", st, n)
	}
	return c, img, ram
}

func TestALUProgram(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	li a0, 7
	li a1, 5
	add a2, a0, a1     # 12
	sub a3, a0, a1     # 2
	xor a4, a0, a1     # 2
	or  a5, a0, a1     # 7
	and a6, a0, a1     # 5
	sll a7, a0, a1     # 224
	li t0, -8
	sra t1, t0, a1     # -1 (arithmetic)
	srl t2, t0, a1     # large
	slt t3, t0, a0     # 1
	sltu t4, t0, a0    # 0 (t0 is huge unsigned)
	call halt
`)
	want := map[int]uint32{
		12: 12, 13: 2, 14: 2, 15: 7, 16: 5, 17: 224,
		6:  0xffffffff,
		7:  0xf8000000 >> 5 << 2 >> 2, // placeholder checked below
		28: 1, 29: 0,
	}
	// srl -8 >> 5 = 0x07FFFFFF8>>5 ... compute directly:
	want[7] = uint32(0xfffffff8) >> 5
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("x%d = 0x%x, want 0x%x", r, c.Regs[r], v)
		}
	}
}

func TestLoopSum(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	li a0, 0      # sum
	li a1, 1      # i
	li a2, 10
1:	add a0, a0, a1
	addi a1, a1, 1
	ble a1, a2, 1b
	call halt
`)
	if c.Regs[10] != 55 {
		t.Errorf("sum = %d, want 55", c.Regs[10])
	}
}

func TestMulDivEdgeCases(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	li a0, -7
	li a1, 3
	mul a2, a0, a1       # -21
	mulh a3, a0, a1      # -1 (sign ext of -21)
	li t0, 0x80000000
	li t1, -1
	div a4, t0, t1       # overflow -> 0x80000000
	rem a5, t0, t1       # overflow -> 0
	div a6, a0, x0       # div by zero -> -1
	divu a7, a0, x0      # divu by zero -> 0xFFFFFFFF
	rem s2, a0, x0       # rem by zero -> a0
	remu s3, a1, x0      # remu by zero -> a1
	mulhu s4, t1, t1     # 0xFFFFFFFE
	mulhsu s5, t1, t1    # -1 * big unsigned -> 0xFFFFFFFF... checked below
	divu s6, a1, a1      # 1
	call halt
`)
	checks := map[int]uint32{
		12: 0xffffffeb, // -21
		13: 0xffffffff,
		14: 0x80000000,
		15: 0,
		16: 0xffffffff,
		17: 0xffffffff,
		18: 0xfffffff9, // -7
		19: 3,
		20: 0xfffffffe,
		21: 0xffffffff, // mulhsu(-1, 0xffffffff) high word
		22: 1,
	}
	for r, v := range checks {
		if c.Regs[r] != v {
			t.Errorf("x%d = 0x%x, want 0x%x", r, c.Regs[r], v)
		}
	}
}

func TestLoadStoreSizes(t *testing.T) {
	c, img, ram := runPlain(t, `
_start:
	la t0, buf
	li t1, 0x88
	sb t1, 0(t0)
	lb a0, 0(t0)      # sign-extended: 0xFFFFFF88
	lbu a1, 0(t0)     # 0x88
	li t1, 0x8001
	sh t1, 2(t0)
	lh a2, 2(t0)      # 0xFFFF8001
	lhu a3, 2(t0)     # 0x8001
	li t1, 0xDEADBEEF
	sw t1, 4(t0)
	lw a4, 4(t0)
	call halt
	.data
buf:
	.space 16
`)
	want := map[int]uint32{
		10: 0xffffff88, 11: 0x88, 12: 0xffff8001, 13: 0x8001, 14: 0xdeadbeef,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("x%d = 0x%x, want 0x%x", r, c.Regs[r], v)
		}
	}
	buf := img.MustSymbol("buf") - testRAMBase
	if ram.Data()[buf+4] != 0xEF || ram.Data()[buf+7] != 0xDE {
		t.Error("sw byte order wrong")
	}
}

func TestFunctionCall(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	li a0, 21
	call double
	mv s0, a0
	call halt
double:
	add a0, a0, a0
	ret
`)
	if c.Regs[8] != 42 {
		t.Errorf("s0 = %d, want 42", c.Regs[8])
	}
}

func TestX0IsHardwired(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	li t0, 99
	add x0, t0, t0
	mv a0, x0
	call halt
`)
	if c.Regs[10] != 0 || c.Regs[0] != 0 {
		t.Error("x0 must stay zero")
	}
}

func TestCSRInstructions(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	li t0, 0x123
	csrw mscratch, t0
	csrr a0, mscratch       # 0x123
	li t1, 0x00C
	csrs mscratch, t1
	csrr a1, mscratch       # 0x12F
	csrc mscratch, t1
	csrr a2, mscratch       # 0x123
	csrrwi a3, mscratch, 5  # old 0x123, scratch now 5
	csrr a4, mscratch       # 5
	csrr a5, misa
	csrr a6, mhartid        # 0
	call halt
`)
	want := map[int]uint32{
		10: 0x123, 11: 0x12f, 12: 0x123, 13: 0x123, 14: 5,
		15: misaRV32IM, 16: 0,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("x%d = 0x%x, want 0x%x", r, c.Regs[r], v)
		}
	}
}

func TestTrapAndMret(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	la t0, handler
	csrw mtvec, t0
	li s0, 0
	ecall            # -> handler, s0 += 1, resumes after
	li s1, 1
	ebreak           # -> handler, s0 += 1
	li s2, 2
	call halt

handler:
	addi s0, s0, 1
	csrr s3, mcause  # last cause
	csrr t1, mepc
	addi t1, t1, 4   # skip the trapping instruction
	csrw mepc, t1
	mret
`)
	if c.Regs[8] != 2 {
		t.Errorf("handler ran %d times, want 2", c.Regs[8])
	}
	if c.Regs[9] != 1 || c.Regs[18] != 2 {
		t.Error("execution did not resume correctly after traps")
	}
	if c.Regs[19] != CauseBreakpoint {
		t.Errorf("mcause = %d, want breakpoint", c.Regs[19])
	}
}

func TestIllegalInstructionTrap(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	la t0, handler
	csrw mtvec, t0
	.word 0xFFFFFFFF   # illegal
	li s1, 7           # skipped by handler redirect
	call halt
handler:
	csrr s0, mcause
	csrr s2, mtval
	call halt
`)
	if c.Regs[8] != CauseIllegalInstr {
		t.Errorf("mcause = %d, want illegal-instruction", c.Regs[8])
	}
	if c.Regs[18] != 0xFFFFFFFF {
		t.Errorf("mtval = 0x%x, want the instruction word", c.Regs[18])
	}
	if c.Regs[9] == 7 {
		t.Error("execution continued past the trap")
	}
}

func TestUnhandledTrapError(t *testing.T) {
	c, _, _ := buildPlain(t, "_start:\n\tecall\n")
	var delay kernel.Time
	_, _, err := c.Run(100, &delay)
	var te *TrapError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TrapError", err)
	}
	if te.Cause != CauseECallM {
		t.Errorf("cause = %d", te.Cause)
	}
	if !strings.Contains(te.Error(), "mtvec") {
		t.Errorf("error text = %q", te.Error())
	}
}

func TestBusErrorOnUnmappedMMIO(t *testing.T) {
	c, _, _ := buildPlain(t, `
_start:
	li t0, 0x40000000
	lw a0, 0(t0)
`)
	var delay kernel.Time
	_, _, err := c.Run(100, &delay)
	var be *BusError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BusError", err)
	}
	if be.Addr != 0x40000000 {
		t.Errorf("addr = 0x%x", be.Addr)
	}
}

func TestFetchOutsideRAM(t *testing.T) {
	c, _, _ := buildPlain(t, `
_start:
	li t0, 0x10000000
	jr t0
`)
	var delay kernel.Time
	_, _, err := c.Run(100, &delay)
	var be *BusError
	if !errors.As(err, &be) || !strings.Contains(be.Error(), "fetch") {
		t.Fatalf("err = %v, want fetch BusError", err)
	}
}

func TestWFIAndTimerInterrupt(t *testing.T) {
	c, _, _ := buildPlain(t, `
_start:
	la t0, handler
	csrw mtvec, t0
	li t1, 0x80          # MTIE
	csrw mie, t1
	csrsi mstatus, 8     # MIE
	wfi
	li s1, 1             # after wake + handler return
	call halt
handler:
	addi s0, s0, 1
	csrr t2, mip         # observe pending line
	csrw mie, x0         # mask the (still-high) timer line before mret
	mret
`)
	var delay kernel.Time
	n, st, err := c.Run(1000, &delay)
	if err != nil || st != RunWFI {
		t.Fatalf("n=%d st=%v err=%v, want WFI stop", n, st, err)
	}
	if c.PendingIRQ() {
		t.Fatal("no IRQ should be pending yet")
	}
	// Raise the timer line, as the CLINT would.
	c.SetIRQ(IntMTI, true)
	if !c.PendingIRQ() {
		t.Fatal("IRQ must be pending now")
	}
	_, st, err = c.Run(1000, &delay)
	if err != nil {
		t.Fatal(err)
	}
	if st != RunHalt {
		t.Fatalf("st = %v, want halt", st)
	}
	if c.Regs[8] != 1 || c.Regs[9] != 1 {
		t.Errorf("s0=%d s1=%d, want handler once then resume", c.Regs[8], c.Regs[9])
	}
	if c.Regs[7]&IntMTI == 0 {
		t.Error("handler must observe MTIP in mip")
	}
}

func TestInterruptPriorityExternalOverTimer(t *testing.T) {
	c, _, _ := buildPlain(t, `
_start:
	la t0, handler
	csrw mtvec, t0
	li t1, 0x880         # MTIE | MEIE
	csrw mie, t1
	csrsi mstatus, 8
1:	j 1b
handler:
	csrr s0, mcause
	call halt
`)
	var delay kernel.Time
	// Let setup run, then raise both lines.
	if _, _, err := c.Run(10, &delay); err != nil {
		t.Fatal(err)
	}
	c.SetIRQ(IntMTI, true)
	c.SetIRQ(IntMEI, true)
	if _, st, err := c.Run(1000, &delay); err != nil || st != RunHalt {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if c.Regs[8] != CauseMExtInt {
		t.Errorf("mcause = 0x%x, want external interrupt (priority over timer)", c.Regs[8])
	}
}

func TestInterruptDisabledByMIE(t *testing.T) {
	c, _, _ := buildPlain(t, `
_start:
	la t0, handler
	csrw mtvec, t0
	li t1, 0x80
	csrw mie, t1
	# mstatus.MIE left off
	li s0, 0
	li s1, 100
1:	addi s0, s0, 1
	blt s0, s1, 1b
	call halt
handler:
	li s2, 99
	mret
`)
	var delay kernel.Time
	if _, _, err := c.Run(10, &delay); err != nil {
		t.Fatal(err)
	}
	c.SetIRQ(IntMTI, true)
	if _, st, err := c.Run(100000, &delay); err != nil || st != RunHalt {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if c.Regs[18] == 99 {
		t.Error("interrupt taken despite mstatus.MIE=0")
	}
}

func TestInstretCounting(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	nop
	nop
	nop
	call halt
`)
	// 3 nops + li t6 (2: lui would be 1... li 0x11000000 = single lui) +
	// jal + sw + (loop after halt store never reached? halted checked next
	// iteration, so sw counts, then loop j runs 0 times).
	if c.Instret < 6 || c.Instret > 8 {
		t.Errorf("instret = %d, want ~7", c.Instret)
	}
}

func TestRunQuantumResume(t *testing.T) {
	c, _, _ := buildPlain(t, `
_start:
	li s0, 0
	li s1, 1000
1:	addi s0, s0, 1
	blt s0, s1, 1b
	call halt
`)
	var delay kernel.Time
	total := uint64(0)
	for i := 0; i < 10000; i++ {
		n, st, err := c.Run(7, &delay)
		total += n
		if err != nil {
			t.Fatal(err)
		}
		if st == RunHalt {
			break
		}
	}
	if c.Regs[8] != 1000 {
		t.Errorf("s0 = %d: quantum-resumed execution diverged", c.Regs[8])
	}
	if total != c.Instret {
		t.Errorf("sum of quanta %d != instret %d", total, c.Instret)
	}
}

func TestRunStatusString(t *testing.T) {
	if RunOK.String() != "ok" || RunWFI.String() != "wfi" || RunHalt.String() != "halt" {
		t.Error("status strings")
	}
	if !strings.Contains(RunStatus(42).String(), "42") {
		t.Error("unknown status string")
	}
}

func TestMMIOLoadStore(t *testing.T) {
	// A device register at 0x20000000 that returns written value + 1.
	c, img, _ := buildPlain(t, `
_start:
	li t0, 0x20000000
	li t1, 41
	sw t1, 0(t0)
	lw a0, 0(t0)
	call halt
`)
	var reg uint32
	bus := tlm.NewBus()
	// Rebuild the core with an extra device: easier to re-create buses here.
	img2 := img
	ram := mem.NewPlain(testRAMSize)
	if err := ram.Load(0, img2.Flatten()); err != nil {
		t.Fatal(err)
	}
	c = NewCore(bus)
	c.AttachRAM(ram, testRAMBase)
	c.SizeDecodeCache(img2.End() - testRAMBase)
	bus.MustMap("exit", testExit, 4, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		c.Halted = true
		p.Resp = tlm.OK
	}))
	bus.MustMap("dev", 0x20000000, 4, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		switch p.Cmd {
		case tlm.Read:
			v := reg + 1
			for j := range p.Data {
				p.Data[j] = core.B(byte(v>>(8*uint(j))), 0)
			}
		case tlm.Write:
			reg = 0
			for j := range p.Data {
				reg |= uint32(p.Data[j].V) << (8 * uint(j))
			}
		}
		p.Resp = tlm.OK
	}))
	c.PC = img2.Entry
	var delay kernel.Time
	if _, st, err := c.Run(1000, &delay); err != nil || st != RunHalt {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if reg != 41 {
		t.Errorf("device saw %d", reg)
	}
	if c.Regs[10] != 42 {
		t.Errorf("a0 = %d, want 42", c.Regs[10])
	}
}

func TestDecodeInvalidWords(t *testing.T) {
	bad := []uint32{
		0x00000000, 0xFFFFFFFF,
		0x00002067,                 // jalr with funct3 != 0
		0x00003063,                 // branch funct3 == 3
		0x00003003,                 // load funct3 == 3
		0x00004023,                 // store funct3 == 4
		0x02000013 | 2<<25 | 1<<12, // slli with bad funct7
		0x40000033 | 1<<12,         // f7=0x20 with funct3=1
		0x00404073,                 // system funct3=4
	}
	for _, w := range bad {
		if got := Decode(w); got.Op != OpIllegal {
			t.Errorf("Decode(0x%08x) = %s, want illegal", w, got.Op.Name())
		}
	}
}

func TestDisassembleSmoke(t *testing.T) {
	cases := map[uint32]string{
		0x00A10093:     "addi ra, sp, 10",
		0x005201B3:     "add gp, tp, t0",
		0x00512423:     "sw t0, 8(sp)",
		0xFFC52303:     "lw t1, -4(a0)",
		0x00000073:     "ecall",
		0x30200073:     "mret",
		0x123452B7:     "lui t0, 0x12345",
		0x00208463:     "beq ra, sp, 0x1008",
		0x300110F3:     "csrrw ra, mstatus, sp",
		0x3052D073:     "csrrwi zero, mtvec, 5",
		0xDEADBEEF + 1: "", // likely illegal; just exercise the path
	}
	for w, want := range cases {
		got := Disassemble(w, 0x1000)
		if want != "" && got != want {
			t.Errorf("Disassemble(0x%08x) = %q, want %q", w, got, want)
		}
	}
	if !strings.Contains(Disassemble(0, 0), ".word") {
		t.Error("illegal word must disassemble as .word")
	}
}

// TestDifferentialPlainVsTaint runs generated programs on both cores and
// requires identical architectural state — registers, PC, CSRs, instret
// and memory. The TaintCore must differ from Core only by its tag
// tracking, never in values. The programs take ecall, ebreak and
// illegal-CSR traps into a handler that reads the trap CSRs and returns
// past the trapping instruction, and set and clear machine-mode CSRs.
func TestDifferentialPlainVsTaint(t *testing.T) {
	seed := uint32(0x1234567)
	rnd := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	ops := []string{"add", "sub", "xor", "or", "and", "sll", "srl", "sra",
		"slt", "sltu", "mul", "mulh", "mulhu", "mulhsu", "div", "divu", "rem", "remu"}
	branches := []string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}
	stores := []string{"sb", "sh", "sw"}
	loads := []string{"lb", "lbu", "lh", "lhu", "lw"}
	traps := []string{"ecall", "ebreak", "csrr x%d, 0x7c0", "csrw cycle, x%d"}
	csrOps := []string{"csrrs x%d, %s, x%d", "csrrc x%d, %s, x%d", "csrrwi x%d, %s, %d"}
	csrs := []string{"mstatus", "mie", "mscratch"}
	for trial := 0; trial < 8; trial++ {
		var b strings.Builder
		b.WriteString("_start:\n")
		// Seed registers x5..x15 with random constants.
		for r := 5; r <= 15; r++ {
			fmt.Fprintf(&b, "\tli x%d, 0x%08x\n", r, rnd())
		}
		for k := 0; k < 250; k++ {
			rd := 5 + rnd()%11
			rs1 := 5 + rnd()%11
			rs2 := 5 + rnd()%11
			switch rnd() % 10 {
			case 0, 1, 2, 3:
				op := ops[rnd()%uint32(len(ops))]
				fmt.Fprintf(&b, "\t%s x%d, x%d, x%d\n", op, rd, rs1, rs2)
			case 4:
				fmt.Fprintf(&b, "\t%s x%d, %d(x31)\n", stores[rnd()%3], rd, rnd()%250)
			case 5:
				fmt.Fprintf(&b, "\t%s x%d, %d(x31)\n", loads[rnd()%5], rd, rnd()%250)
			case 6:
				// Forward branch over one instruction: both cores must
				// agree on the condition.
				br := branches[rnd()%uint32(len(branches))]
				fmt.Fprintf(&b, "\t%s x%d, x%d, 1f\n", br, rs1, rs2)
				fmt.Fprintf(&b, "\taddi x%d, x%d, 1\n1:\n", rd, rd)
			case 7:
				// CSR round trip through mscratch.
				fmt.Fprintf(&b, "\tcsrrw x%d, mscratch, x%d\n", rd, rs1)
				fmt.Fprintf(&b, "\tcsrrs x%d, mscratch, x%d\n", rs2, 0)
			case 8:
				// A trap into handler, which resumes after it.
				tr := traps[rnd()%uint32(len(traps))]
				if strings.Contains(tr, "%d") {
					tr = fmt.Sprintf(tr, rd)
				}
				fmt.Fprintf(&b, "\t%s\n", tr)
			case 9:
				// Set, clear or write a machine-mode CSR. No interrupt
				// line is driven, so enabling interrupts takes none.
				op, csr := csrOps[rnd()%uint32(len(csrOps))], csrs[rnd()%uint32(len(csrs))]
				src := rs1
				if strings.HasPrefix(op, "csrrwi") {
					src = rnd() % 32
				}
				fmt.Fprintf(&b, "\t"+op+"\n", rd, csr, src)
			}
			if k%17 == 0 {
				fmt.Fprintf(&b, "\tsw x%d, %d(x31)\n", rd, (rnd()%64)*4)
			}
		}
		b.WriteString("\tcall halt\n")
		// The handler counts traps in x27 and keeps the trap CSRs it read
		// in x28..x30, all compared below.
		b.WriteString(`handler:
	addi x27, x27, 1
	csrr x28, mcause
	csrr x29, mtval
	csrr x30, mepc
	addi x30, x30, 4
	csrw mepc, x30
	mret
`)
		src := "\t.equ SCRATCH, 0x80080000\n" +
			strings.Replace(b.String(), "_start:\n", "_start:\n\tli x31, SCRATCH\n\tla x30, handler\n\tcsrw mtvec, x30\n", 1)

		plain, _, plainRAM := runPlain(t, src)

		// Taint run with an all-permissive policy.
		l := core.IFP2()
		pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
		img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
		ram := mem.New(testRAMSize, pol.Default)
		if err := ram.Load(0, img.Flatten(), pol.Default); err != nil {
			t.Fatal(err)
		}
		bus := tlm.NewBus()
		tc := NewTaintCore(bus, pol)
		tc.AttachRAM(ram, testRAMBase)
		tc.SizeDecodeCache(img.End() - testRAMBase)
		bus.MustMap("exit", testExit, 4, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
			tc.Halted = true
			p.Resp = tlm.OK
		}))
		tc.PC = img.Entry
		var delay kernel.Time
		if _, st, err := tc.Run(1_000_000, &delay); err != nil || st != RunHalt {
			t.Fatalf("trial %d taint run: st=%v err=%v", trial, st, err)
		}
		for r := 0; r < 32; r++ {
			if plain.Regs[r] != tc.Regs[r].V {
				t.Fatalf("trial %d: x%d plain=0x%08x taint=0x%08x", trial, r, plain.Regs[r], tc.Regs[r].V)
			}
		}
		if plain.Regs[27] == 0 {
			t.Fatalf("trial %d: the program took no trap", trial)
		}
		if plain.Instret != tc.Instret || plain.PC != tc.PC {
			t.Fatalf("trial %d: instret, pc plain=%d, 0x%08x taint=%d, 0x%08x",
				trial, plain.Instret, plain.PC, tc.Instret, tc.PC)
		}
		csrValues := func(m *mmode) [8]uint32 {
			return [8]uint32{m.mstatus, m.mie, m.mip, m.mtvec, m.mepc, m.mcause, m.mtval, m.mscratch}
		}
		if p, tv := csrValues(&plain.mmode), csrValues(&tc.mmode); p != tv {
			t.Fatalf("trial %d: mstatus, mie, mip, mtvec, mepc, mcause, mtval, mscratch\nplain=%x\ntaint=%x", trial, p, tv)
		}
		for off := uint32(0x80000); off < 0x80000+256; off++ {
			if plainRAM.Data()[off] != ram.Data()[off].V {
				t.Fatalf("trial %d: memory diverged at +0x%x", trial, off)
			}
		}
	}
}
