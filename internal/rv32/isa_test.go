package rv32

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
)

// isaOperands are the operand values every binary operation is checked
// against — zeros, ones, sign boundaries, shift-amount edges.
var isaOperands = []uint32{
	0, 1, 2, 31, 32, 33, 0x7fffffff, 0x80000000, 0xffffffff,
	0xfffffffe, 0x12345678, 0xdeadbeef, 100, 0xffffff9c, /* -100 */
}

// aluOracles give the architectural result of each R-type operation.
var aluOracles = map[string]func(a, b uint32) uint32{
	"add":    func(a, b uint32) uint32 { return a + b },
	"sub":    func(a, b uint32) uint32 { return a - b },
	"sll":    func(a, b uint32) uint32 { return a << (b & 31) },
	"srl":    func(a, b uint32) uint32 { return a >> (b & 31) },
	"sra":    func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) },
	"and":    func(a, b uint32) uint32 { return a & b },
	"or":     func(a, b uint32) uint32 { return a | b },
	"xor":    func(a, b uint32) uint32 { return a ^ b },
	"slt":    func(a, b uint32) uint32 { return b2u(int32(a) < int32(b)) },
	"sltu":   func(a, b uint32) uint32 { return b2u(a < b) },
	"mul":    func(a, b uint32) uint32 { return a * b },
	"mulh":   func(a, b uint32) uint32 { return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32) },
	"mulhu":  func(a, b uint32) uint32 { return uint32(uint64(a) * uint64(b) >> 32) },
	"mulhsu": func(a, b uint32) uint32 { return uint32(uint64(int64(int32(a))*int64(b)) >> 32) },
	"div":    divS,
	"divu":   divU,
	"rem":    remS,
	"remu":   remU,
}

// TestISAOracleALU runs every R-type operation over the operand matrix on
// the plain core and compares each result against the Go oracle.
func TestISAOracleALU(t *testing.T) {
	// Deterministic iteration order for reproducible failures.
	var names []string
	for n := range aluOracles {
		names = append(names, n)
	}
	for _, mnem := range names {
		t.Run(mnem, func(t *testing.T) {
			var b strings.Builder
			fmt.Fprintf(&b, "_start:\n\tla s0, results\n")
			for i, a := range isaOperands {
				for j, bv := range isaOperands {
					fmt.Fprintf(&b, "\tli t0, 0x%08x\n\tli t1, 0x%08x\n", a, bv)
					fmt.Fprintf(&b, "\t%s t2, t0, t1\n", mnem)
					fmt.Fprintf(&b, "\tsw t2, %d(s0)\n", (i*len(isaOperands)+j)*4)
				}
			}
			b.WriteString("\tcall halt\n\t.bss\n\t.align 4\nresults:\n")
			fmt.Fprintf(&b, "\t.space %d\n", len(isaOperands)*len(isaOperands)*4)

			_, img, ram := runPlain(t, b.String())
			base := img.MustSymbol("results") - testRAMBase
			oracle := aluOracles[mnem]
			for i, a := range isaOperands {
				for j, bv := range isaOperands {
					off := base + uint32(i*len(isaOperands)+j)*4
					got := binary.LittleEndian.Uint32(ram.Data()[off:])
					if want := oracle(a, bv); got != want {
						t.Errorf("%s(0x%08x, 0x%08x) = 0x%08x, want 0x%08x", mnem, a, bv, got, want)
					}
				}
			}
		})
	}
}

// TestISAOracleImmediates covers the I-type operations against the same
// oracles (sharing semantics with their R-type versions).
func TestISAOracleImmediates(t *testing.T) {
	imms := []int32{0, 1, -1, 2047, -2048, 100, -77}
	ops := map[string]func(a uint32, imm int32) uint32{
		"addi":  func(a uint32, i int32) uint32 { return a + uint32(i) },
		"xori":  func(a uint32, i int32) uint32 { return a ^ uint32(i) },
		"ori":   func(a uint32, i int32) uint32 { return a | uint32(i) },
		"andi":  func(a uint32, i int32) uint32 { return a & uint32(i) },
		"slti":  func(a uint32, i int32) uint32 { return b2u(int32(a) < i) },
		"sltiu": func(a uint32, i int32) uint32 { return b2u(a < uint32(i)) },
	}
	var names []string
	for n := range ops {
		names = append(names, n)
	}
	for _, mnem := range names {
		t.Run(mnem, func(t *testing.T) {
			var b strings.Builder
			b.WriteString("_start:\n\tla s0, results\n")
			for i, a := range isaOperands {
				for j, im := range imms {
					fmt.Fprintf(&b, "\tli t0, 0x%08x\n", a)
					fmt.Fprintf(&b, "\t%s t2, t0, %d\n", mnem, im)
					fmt.Fprintf(&b, "\tsw t2, %d(s0)\n", (i*len(imms)+j)*4)
				}
			}
			b.WriteString("\tcall halt\n\t.bss\n\t.align 4\nresults:\n")
			fmt.Fprintf(&b, "\t.space %d\n", len(isaOperands)*len(imms)*4)

			_, img, ram := runPlain(t, b.String())
			base := img.MustSymbol("results") - testRAMBase
			for i, a := range isaOperands {
				for j, im := range imms {
					off := base + uint32(i*len(imms)+j)*4
					got := binary.LittleEndian.Uint32(ram.Data()[off:])
					if want := ops[mnem](a, im); got != want {
						t.Errorf("%s(0x%08x, %d) = 0x%08x, want 0x%08x", mnem, a, im, got, want)
					}
				}
			}
		})
	}
}

// TestISAShiftImmediates covers slli/srli/srai over all shift amounts.
func TestISAShiftImmediates(t *testing.T) {
	val := uint32(0x80c01234)
	var b strings.Builder
	b.WriteString("_start:\n\tla s0, results\n")
	idx := 0
	for sh := 0; sh < 32; sh++ {
		for _, mnem := range []string{"slli", "srli", "srai"} {
			fmt.Fprintf(&b, "\tli t0, 0x%08x\n\t%s t2, t0, %d\n\tsw t2, %d(s0)\n", val, mnem, sh, idx*4)
			idx++
		}
	}
	b.WriteString("\tcall halt\n\t.bss\n\t.align 4\nresults:\n")
	fmt.Fprintf(&b, "\t.space %d\n", idx*4)
	_, img, ram := runPlain(t, b.String())
	base := img.MustSymbol("results") - testRAMBase
	idx = 0
	for sh := 0; sh < 32; sh++ {
		wants := []uint32{val << sh, val >> sh, uint32(int32(val) >> sh)}
		for k, mnem := range []string{"slli", "srli", "srai"} {
			got := binary.LittleEndian.Uint32(ram.Data()[base+uint32(idx*4):])
			if got != wants[k] {
				t.Errorf("%s by %d = 0x%08x, want 0x%08x", mnem, sh, got, wants[k])
			}
			idx++
		}
	}
}

// TestISABranchMatrix verifies every branch condition over signed/unsigned
// boundary pairs by counting taken branches.
func TestISABranchMatrix(t *testing.T) {
	pairs := [][2]uint32{
		{0, 0}, {1, 0}, {0, 1}, {0x7fffffff, 0x80000000}, {0x80000000, 0x7fffffff},
		{0xffffffff, 0}, {0, 0xffffffff}, {5, 5},
	}
	oracles := map[string]func(a, b uint32) bool{
		"beq":  func(a, b uint32) bool { return a == b },
		"bne":  func(a, b uint32) bool { return a != b },
		"blt":  func(a, b uint32) bool { return int32(a) < int32(b) },
		"bge":  func(a, b uint32) bool { return int32(a) >= int32(b) },
		"bltu": func(a, b uint32) bool { return a < b },
		"bgeu": func(a, b uint32) bool { return a >= b },
	}
	for mnem, oracle := range oracles {
		var b strings.Builder
		b.WriteString("_start:\n\tla s0, results\n")
		for i, p := range pairs {
			fmt.Fprintf(&b, "\tli t0, 0x%08x\n\tli t1, 0x%08x\n\tli t2, 0\n", p[0], p[1])
			fmt.Fprintf(&b, "\t%s t0, t1, 1f\n\tj 2f\n1:\tli t2, 1\n2:\tsw t2, %d(s0)\n", mnem, i*4)
		}
		b.WriteString("\tcall halt\n\t.bss\n\t.align 4\nresults:\n")
		fmt.Fprintf(&b, "\t.space %d\n", len(pairs)*4)
		_, img, ram := runPlain(t, b.String())
		base := img.MustSymbol("results") - testRAMBase
		for i, p := range pairs {
			got := binary.LittleEndian.Uint32(ram.Data()[base+uint32(i*4):])
			want := b2u(oracle(p[0], p[1]))
			if got != want {
				t.Errorf("%s(0x%08x, 0x%08x) taken=%d, want %d", mnem, p[0], p[1], got, want)
			}
		}
	}
}

// TestISAUnalignedAccess verifies the cores allow unaligned loads/stores
// (the platform supports them, like many embedded RV32 implementations).
func TestISAUnalignedAccess(t *testing.T) {
	c, img, _ := runPlain(t, `
_start:
	la t0, buf
	li t1, 0xA1B2C3D4
	sw t1, 1(t0)       # unaligned word store
	lw a0, 1(t0)       # unaligned word load
	lhu a1, 3(t0)      # unaligned half
	call halt
	.data
	.align 2
buf:
	.space 8
`)
	_ = img
	if c.Regs[10] != 0xA1B2C3D4 {
		t.Errorf("unaligned lw = 0x%08x", c.Regs[10])
	}
	if c.Regs[11] != 0xA1B2 {
		t.Errorf("unaligned lhu = 0x%08x", c.Regs[11])
	}
}

// TestISAAuipcJalr checks PC-relative addressing and the jalr LSB clearing.
func TestISAAuipcJalr(t *testing.T) {
	c, _, _ := runPlain(t, `
_start:
	auipc s0, 0          # s0 = pc of this instruction
	la t0, target
	addi t0, t0, 1       # odd target: jalr must clear bit 0
	jalr s1, 0(t0)       # s1 = return address
dead:
	li s2, 0xBAD
	call halt
target:
	li s2, 0x600D
	call halt
`)
	if c.Regs[18] != 0x600D {
		t.Errorf("jalr did not clear the target LSB (s2=0x%x)", c.Regs[18])
	}
	if c.Regs[8] != testRAMBase {
		t.Errorf("auipc = 0x%08x, want 0x%08x", c.Regs[8], uint32(testRAMBase))
	}
}

// TestISADisassembleDecodeAgree: for every decodable op, the mnemonic the
// disassembler prints must match the decoder's op name.
func TestISADisassembleDecodeAgree(t *testing.T) {
	words := []uint32{
		0x00A10093, 0x005201B3, 0x405201B3, 0x00C5F533, 0x123452B7, 0x12345297,
		0x0000006F, 0x00008067, 0x00208463, 0x00512423, 0xFFC52303, 0x00054303,
		0x00255303, 0x005100A3, 0x00511123, 0x023100B3, 0x023150B3, 0x023170B3,
		0x4040D093, 0x00409093, 0x0040D093, 0x00113093, 0xFFF14093, 0x004280E7,
		0x300110F3, 0x304020F3, 0x3052D073, 0x00000073, 0x00100073, 0x30200073,
		0x10500073, 0x0FF0000F, 0x0000100F,
	}
	for _, w := range words {
		inst := Decode(w)
		if inst.Op == OpIllegal {
			t.Errorf("0x%08x decodes as illegal", w)
			continue
		}
		dis := Disassemble(w, 0x1000)
		mnem := strings.Fields(dis)[0]
		if mnem != inst.Op.Name() {
			t.Errorf("0x%08x: disasm %q vs decode %q", w, mnem, inst.Op.Name())
		}
	}
}

// TestRetireStreamOnBothCores verifies the per-retire tap: a flight stream
// subscriber sees every instruction either core retired, in order, each
// record carrying the successor PC the next record starts at. The ring is
// smaller than the program, so the capture sites must flush mid-run.
func TestRetireStreamOnBothCores(t *testing.T) {
	const src = "_start:\n\tnop\n\tnop\n\tcall halt\n"
	l := core.IFP2()
	plain, _, _ := buildPlain(t, src)
	taint := buildTaint(t, src, core.NewPolicy(l, l.MustTag(core.ClassLI))).c
	for _, tc := range []struct {
		name string
		run  func(fr *flight.Recorder, delay *kernel.Time) (uint64, RunStatus, error)
	}{
		{"VP", func(fr *flight.Recorder, delay *kernel.Time) (uint64, RunStatus, error) {
			plain.FR = fr
			return plain.Run(100, delay)
		}},
		{"VP+", func(fr *flight.Recorder, delay *kernel.Time) (uint64, RunStatus, error) {
			taint.FR = fr
			return taint.Run(100, delay)
		}},
	} {
		fr := flight.New(4)
		var recs []flight.Rec
		fr.Subscribe(func(b []flight.Rec) { recs = append(recs, b...) })
		var delay kernel.Time
		n, st, err := tc.run(fr, &delay)
		if err != nil || st != RunHalt {
			t.Fatalf("%s: st=%v err=%v", tc.name, st, err)
		}
		fr.Flush()
		if uint64(len(recs)) != n || n < 4 {
			t.Fatalf("%s: subscriber saw %d records for %d retired instructions", tc.name, len(recs), n)
		}
		if recs[0].PC != testRAMBase || recs[1].PC != testRAMBase+4 {
			t.Errorf("%s: stream starts at 0x%08x, 0x%08x", tc.name, recs[0].PC, recs[1].PC)
		}
		for k, r := range recs {
			if r.Kind != flight.KindRetire || r.Time != uint64(k) {
				t.Fatalf("%s: record %d = %+v, want retire at time %d", tc.name, k, r, k)
			}
			if k > 0 && r.PC != recs[k-1].Next() {
				t.Errorf("%s: record %d at 0x%08x, predecessor's successor PC 0x%08x", tc.name, k, r.PC, recs[k-1].Next())
			}
		}
	}
}
