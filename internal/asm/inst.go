package asm

import "fmt"

// Register names: x0..x31 plus the standard ABI names.
var regNames = map[string]int{
	"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
	"t0": 5, "t1": 6, "t2": 7,
	"s0": 8, "fp": 8, "s1": 9,
	"a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
	"s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23, "s8": 24, "s9": 25, "s10": 26, "s11": 27,
	"t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

func init() {
	for i := 0; i < 32; i++ {
		regNames[fmt.Sprintf("x%d", i)] = i
	}
}

// regNum resolves a register name, reporting whether it is one.
func regNum(name string) (int, bool) {
	r, ok := regNames[name]
	return r, ok
}

// CSR addresses understood by the assembler (machine-mode subset of the
// RISC-V privileged spec, matching internal/rv32).
var csrNames = map[string]uint32{
	"mstatus":   0x300,
	"misa":      0x301,
	"mie":       0x304,
	"mtvec":     0x305,
	"mscratch":  0x340,
	"mepc":      0x341,
	"mcause":    0x342,
	"mtval":     0x343,
	"mip":       0x344,
	"mvendorid": 0xF11,
	"marchid":   0xF12,
	"mimpid":    0xF13,
	"mhartid":   0xF14,
	"mcycle":    0xB00,
	"mcycleh":   0xB80,
	"minstret":  0xB02,
	"minstreth": 0xB82,
	"cycle":     0xC00,
	"time":      0xC01,
	"instret":   0xC02,
	"cycleh":    0xC80,
	"timeh":     0xC81,
	"instreth":  0xC82,
}

// RISC-V base opcodes.
const (
	opLUI    = 0x37
	opAUIPC  = 0x17
	opJAL    = 0x6F
	opJALR   = 0x67
	opBRANCH = 0x63
	opLOAD   = 0x03
	opSTORE  = 0x23
	opOPIMM  = 0x13
	opOP     = 0x33
	opSYSTEM = 0x73
)

// instFormat selects operand shape and encoder.
type instFormat int

const (
	fmtR      instFormat = iota // mnem rd, rs1, rs2
	fmtI                        // mnem rd, rs1, imm12
	fmtShift                    // mnem rd, rs1, shamt5
	fmtLoad                     // mnem rd, off(rs1)
	fmtStore                    // mnem rs2, off(rs1)
	fmtBranch                   // mnem rs1, rs2, target
	fmtU                        // mnem rd, imm20
	fmtJ                        // mnem rd, target
	fmtJalr                     // mnem rd, off(rs1) | rd, rs1
	fmtCSR                      // mnem rd, csr, rs1
	fmtCSRI                     // mnem rd, csr, uimm5
	fmtFixed                    // mnem (fixed encoding: ecall, mret, ...)
)

type instDef struct {
	format instFormat
	opcode uint32
	funct3 uint32
	funct7 uint32
	fixed  uint32 // for fmtFixed
}

// instTable defines all base (non-pseudo) instructions: RV32I, M, Zicsr,
// Zifencei, and the machine-mode returns.
var instTable = map[string]instDef{
	// RV32I register-register.
	"add":  {format: fmtR, opcode: opOP, funct3: 0, funct7: 0x00},
	"sub":  {format: fmtR, opcode: opOP, funct3: 0, funct7: 0x20},
	"sll":  {format: fmtR, opcode: opOP, funct3: 1, funct7: 0x00},
	"slt":  {format: fmtR, opcode: opOP, funct3: 2, funct7: 0x00},
	"sltu": {format: fmtR, opcode: opOP, funct3: 3, funct7: 0x00},
	"xor":  {format: fmtR, opcode: opOP, funct3: 4, funct7: 0x00},
	"srl":  {format: fmtR, opcode: opOP, funct3: 5, funct7: 0x00},
	"sra":  {format: fmtR, opcode: opOP, funct3: 5, funct7: 0x20},
	"or":   {format: fmtR, opcode: opOP, funct3: 6, funct7: 0x00},
	"and":  {format: fmtR, opcode: opOP, funct3: 7, funct7: 0x00},
	// M extension.
	"mul":    {format: fmtR, opcode: opOP, funct3: 0, funct7: 0x01},
	"mulh":   {format: fmtR, opcode: opOP, funct3: 1, funct7: 0x01},
	"mulhsu": {format: fmtR, opcode: opOP, funct3: 2, funct7: 0x01},
	"mulhu":  {format: fmtR, opcode: opOP, funct3: 3, funct7: 0x01},
	"div":    {format: fmtR, opcode: opOP, funct3: 4, funct7: 0x01},
	"divu":   {format: fmtR, opcode: opOP, funct3: 5, funct7: 0x01},
	"rem":    {format: fmtR, opcode: opOP, funct3: 6, funct7: 0x01},
	"remu":   {format: fmtR, opcode: opOP, funct3: 7, funct7: 0x01},
	// RV32I immediate.
	"addi":  {format: fmtI, opcode: opOPIMM, funct3: 0},
	"slti":  {format: fmtI, opcode: opOPIMM, funct3: 2},
	"sltiu": {format: fmtI, opcode: opOPIMM, funct3: 3},
	"xori":  {format: fmtI, opcode: opOPIMM, funct3: 4},
	"ori":   {format: fmtI, opcode: opOPIMM, funct3: 6},
	"andi":  {format: fmtI, opcode: opOPIMM, funct3: 7},
	"slli":  {format: fmtShift, opcode: opOPIMM, funct3: 1, funct7: 0x00},
	"srli":  {format: fmtShift, opcode: opOPIMM, funct3: 5, funct7: 0x00},
	"srai":  {format: fmtShift, opcode: opOPIMM, funct3: 5, funct7: 0x20},
	// Loads and stores.
	"lb":  {format: fmtLoad, opcode: opLOAD, funct3: 0},
	"lh":  {format: fmtLoad, opcode: opLOAD, funct3: 1},
	"lw":  {format: fmtLoad, opcode: opLOAD, funct3: 2},
	"lbu": {format: fmtLoad, opcode: opLOAD, funct3: 4},
	"lhu": {format: fmtLoad, opcode: opLOAD, funct3: 5},
	"sb":  {format: fmtStore, opcode: opSTORE, funct3: 0},
	"sh":  {format: fmtStore, opcode: opSTORE, funct3: 1},
	"sw":  {format: fmtStore, opcode: opSTORE, funct3: 2},
	// Control flow.
	"beq":  {format: fmtBranch, opcode: opBRANCH, funct3: 0},
	"bne":  {format: fmtBranch, opcode: opBRANCH, funct3: 1},
	"blt":  {format: fmtBranch, opcode: opBRANCH, funct3: 4},
	"bge":  {format: fmtBranch, opcode: opBRANCH, funct3: 5},
	"bltu": {format: fmtBranch, opcode: opBRANCH, funct3: 6},
	"bgeu": {format: fmtBranch, opcode: opBRANCH, funct3: 7},
	"jal":  {format: fmtJ, opcode: opJAL},
	"jalr": {format: fmtJalr, opcode: opJALR, funct3: 0},
	// Upper immediates.
	"lui":   {format: fmtU, opcode: opLUI},
	"auipc": {format: fmtU, opcode: opAUIPC},
	// Zicsr.
	"csrrw":  {format: fmtCSR, opcode: opSYSTEM, funct3: 1},
	"csrrs":  {format: fmtCSR, opcode: opSYSTEM, funct3: 2},
	"csrrc":  {format: fmtCSR, opcode: opSYSTEM, funct3: 3},
	"csrrwi": {format: fmtCSRI, opcode: opSYSTEM, funct3: 5},
	"csrrsi": {format: fmtCSRI, opcode: opSYSTEM, funct3: 6},
	"csrrci": {format: fmtCSRI, opcode: opSYSTEM, funct3: 7},
	// Fixed encodings.
	"ecall":   {format: fmtFixed, fixed: 0x00000073},
	"ebreak":  {format: fmtFixed, fixed: 0x00100073},
	"mret":    {format: fmtFixed, fixed: 0x30200073},
	"wfi":     {format: fmtFixed, fixed: 0x10500073},
	"fence":   {format: fmtFixed, fixed: 0x0ff0000f},
	"fence.i": {format: fmtFixed, fixed: 0x0000100f},
}

// Encoders. Immediate range errors are reported with the caller's context.

func encR(d instDef, rd, rs1, rs2 int) uint32 {
	return d.funct7<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | d.funct3<<12 | uint32(rd)<<7 | d.opcode
}

func encI(d instDef, rd, rs1 int, imm int64) (uint32, error) {
	if imm < -2048 || imm > 2047 {
		return 0, fmt.Errorf("immediate %d out of 12-bit signed range", imm)
	}
	return uint32(imm&0xfff)<<20 | uint32(rs1)<<15 | d.funct3<<12 | uint32(rd)<<7 | d.opcode, nil
}

func encShift(d instDef, rd, rs1 int, shamt int64) (uint32, error) {
	if shamt < 0 || shamt > 31 {
		return 0, fmt.Errorf("shift amount %d out of range 0..31", shamt)
	}
	return d.funct7<<25 | uint32(shamt)<<20 | uint32(rs1)<<15 | d.funct3<<12 | uint32(rd)<<7 | d.opcode, nil
}

func encS(d instDef, rs1, rs2 int, imm int64) (uint32, error) {
	if imm < -2048 || imm > 2047 {
		return 0, fmt.Errorf("store offset %d out of 12-bit signed range", imm)
	}
	u := uint32(imm & 0xfff)
	return (u>>5)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | d.funct3<<12 | (u&0x1f)<<7 | d.opcode, nil
}

func encB(d instDef, rs1, rs2 int, off int64) (uint32, error) {
	if off < -4096 || off > 4095 {
		return 0, fmt.Errorf("branch target offset %d out of range (+-4KiB)", off)
	}
	if off&1 != 0 {
		return 0, fmt.Errorf("branch target offset %d not 2-byte aligned", off)
	}
	u := uint32(off) & 0x1fff
	return (u>>12&1)<<31 | (u>>5&0x3f)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 |
		d.funct3<<12 | (u>>1&0xf)<<8 | (u>>11&1)<<7 | d.opcode, nil
}

func encU(d instDef, rd int, imm int64) (uint32, error) {
	if imm < 0 || imm > 0xfffff {
		return 0, fmt.Errorf("upper immediate %d out of 20-bit range", imm)
	}
	return uint32(imm)<<12 | uint32(rd)<<7 | d.opcode, nil
}

func encJ(d instDef, rd int, off int64) (uint32, error) {
	if off < -(1<<20) || off >= 1<<20 {
		return 0, fmt.Errorf("jump target offset %d out of range (+-1MiB)", off)
	}
	if off&1 != 0 {
		return 0, fmt.Errorf("jump target offset %d not 2-byte aligned", off)
	}
	u := uint32(off) & 0x1fffff
	return (u>>20&1)<<31 | (u>>1&0x3ff)<<21 | (u>>11&1)<<20 | (u>>12&0xff)<<12 | uint32(rd)<<7 | d.opcode, nil
}

func encCSR(d instDef, rd int, csr uint32, rs1 int) (uint32, error) {
	if csr > 0xfff {
		return 0, fmt.Errorf("CSR address 0x%x out of range", csr)
	}
	return csr<<20 | uint32(rs1)<<15 | d.funct3<<12 | uint32(rd)<<7 | d.opcode, nil
}

func encCSRI(d instDef, rd int, csr uint32, uimm int64) (uint32, error) {
	if csr > 0xfff {
		return 0, fmt.Errorf("CSR address 0x%x out of range", csr)
	}
	if uimm < 0 || uimm > 31 {
		return 0, fmt.Errorf("CSR immediate %d out of range 0..31", uimm)
	}
	return csr<<20 | uint32(uimm)<<15 | d.funct3<<12 | uint32(rd)<<7 | d.opcode, nil
}
