// Package asm implements a two-pass RV32IM assembler.
//
// It is the toolchain substitute for this reproduction: the paper assembles
// its guest software with a GCC RISC-V cross toolchain; here all guest
// binaries (benchmarks, attack programs, the immobilizer firmware) are
// written in RISC-V assembly and assembled in-process to genuine RV32
// machine code.
//
// Supported input:
//
//   - RV32I base ISA, M extension, Zicsr, Zifencei, mret/wfi.
//   - The standard pseudo-instructions (li, la, mv, call, ret, beqz, ...).
//   - Labels, numeric local labels (1:, 1b, 1f), .equ constants.
//   - Sections .text/.data/.bss with automatic layout, data directives
//     (.word/.half/.byte/.ascii/.asciz/.space/.align/.balign).
//   - Constant expressions with the usual operators and %hi()/%lo().
//
// Comments start with '#' or '//'.
package asm

import (
	"fmt"
	"strings"
)

// Options configures assembly.
type Options struct {
	// Base is the load/link address of the .text section. Defaults to
	// 0x80000000 (the RAM base of the SoC in internal/soc).
	Base uint32
	// DataAlign aligns the start of .data after .text. Defaults to 64.
	DataAlign uint32
}

const (
	secText = iota
	secData
	secBSS
	numSections
)

type opKind int

const (
	opReg opKind = iota
	opExpr
	opMem // expr(baseReg)
)

type operand struct {
	kind opKind
	reg  int
	ex   expr
	base int
}

type itemKind int

const (
	itInst itemKind = iota
	itData
	itBytes
	itSpace
)

// item is one unit of output: a single machine instruction, a data directive,
// raw bytes, or fill space.
type item struct {
	line     int
	section  int
	offset   uint32
	size     uint32
	kind     itemKind
	mnem     string
	ops      []operand
	elemSize uint32
	exprs    []expr
	raw      []byte
	fill     byte
}

type symVal struct {
	section int // -1 for absolute (.equ)
	value   int64
}

type assembler struct {
	opts    Options
	items   []item
	offsets [numSections]uint32
	bases   [numSections]uint32
	symbols map[string]symVal
	// locals maps a numeric label to its definitions in source order as
	// (section, offset); resolved to addresses after layout.
	locals  map[int64][]symVal
	section int
	line    int
	errs    []string
}

// Assemble translates RISC-V assembly source into a loadable Image.
func Assemble(src string, opts Options) (*Image, error) {
	if opts.Base == 0 {
		opts.Base = 0x80000000
	}
	if opts.DataAlign == 0 {
		opts.DataAlign = 64
	}
	a := &assembler{
		opts:    opts,
		symbols: make(map[string]symVal),
		locals:  make(map[int64][]symVal),
	}
	a.pass1(src)
	if len(a.errs) > 0 {
		return nil, a.err()
	}
	a.layout()
	img, err := a.pass2()
	if err != nil {
		return nil, err
	}
	return img, nil
}

// MustAssemble is Assemble that panics on error; for statically-known guest
// programs.
func MustAssemble(src string, opts Options) *Image {
	img, err := Assemble(src, opts)
	if err != nil {
		panic(err)
	}
	return img
}

func (a *assembler) errorf(format string, args ...any) {
	a.errs = append(a.errs, fmt.Sprintf("line %d: %s", a.line, fmt.Sprintf(format, args...)))
}

func (a *assembler) err() error {
	const maxShown = 12
	shown := a.errs
	suffix := ""
	if len(shown) > maxShown {
		suffix = fmt.Sprintf("\n... and %d more errors", len(shown)-maxShown)
		shown = shown[:maxShown]
	}
	return fmt.Errorf("asm: %s%s", strings.Join(shown, "\n"), suffix)
}

// ---------------------------------------------------------------- pass 1 --

func (a *assembler) pass1(src string) {
	for lineNo, raw := range strings.Split(src, "\n") {
		a.line = lineNo + 1
		toks, err := lexLine(stripComment(raw))
		if err != nil {
			a.errorf("%v", err)
			continue
		}
		// Leading labels: IDENT ':' or NUMBER ':'.
		for len(toks) >= 2 && toks[1].kind == tokPunct && toks[1].str == ":" {
			switch toks[0].kind {
			case tokIdent:
				a.defineLabel(toks[0].str)
			case tokNumber:
				a.locals[toks[0].num] = append(a.locals[toks[0].num],
					symVal{section: a.section, value: int64(a.offsets[a.section])})
			default:
				a.errorf("bad label %s", toks[0])
			}
			toks = toks[2:]
		}
		if len(toks) == 0 {
			continue
		}
		if toks[0].kind != tokIdent {
			a.errorf("expected mnemonic or directive, got %s", toks[0])
			continue
		}
		name := toks[0].str
		rest := toks[1:]
		if strings.HasPrefix(name, ".") {
			a.directive(name, rest)
			continue
		}
		a.instruction(strings.ToLower(name), rest)
	}
}

func (a *assembler) defineLabel(name string) {
	if _, dup := a.symbols[name]; dup {
		a.errorf("symbol %q redefined", name)
		return
	}
	a.symbols[name] = symVal{section: a.section, value: int64(a.offsets[a.section])}
}

// emit appends an item at the current location counter.
func (a *assembler) emit(it item) {
	it.line = a.line
	it.section = a.section
	it.offset = a.offsets[a.section]
	a.offsets[a.section] += it.size
	if a.section == secBSS && (it.kind != itSpace || it.fill != 0) {
		a.errorf(".bss may contain only .space/.align, not initialized data")
		return
	}
	a.items = append(a.items, it)
}

// equResolver resolves only absolute symbols already defined; used for
// values needed during pass 1.
type equResolver struct{ a *assembler }

func (r equResolver) lookup(name string, _ uint32) (int64, error) {
	if sv, ok := r.a.symbols[name]; ok && sv.section == -1 {
		return sv.value, nil
	}
	return 0, fmt.Errorf("symbol %q is not an absolute constant defined above", name)
}

func (a *assembler) directive(name string, toks []token) {
	switch name {
	case ".text":
		a.section = secText
	case ".data":
		a.section = secData
	case ".bss":
		a.section = secBSS
	case ".section":
		if len(toks) != 1 || toks[0].kind != tokIdent {
			a.errorf(".section needs a name")
			return
		}
		switch toks[0].str {
		case ".text", "text":
			a.section = secText
		case ".data", "data":
			a.section = secData
		case ".bss", "bss":
			a.section = secBSS
		default:
			a.errorf("unknown section %q", toks[0].str)
		}
	case ".global", ".globl":
		// Symbols are all visible in the image; accept and ignore.
		if len(toks) != 1 || toks[0].kind != tokIdent {
			a.errorf("%s needs a symbol name", name)
		}
	case ".equ", ".set":
		if len(toks) < 3 || toks[0].kind != tokIdent || toks[1].kind != tokPunct || toks[1].str != "," {
			a.errorf("%s needs: name, expression", name)
			return
		}
		ex, n, err := parseExprTokens(toks[2:])
		if err != nil || n != len(toks)-2 {
			a.errorf("bad expression in %s", name)
			return
		}
		v, err := ex.eval(equResolver{a}, 0)
		if err != nil {
			a.errorf("%v", err)
			return
		}
		if _, dup := a.symbols[toks[0].str]; dup {
			a.errorf("symbol %q redefined", toks[0].str)
			return
		}
		a.symbols[toks[0].str] = symVal{section: -1, value: v}
	case ".word", ".half", ".byte":
		size := map[string]uint32{".word": 4, ".half": 2, ".byte": 1}[name]
		exprs, err := a.parseExprList(toks)
		if err != nil {
			a.errorf("%v", err)
			return
		}
		if len(exprs) == 0 {
			a.errorf("%s needs at least one value", name)
			return
		}
		a.emit(item{kind: itData, elemSize: size, exprs: exprs, size: size * uint32(len(exprs))})
	case ".ascii", ".asciz":
		var raw []byte
		for i, t := range toks {
			if i%2 == 0 {
				if t.kind != tokString {
					a.errorf("%s needs string literals", name)
					return
				}
				raw = append(raw, t.str...)
				if name == ".asciz" {
					raw = append(raw, 0)
				}
			} else if t.kind != tokPunct || t.str != "," {
				a.errorf("expected , between strings")
				return
			}
		}
		if len(raw) == 0 {
			a.errorf("%s needs at least one string", name)
			return
		}
		a.emit(item{kind: itBytes, raw: raw, size: uint32(len(raw))})
	case ".space", ".skip":
		exprs, err := a.parseExprList(toks)
		if err != nil || len(exprs) == 0 || len(exprs) > 2 {
			a.errorf("%s needs: size [, fill]", name)
			return
		}
		n, err := exprs[0].eval(equResolver{a}, 0)
		if err != nil || n < 0 || n > 1<<28 {
			a.errorf("bad %s size: %v", name, err)
			return
		}
		var fill int64
		if len(exprs) == 2 {
			fill, err = exprs[1].eval(equResolver{a}, 0)
			if err != nil {
				a.errorf("bad fill: %v", err)
				return
			}
		}
		a.emit(item{kind: itSpace, size: uint32(n), fill: byte(fill)})
	case ".align", ".balign":
		exprs, err := a.parseExprList(toks)
		if err != nil || len(exprs) != 1 {
			a.errorf("%s needs one argument", name)
			return
		}
		v, err := exprs[0].eval(equResolver{a}, 0)
		if err != nil || v < 0 || v > 24 && name == ".align" || name == ".balign" && (v < 1 || v > 1<<24) {
			a.errorf("bad alignment: %v", err)
			return
		}
		bytes := uint32(v)
		if name == ".align" {
			bytes = 1 << uint(v)
		}
		if bytes&(bytes-1) != 0 {
			a.errorf("alignment %d is not a power of two", bytes)
			return
		}
		cur := a.offsets[a.section]
		pad := (bytes - cur%bytes) % bytes
		if pad == 0 {
			return
		}
		if a.section == secText && pad%4 == 0 {
			// Pad executable space with NOPs.
			nop := []byte{0x13, 0x00, 0x00, 0x00}
			raw := make([]byte, 0, pad)
			for i := uint32(0); i < pad/4; i++ {
				raw = append(raw, nop...)
			}
			a.emit(item{kind: itBytes, raw: raw, size: pad})
			return
		}
		a.emit(item{kind: itSpace, size: pad})
	default:
		a.errorf("unknown directive %s", name)
	}
}

// parseExprList parses "expr, expr, ..." to the end of the token list.
func (a *assembler) parseExprList(toks []token) ([]expr, error) {
	var out []expr
	for len(toks) > 0 {
		ex, n, err := parseExprTokens(toks)
		if err != nil {
			return nil, err
		}
		out = append(out, ex)
		toks = toks[n:]
		if len(toks) == 0 {
			break
		}
		if toks[0].kind != tokPunct || toks[0].str != "," {
			return nil, fmt.Errorf("expected , got %s", toks[0])
		}
		toks = toks[1:]
	}
	return out, nil
}

// splitOperands splits the token list at top-level commas.
func splitOperands(toks []token) [][]token {
	if len(toks) == 0 {
		return nil
	}
	var groups [][]token
	depth := 0
	start := 0
	for i, t := range toks {
		if t.kind == tokPunct {
			switch t.str {
			case "(":
				depth++
			case ")":
				depth--
			case ",":
				if depth == 0 {
					groups = append(groups, toks[start:i])
					start = i + 1
				}
			}
		}
	}
	groups = append(groups, toks[start:])
	return groups
}

// parseOperand classifies one operand group.
func parseOperand(toks []token) (operand, error) {
	if len(toks) == 0 {
		return operand{}, fmt.Errorf("empty operand")
	}
	// Bare register.
	if len(toks) == 1 && toks[0].kind == tokIdent {
		if r, ok := regNum(toks[0].str); ok {
			return operand{kind: opReg, reg: r}, nil
		}
	}
	// Memory operand with no displacement: (reg).
	if len(toks) == 3 && isPunct(toks[0], "(") && toks[1].kind == tokIdent && isPunct(toks[2], ")") {
		if r, ok := regNum(toks[1].str); ok {
			return operand{kind: opMem, base: r, ex: numExpr(0)}, nil
		}
	}
	// expr or expr(reg).
	ex, n, err := parseExprTokens(toks)
	if err != nil {
		return operand{}, err
	}
	rest := toks[n:]
	if len(rest) == 0 {
		return operand{kind: opExpr, ex: ex}, nil
	}
	if len(rest) == 3 && isPunct(rest[0], "(") && rest[1].kind == tokIdent && isPunct(rest[2], ")") {
		if r, ok := regNum(rest[1].str); ok {
			return operand{kind: opMem, base: r, ex: ex}, nil
		}
		return operand{}, fmt.Errorf("%q is not a register", rest[1].str)
	}
	return operand{}, fmt.Errorf("trailing tokens after expression: %s", rest[0])
}

func isPunct(t token, s string) bool { return t.kind == tokPunct && t.str == s }

// instruction parses operands, expands pseudo-instructions, and emits the
// resulting machine instructions.
func (a *assembler) instruction(mnem string, toks []token) {
	if a.section != secText {
		a.errorf("instruction %q outside .text", mnem)
		return
	}
	var ops []operand
	for _, g := range splitOperands(toks) {
		op, err := parseOperand(g)
		if err != nil {
			a.errorf("%s: %v", mnem, err)
			return
		}
		ops = append(ops, op)
	}
	expanded, err := a.expand(mnem, ops)
	if err != nil {
		a.errorf("%v", err)
		return
	}
	for _, e := range expanded {
		if _, ok := instTable[e.mnem]; !ok {
			a.errorf("unknown instruction %q", e.mnem)
			return
		}
		a.emit(item{kind: itInst, mnem: e.mnem, ops: e.ops, size: 4})
	}
}

// ---------------------------------------------------------------- layout --

func align(v, to uint32) uint32 { return (v + to - 1) / to * to }

func (a *assembler) layout() {
	a.bases[secText] = a.opts.Base
	a.bases[secData] = align(a.bases[secText]+a.offsets[secText], a.opts.DataAlign)
	a.bases[secBSS] = align(a.bases[secData]+a.offsets[secData], 16)
}

// ---------------------------------------------------------------- pass 2 --

// symResolver resolves all symbols to final addresses.
type symResolver struct{ a *assembler }

func (r symResolver) lookup(name string, pc uint32) (int64, error) {
	// Numeric local label references: Nb / Nf.
	if n := len(name); n >= 2 && isAllDigits(name[:n-1]) && (name[n-1] == 'b' || name[n-1] == 'f') {
		num, err := parseInt(name[:n-1])
		if err != nil {
			return 0, err
		}
		return r.local(num, name[n-1] == 'b', pc)
	}
	sv, ok := r.a.symbols[name]
	if !ok {
		return 0, fmt.Errorf("undefined symbol %q", name)
	}
	if sv.section == -1 {
		return sv.value, nil
	}
	return int64(r.a.bases[sv.section]) + sv.value, nil
}

func (r symResolver) local(num int64, backward bool, pc uint32) (int64, error) {
	defs := r.a.locals[num]
	if backward {
		best := int64(-1)
		for _, d := range defs {
			addr := int64(r.a.bases[d.section]) + d.value
			if addr <= int64(pc) && addr > best {
				best = addr
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("no backward definition of local label %d", num)
		}
		return best, nil
	}
	best := int64(1) << 62
	for _, d := range defs {
		addr := int64(r.a.bases[d.section]) + d.value
		if addr > int64(pc) && addr < best {
			best = addr
		}
	}
	if best == int64(1)<<62 {
		return 0, fmt.Errorf("no forward definition of local label %d", num)
	}
	return best, nil
}

func (a *assembler) pass2() (*Image, error) {
	text := make([]byte, a.offsets[secText])
	data := make([]byte, a.offsets[secData])
	bufs := [numSections][]byte{text, data, nil}
	res := symResolver{a}

	for i := range a.items {
		it := &a.items[i]
		a.line = it.line
		addr := a.bases[it.section] + it.offset
		out := bufs[it.section]
		switch it.kind {
		case itInst:
			word, err := a.encode(it, addr, res)
			if err != nil {
				a.errorf("%s: %v", it.mnem, err)
				continue
			}
			putLE(out[it.offset:], uint64(word), 4)
		case itData:
			off := it.offset
			for _, ex := range it.exprs {
				v, err := ex.eval(res, addr)
				if err != nil {
					a.errorf("%v", err)
					break
				}
				if err := checkDataRange(v, it.elemSize); err != nil {
					a.errorf("%v", err)
					break
				}
				putLE(out[off:], uint64(v), int(it.elemSize))
				off += it.elemSize
			}
		case itBytes:
			copy(out[it.offset:], it.raw)
		case itSpace:
			if it.section != secBSS {
				for j := uint32(0); j < it.size; j++ {
					out[it.offset+j] = it.fill
				}
			}
		}
	}
	if len(a.errs) > 0 {
		return nil, a.err()
	}

	symbols := make(map[string]uint32, len(a.symbols))
	for name, sv := range a.symbols {
		if sv.section == -1 {
			symbols[name] = uint32(sv.value)
		} else {
			symbols[name] = a.bases[sv.section] + uint32(sv.value)
		}
	}
	entry := a.bases[secText]
	if e, ok := symbols["_start"]; ok {
		entry = e
	}
	return &Image{
		Base:     a.bases[secText],
		Text:     text,
		DataAddr: a.bases[secData],
		Data:     data,
		BSSAddr:  a.bases[secBSS],
		BSSSize:  a.offsets[secBSS],
		Entry:    entry,
		Symbols:  symbols,
	}, nil
}

func checkDataRange(v int64, size uint32) error {
	switch size {
	case 1:
		if v < -128 || v > 255 {
			return fmt.Errorf(".byte value %d out of range", v)
		}
	case 2:
		if v < -32768 || v > 65535 {
			return fmt.Errorf(".half value %d out of range", v)
		}
	case 4:
		if v < -(1<<31) || v > (1<<32)-1 {
			return fmt.Errorf(".word value %d out of range", v)
		}
	}
	return nil
}

func putLE(b []byte, v uint64, n int) {
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// encode translates one parsed instruction into its 32-bit encoding.
func (a *assembler) encode(it *item, addr uint32, res resolver) (uint32, error) {
	d := instTable[it.mnem]
	need := func(n int) error {
		if len(it.ops) != n {
			return fmt.Errorf("needs %d operands, got %d", n, len(it.ops))
		}
		return nil
	}
	reg := func(i int) (int, error) {
		if it.ops[i].kind != opReg {
			return 0, fmt.Errorf("operand %d must be a register", i+1)
		}
		return it.ops[i].reg, nil
	}
	val := func(i int) (int64, error) {
		if it.ops[i].kind != opExpr {
			return 0, fmt.Errorf("operand %d must be an expression", i+1)
		}
		return it.ops[i].ex.eval(res, addr)
	}
	memOp := func(i int) (int, int64, error) {
		op := it.ops[i]
		switch op.kind {
		case opMem:
			off, err := op.ex.eval(res, addr)
			return op.base, off, err
		case opReg: // bare register means offset 0
			return op.reg, 0, nil
		default:
			return 0, 0, fmt.Errorf("operand %d must be offset(reg)", i+1)
		}
	}

	switch d.format {
	case fmtR:
		if err := need(3); err != nil {
			return 0, err
		}
		rd, err := reg(0)
		if err != nil {
			return 0, err
		}
		rs1, err := reg(1)
		if err != nil {
			return 0, err
		}
		rs2, err := reg(2)
		if err != nil {
			return 0, err
		}
		return encR(d, rd, rs1, rs2), nil
	case fmtI:
		if err := need(3); err != nil {
			return 0, err
		}
		rd, err := reg(0)
		if err != nil {
			return 0, err
		}
		rs1, err := reg(1)
		if err != nil {
			return 0, err
		}
		imm, err := val(2)
		if err != nil {
			return 0, err
		}
		return encI(d, rd, rs1, imm)
	case fmtShift:
		if err := need(3); err != nil {
			return 0, err
		}
		rd, err := reg(0)
		if err != nil {
			return 0, err
		}
		rs1, err := reg(1)
		if err != nil {
			return 0, err
		}
		sh, err := val(2)
		if err != nil {
			return 0, err
		}
		return encShift(d, rd, rs1, sh)
	case fmtLoad:
		if err := need(2); err != nil {
			return 0, err
		}
		rd, err := reg(0)
		if err != nil {
			return 0, err
		}
		base, off, err := memOp(1)
		if err != nil {
			return 0, err
		}
		return encI(d, rd, base, off)
	case fmtStore:
		if err := need(2); err != nil {
			return 0, err
		}
		rs2, err := reg(0)
		if err != nil {
			return 0, err
		}
		base, off, err := memOp(1)
		if err != nil {
			return 0, err
		}
		return encS(d, base, rs2, off)
	case fmtBranch:
		if err := need(3); err != nil {
			return 0, err
		}
		rs1, err := reg(0)
		if err != nil {
			return 0, err
		}
		rs2, err := reg(1)
		if err != nil {
			return 0, err
		}
		target, err := val(2)
		if err != nil {
			return 0, err
		}
		return encB(d, rs1, rs2, target-int64(addr))
	case fmtU:
		if err := need(2); err != nil {
			return 0, err
		}
		rd, err := reg(0)
		if err != nil {
			return 0, err
		}
		imm, err := val(1)
		if err != nil {
			return 0, err
		}
		return encU(d, rd, imm)
	case fmtJ:
		if err := need(2); err != nil {
			return 0, err
		}
		rd, err := reg(0)
		if err != nil {
			return 0, err
		}
		target, err := val(1)
		if err != nil {
			return 0, err
		}
		return encJ(d, rd, target-int64(addr))
	case fmtJalr:
		if err := need(2); err != nil {
			return 0, err
		}
		rd, err := reg(0)
		if err != nil {
			return 0, err
		}
		base, off, err := memOp(1)
		if err != nil {
			return 0, err
		}
		return encI(d, rd, base, off)
	case fmtCSR, fmtCSRI:
		if err := need(3); err != nil {
			return 0, err
		}
		rd, err := reg(0)
		if err != nil {
			return 0, err
		}
		csr, err := a.csrOperand(it.ops[1], res, addr)
		if err != nil {
			return 0, err
		}
		if d.format == fmtCSR {
			rs1, err := reg(2)
			if err != nil {
				return 0, err
			}
			return encCSR(d, rd, csr, rs1)
		}
		uimm, err := val(2)
		if err != nil {
			return 0, err
		}
		return encCSRI(d, rd, csr, uimm)
	case fmtFixed:
		if err := need(0); err != nil {
			return 0, err
		}
		return d.fixed, nil
	}
	return 0, fmt.Errorf("unhandled format")
}

// csrOperand resolves a CSR name or numeric expression.
func (a *assembler) csrOperand(op operand, res resolver, addr uint32) (uint32, error) {
	if op.kind == opExpr {
		if s, ok := op.ex.(symExpr); ok {
			if n, ok := csrNames[string(s)]; ok {
				return n, nil
			}
		}
		v, err := op.ex.eval(res, addr)
		if err != nil {
			return 0, err
		}
		if v < 0 || v > 0xfff {
			return 0, fmt.Errorf("CSR address %d out of range", v)
		}
		return uint32(v), nil
	}
	return 0, fmt.Errorf("bad CSR operand")
}
