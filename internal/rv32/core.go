package rv32

import (
	"vpdift/internal/core"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/tlm"
)

// DecodeCacheStats reports the decode-cache miss breakdown: fills (slow
// decodes that populated a slot) and uncached fetches (misaligned PC or the
// cache disabled — decoded without filling a slot). Hits are derived as
// Instret minus both.
func (c *Core) DecodeCacheStats() (fills, uncached uint64) { return c.ic.fills, c.uncachedFetch }

// Core is the plain (baseline, "VP") RV32IM instruction-set simulator.
// Accesses inside the RAM window use the direct memory slice (the DMI-like
// fast path); everything else is routed over the TLM bus.
type Core struct {
	Regs    [32]uint32
	PC      uint32
	Instret uint64

	// Halted is set by the platform (SysCtrl write) to stop execution.
	Halted bool

	ram     []byte
	ramBase uint32
	ramSize uint32
	bus     *tlm.Bus

	// ic is the predecoded-instruction cache (see icache.go). The baseline
	// core carries it too, deliberately: accelerating only the VP+ would
	// flatter the Table II overhead ratio with a slow baseline.
	ic icache

	// mmode is the machine-mode unit (see csr.go): CSRs, traps, interrupts
	// and the MMIO transaction.
	mmode

	// FR, when non-nil, is the flight recorder: one compressed record per
	// retire, captured post-switch (see flightcap.go). It is the core's only
	// per-retire tap; the profiler, guest coverage and -trace subscribe to
	// its stream. frAddr is the last load/store effective address, stashed
	// by load/store because the post-switch capture cannot recompute it once
	// rd aliased rs1.
	FR     *flight.Recorder
	frAddr uint32

	// uncachedFetch counts fetches that bypassed the decode cache (misaligned
	// PC or cache disabled) — the non-fill half of the miss count. New
	// fields live at the end of the struct: inserting them higher up shifts
	// the hot fields (Regs, ram, ic) across cache lines, which costs the
	// tight interpreter loop measurably.
	uncachedFetch uint64
}

// NewCore builds a baseline core over a bus for MMIO. It has no RAM until
// AttachRAM; the decode cache starts empty.
func NewCore(bus *tlm.Bus) *Core {
	return &Core{bus: bus, mmode: newMMode()}
}

// AttachRAM gives the core its RAM at bus address base: fetches, loads and
// stores inside it take the direct path, everything else the bus. The core
// registers a write hook on the RAM so that bus-initiated writes (DMA, TLM
// transactions) invalidate its predecoded-instruction cache. soc.Load
// attaches the RAM it sized to the guest. Call it once, before Run.
func (c *Core) AttachRAM(ram *mem.PlainMemory, base uint32) {
	c.ram, c.ramBase, c.ramSize = ram.Data(), base, ram.Size()
	ram.AddWriteHook(c.invalidateDecodeCache)
}

// SizeDecodeCache gives the predecoded-instruction cache one entry per RAM
// word in byte offsets [0, end), dropping any entries it held; fetches past
// end decode uncached, so end 0 turns the cache off. soc.Load sizes it to
// the loaded image. Call it after AttachRAM, before Run.
func (c *Core) SizeDecodeCache(end uint32) { c.ic = newICache(min(end, c.ramSize)) }

// Halt stops the core before its next instruction.
func (c *Core) Halt() { c.Halted = true }

// Position returns the program counter and the retired-instruction count.
func (c *Core) Position() (pc uint32, instret uint64) { return c.PC, c.Instret }

// invalidateDecodeCache, the RAM write hook, drops predecoded entries
// covering RAM byte offsets [start, end).
func (c *Core) invalidateDecodeCache(start, end uint32) { c.ic.invalidate(start, end) }

// Run executes up to max instructions. It returns early on WFI with no
// pending interrupt (after the wfi retired), on halt, or on an error (bus
// error, unhandled trap). Timing annotations of MMIO transactions
// accumulate into delay. Records captured into FR reach its subscribers
// when the caller flushes it.
func (c *Core) Run(max uint64, delay *kernel.Time) (n uint64, st RunStatus, err error) {
	for n < max {
		if c.Halted {
			return n, RunHalt, nil
		}
		st, err = c.step(delay)
		if err != nil {
			return n, st, err
		}
		n++
		c.Instret++
		if st != RunOK {
			return n, st, nil
		}
	}
	return n, RunOK, nil
}

// trap enters the machine trap handler.
func (c *Core) trap(cause, tval, epc uint32) error {
	pc, err := c.enterTrap(c.FR, c.Instret, cause, tval, epc)
	if err == nil {
		c.PC = pc
	}
	return err
}

// fetchWord assembles the little-endian instruction word at RAM offset off;
// the caller guarantees off+4 <= ramSize.
func (c *Core) fetchWord(off uint32) uint32 {
	return uint32(c.ram[off]) | uint32(c.ram[off+1])<<8 | uint32(c.ram[off+2])<<16 | uint32(c.ram[off+3])<<24
}

func (c *Core) step(delay *kernel.Time) (RunStatus, error) {
	if c.irqPoll {
		if cause, ok := c.irqCause(); ok {
			return RunOK, c.trap(cause, 0, c.PC)
		}
	}

	pc := c.PC
	off := pc - c.ramBase
	var i Inst
	var w uint32
	if idx := int(off >> 2); off&3 == 0 && idx < len(c.ic.ents) {
		e := &c.ic.ents[idx]
		if e.state != 0 {
			i = e.inst
			w = e.word
		} else {
			w = c.fetchWord(off)
			i = Decode(w)
			e.inst = i
			e.word = w
			e.state = icValid
			c.ic.noteFill(off)
		}
	} else {
		// Misaligned PC, fetch outside RAM, or the decode cache is off.
		if off >= c.ramSize || off+4 > c.ramSize {
			return RunOK, &BusError{What: "instruction fetch outside RAM", Addr: pc, PC: pc}
		}
		c.uncachedFetch++
		w = c.fetchWord(off)
		i = Decode(w)
	}

	next := pc + 4
	switch i.Op {
	case OpLUI:
		c.set(i.Rd, uint32(i.Imm))
	case OpAUIPC:
		c.set(i.Rd, pc+uint32(i.Imm))
	case OpJAL:
		c.set(i.Rd, next)
		next = pc + uint32(i.Imm)
	case OpJALR:
		t := (c.Regs[i.Rs1] + uint32(i.Imm)) &^ 1
		c.set(i.Rd, next)
		next = t
	case OpBEQ:
		if c.Regs[i.Rs1] == c.Regs[i.Rs2] {
			next = pc + uint32(i.Imm)
		}
	case OpBNE:
		if c.Regs[i.Rs1] != c.Regs[i.Rs2] {
			next = pc + uint32(i.Imm)
		}
	case OpBLT:
		if int32(c.Regs[i.Rs1]) < int32(c.Regs[i.Rs2]) {
			next = pc + uint32(i.Imm)
		}
	case OpBGE:
		if int32(c.Regs[i.Rs1]) >= int32(c.Regs[i.Rs2]) {
			next = pc + uint32(i.Imm)
		}
	case OpBLTU:
		if c.Regs[i.Rs1] < c.Regs[i.Rs2] {
			next = pc + uint32(i.Imm)
		}
	case OpBGEU:
		if c.Regs[i.Rs1] >= c.Regs[i.Rs2] {
			next = pc + uint32(i.Imm)
		}
	case OpLB:
		v, err := c.load(c.Regs[i.Rs1]+uint32(i.Imm), 1, delay, pc)
		if err != nil {
			return RunOK, err
		}
		c.set(i.Rd, uint32(int32(v<<24)>>24))
	case OpLH:
		v, err := c.load(c.Regs[i.Rs1]+uint32(i.Imm), 2, delay, pc)
		if err != nil {
			return RunOK, err
		}
		c.set(i.Rd, uint32(int32(v<<16)>>16))
	case OpLW:
		v, err := c.load(c.Regs[i.Rs1]+uint32(i.Imm), 4, delay, pc)
		if err != nil {
			return RunOK, err
		}
		c.set(i.Rd, v)
	case OpLBU:
		v, err := c.load(c.Regs[i.Rs1]+uint32(i.Imm), 1, delay, pc)
		if err != nil {
			return RunOK, err
		}
		c.set(i.Rd, v)
	case OpLHU:
		v, err := c.load(c.Regs[i.Rs1]+uint32(i.Imm), 2, delay, pc)
		if err != nil {
			return RunOK, err
		}
		c.set(i.Rd, v)
	case OpSB:
		if err := c.store(c.Regs[i.Rs1]+uint32(i.Imm), c.Regs[i.Rs2], 1, delay, pc); err != nil {
			return RunOK, err
		}
	case OpSH:
		if err := c.store(c.Regs[i.Rs1]+uint32(i.Imm), c.Regs[i.Rs2], 2, delay, pc); err != nil {
			return RunOK, err
		}
	case OpSW:
		if err := c.store(c.Regs[i.Rs1]+uint32(i.Imm), c.Regs[i.Rs2], 4, delay, pc); err != nil {
			return RunOK, err
		}
	case OpADDI:
		c.set(i.Rd, c.Regs[i.Rs1]+uint32(i.Imm))
	case OpSLTI:
		c.set(i.Rd, b2u(int32(c.Regs[i.Rs1]) < i.Imm))
	case OpSLTIU:
		c.set(i.Rd, b2u(c.Regs[i.Rs1] < uint32(i.Imm)))
	case OpXORI:
		c.set(i.Rd, c.Regs[i.Rs1]^uint32(i.Imm))
	case OpORI:
		c.set(i.Rd, c.Regs[i.Rs1]|uint32(i.Imm))
	case OpANDI:
		c.set(i.Rd, c.Regs[i.Rs1]&uint32(i.Imm))
	case OpSLLI:
		c.set(i.Rd, c.Regs[i.Rs1]<<uint(i.Imm))
	case OpSRLI:
		c.set(i.Rd, c.Regs[i.Rs1]>>uint(i.Imm))
	case OpSRAI:
		c.set(i.Rd, uint32(int32(c.Regs[i.Rs1])>>uint(i.Imm)))
	case OpADD:
		c.set(i.Rd, c.Regs[i.Rs1]+c.Regs[i.Rs2])
	case OpSUB:
		c.set(i.Rd, c.Regs[i.Rs1]-c.Regs[i.Rs2])
	case OpSLL:
		c.set(i.Rd, c.Regs[i.Rs1]<<(c.Regs[i.Rs2]&31))
	case OpSLT:
		c.set(i.Rd, b2u(int32(c.Regs[i.Rs1]) < int32(c.Regs[i.Rs2])))
	case OpSLTU:
		c.set(i.Rd, b2u(c.Regs[i.Rs1] < c.Regs[i.Rs2]))
	case OpXOR:
		c.set(i.Rd, c.Regs[i.Rs1]^c.Regs[i.Rs2])
	case OpSRL:
		c.set(i.Rd, c.Regs[i.Rs1]>>(c.Regs[i.Rs2]&31))
	case OpSRA:
		c.set(i.Rd, uint32(int32(c.Regs[i.Rs1])>>(c.Regs[i.Rs2]&31)))
	case OpOR:
		c.set(i.Rd, c.Regs[i.Rs1]|c.Regs[i.Rs2])
	case OpAND:
		c.set(i.Rd, c.Regs[i.Rs1]&c.Regs[i.Rs2])
	case OpMUL:
		c.set(i.Rd, c.Regs[i.Rs1]*c.Regs[i.Rs2])
	case OpMULH:
		c.set(i.Rd, uint32(uint64(int64(int32(c.Regs[i.Rs1]))*int64(int32(c.Regs[i.Rs2])))>>32))
	case OpMULHSU:
		c.set(i.Rd, uint32(uint64(int64(int32(c.Regs[i.Rs1]))*int64(c.Regs[i.Rs2]))>>32))
	case OpMULHU:
		c.set(i.Rd, uint32(uint64(c.Regs[i.Rs1])*uint64(c.Regs[i.Rs2])>>32))
	case OpDIV:
		c.set(i.Rd, divS(c.Regs[i.Rs1], c.Regs[i.Rs2]))
	case OpDIVU:
		c.set(i.Rd, divU(c.Regs[i.Rs1], c.Regs[i.Rs2]))
	case OpREM:
		c.set(i.Rd, remS(c.Regs[i.Rs1], c.Regs[i.Rs2]))
	case OpREMU:
		c.set(i.Rd, remU(c.Regs[i.Rs1], c.Regs[i.Rs2]))
	case OpFENCE:
		// No-op: the memory model is sequentially consistent.
	case OpFENCEI:
		// Explicit fetch/store synchronization point: drop every predecoded
		// entry. (Stores already invalidate eagerly; FENCE.I additionally
		// pins the architectural contract for self-modifying code.)
		c.ic.invalidateAll()
	case OpECALL:
		return RunOK, c.trap(CauseECallM, 0, pc)
	case OpEBREAK:
		return RunOK, c.trap(CauseBreakpoint, 0, pc)
	case OpMRET:
		next = c.mret()
	case OpWFI:
		// A sleeping wfi retires like any other instruction: the capture
		// below runs before step reports RunWFI.
	case OpCSRRW, OpCSRRS, OpCSRRC, OpCSRRWI, OpCSRRSI, OpCSRRCI:
		if err := c.csrOp(i, pc); err != nil {
			return RunOK, err
		}
		// csrOp may have trapped (illegal CSR) and replaced PC.
		if c.PC != pc {
			return RunOK, nil
		}
	default:
		return RunOK, c.trap(CauseIllegalInstr, c.fetchWord(off), pc)
	}
	if c.FR != nil {
		// Flight capture, hand-inlined (see flightcap.go).
		fl := flightFlags[i.Op]
		if next != pc+4 {
			fl |= flight.FlagTaken
		}
		faddr := next
		if fl&(flight.FlagLoad|flight.FlagStore) != 0 {
			faddr = c.frAddr
		}
		rec := c.FR.Slot()
		rec.Time = c.Instret
		rec.PC = pc
		rec.Insn = w
		rec.Addr = faddr
		rec.Aux = 0
		rec.Kind = flight.KindRetire
		rec.Flags = fl
		if c.FR.Full() {
			c.FR.Flush()
		}
	}
	if c.PC == pc { // not redirected by a trap inside the switch
		c.PC = next
	}
	if i.Op == OpWFI && !c.PendingIRQ() {
		return RunWFI, nil
	}
	return RunOK, nil
}

// set writes a destination register, keeping x0 hardwired to zero.
func (c *Core) set(rd uint8, v uint32) {
	if rd != 0 {
		c.Regs[rd] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func divS(a, b uint32) uint32 {
	switch {
	case b == 0:
		return 0xffffffff
	case a == 0x80000000 && b == 0xffffffff:
		return 0x80000000
	default:
		return uint32(int32(a) / int32(b))
	}
}

func divU(a, b uint32) uint32 {
	if b == 0 {
		return 0xffffffff
	}
	return a / b
}

func remS(a, b uint32) uint32 {
	switch {
	case b == 0:
		return a
	case a == 0x80000000 && b == 0xffffffff:
		return 0
	default:
		return uint32(int32(a) % int32(b))
	}
}

func remU(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}

// load reads size bytes (1, 2 or 4) little-endian, zero-extended.
func (c *Core) load(addr uint32, size uint32, delay *kernel.Time, pc uint32) (uint32, error) {
	c.frAddr = addr
	off := addr - c.ramBase
	if off < c.ramSize && off+size <= c.ramSize {
		switch size {
		case 1:
			return uint32(c.ram[off]), nil
		case 2:
			return uint32(c.ram[off]) | uint32(c.ram[off+1])<<8, nil
		default:
			return uint32(c.ram[off]) | uint32(c.ram[off+1])<<8 |
				uint32(c.ram[off+2])<<16 | uint32(c.ram[off+3])<<24, nil
		}
	}
	if err := c.transact(c.bus, tlm.Read, addr, size, delay, pc); err != nil {
		return 0, err
	}
	var v uint32
	for j := uint32(0); j < size; j++ {
		v |= uint32(c.mmioBuf[j].V) << (8 * j)
	}
	return v, nil
}

// store writes size bytes (1, 2 or 4) little-endian.
func (c *Core) store(addr, val uint32, size uint32, delay *kernel.Time, pc uint32) error {
	c.frAddr = addr
	off := addr - c.ramBase
	if off < c.ramSize && off+size <= c.ramSize {
		for j := uint32(0); j < size; j++ {
			c.ram[off+j] = byte(val >> (8 * j))
		}
		// Keep the decode cache coherent with self-modifying code. The
		// watermark guard keeps the common data store at two compares.
		if c.ic.overlaps(off, off+size) {
			c.ic.invalidate(off, off+size)
		}
		return nil
	}
	for j := uint32(0); j < size; j++ {
		c.mmioBuf[j] = core.TByte{V: byte(val >> (8 * j))}
	}
	return c.transact(c.bus, tlm.Write, addr, size, delay, pc)
}

// csrOp executes the Zicsr instructions on the machine-mode unit.
func (c *Core) csrOp(i Inst, pc uint32) error {
	csr := uint32(i.Imm)
	old, _, ok := c.csrRead(csr, c.Instret)
	if !ok {
		return c.trap(CauseIllegalInstr, 0, pc)
	}
	operand := c.Regs[i.Rs1]
	if csrImm(i.Op) {
		operand = uint32(i.Rs1)
	}
	if v, write := csrResult(i, old, operand); write {
		if !c.csrWrite(csr, v) {
			return c.trap(CauseIllegalInstr, 0, pc)
		}
	}
	c.set(i.Rd, old)
	return nil
}
