package rv32

import (
	"fmt"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/tlm"
)

// Machine-mode CSR addresses (privileged spec subset).
const (
	CSRMstatus   = 0x300
	CSRMisa      = 0x301
	CSRMie       = 0x304
	CSRMtvec     = 0x305
	CSRMscratch  = 0x340
	CSRMepc      = 0x341
	CSRMcause    = 0x342
	CSRMtval     = 0x343
	CSRMip       = 0x344
	CSRMvendorid = 0xF11
	CSRMarchid   = 0xF12
	CSRMimpid    = 0xF13
	CSRMhartid   = 0xF14
	CSRMcycle    = 0xB00
	CSRMcycleh   = 0xB80
	CSRMinstret  = 0xB02
	CSRMinstreth = 0xB82
	CSRCycle     = 0xC00
	CSRTime      = 0xC01
	CSRInstret   = 0xC02
	CSRCycleh    = 0xC80
	CSRTimeh     = 0xC81
	CSRInstreth  = 0xC82
)

// mstatus bits.
const (
	MstatusMIE  = 1 << 3
	MstatusMPIE = 1 << 7
	MstatusMPP  = 3 << 11 // machine-mode only: MPP always reads 0b11
)

// mip/mie interrupt bits.
const (
	IntMSI = 1 << 3  // machine software interrupt
	IntMTI = 1 << 7  // machine timer interrupt
	IntMEI = 1 << 11 // machine external interrupt
)

// Trap causes.
const (
	CauseInstrMisaligned = 0
	CauseIllegalInstr    = 2
	CauseBreakpoint      = 3
	CauseECallM          = 11
	causeInterruptBit    = 1 << 31
	CauseMTimerInt       = causeInterruptBit | 7
	CauseMExtInt         = causeInterruptBit | 11
)

// misa value: RV32 (MXL=1) with I and M extensions.
const misaRV32IM = 1<<30 | 1<<8 | 1<<12

// RunStatus tells the platform why Core.Run / TaintCore.Run returned.
type RunStatus int

const (
	// RunOK: the instruction quantum was exhausted; call Run again.
	RunOK RunStatus = iota
	// RunWFI: the core executed WFI with no pending interrupt; resume once
	// an interrupt line changes.
	RunWFI
	// RunHalt: the core was halted (platform power-off via SysCtrl).
	RunHalt
)

// String names the run status.
func (s RunStatus) String() string {
	switch s {
	case RunOK:
		return "ok"
	case RunWFI:
		return "wfi"
	case RunHalt:
		return "halt"
	default:
		return fmt.Sprintf("runstatus(%d)", int(s))
	}
}

// BusError reports a transaction that did not complete (unmapped address,
// bad command). Guest bugs surface here instead of silently corrupting the
// simulation.
type BusError struct {
	What string
	Addr uint32
	PC   uint32
}

// Error implements error.
func (e *BusError) Error() string {
	return fmt.Sprintf("bus error: %s at addr=0x%08x (pc=0x%08x)", e.What, e.Addr, e.PC)
}

// TrapError reports an exception taken while mtvec is unset — the guest has
// no trap handler, so continuing would loop at address 0.
type TrapError struct {
	Cause uint32
	Tval  uint32
	PC    uint32
}

// Error implements error.
func (e *TrapError) Error() string {
	return fmt.Sprintf("unhandled trap: cause=%d tval=0x%08x pc=0x%08x (mtvec not set)", e.Cause, e.Tval, e.PC)
}

// mmode is the machine-mode unit both cores embed: the CSR file, trap
// entry, mret, interrupt selection and the CPU's MMIO transaction. It keeps
// the VP+'s CSR tags beside the values; the plain core never reads or
// writes them. TaintCore adds only the paper's rules around these calls:
// the branch clearance on mtvec and mepc, the tag joins of csrrs/csrrc and
// the default tags trap entry writes.
//
// Both cores embed it right after the decode cache, irqPoll first, which
// keeps every field the interpreter loop touches per instruction at the
// offset the loop was measured at.
type mmode struct {
	// irqPoll gates the per-instruction interrupt check: it is raised by
	// every event that could make an interrupt takeable (a device line
	// rising, writes to mstatus/mie, mret restoring MIE) and cleared when a
	// poll finds nothing pending, so the hot loop replaces an interrupt
	// poll per instruction with one predictable branch.
	irqPoll bool

	// The VP+'s CSR tags. mip has none: its lines are wired from devices
	// and read with the policy default, like the constant CSRs.
	mstatusT, mieT, mtvecT, mepcT, mcauseT, mtvalT, mscratchT core.Tag

	mstatus, mie, mip, mtvec, mepc, mcause, mtval, mscratch uint32

	// mmioBuf holds the data of the CPU's MMIO transaction and mmio is its
	// payload, both reused by every access: the bus hands the payload to
	// its targets through an interface, so a payload built per access would
	// escape, one heap allocation per device access, which a guest polling
	// a status register turns into megabytes per run.
	mmioBuf [4]core.TByte
	mmio    *tlm.Payload
}

func newMMode() mmode { return mmode{irqPoll: true, mmio: new(tlm.Payload)} }

// SetIRQ drives the machine interrupt-pending lines (mask of IntMTI /
// IntMEI / IntMSI).
func (m *mmode) SetIRQ(line uint32, level bool) {
	if level {
		m.mip |= line
		m.irqPoll = true
	} else {
		m.mip &^= line
	}
}

// PendingIRQ reports whether any enabled interrupt is pending (regardless of
// the global MIE bit) — the WFI wake-up condition.
func (m *mmode) PendingIRQ() bool { return m.mie&m.mip != 0 }

// irqCause selects the interrupt to take: the highest-priority pending
// enabled one, if the global enable allows. Finding nothing takeable clears
// irqPoll; the events that can change that verdict raise it again.
func (m *mmode) irqCause() (uint32, bool) {
	pending := m.mie & m.mip
	if m.mstatus&MstatusMIE == 0 || pending == 0 {
		m.irqPoll = false
		return 0, false
	}
	switch {
	case pending&IntMEI != 0:
		return CauseMExtInt, true
	case pending&IntMSI != 0:
		return causeInterruptBit | 3, true
	default:
		return CauseMTimerInt, true
	}
}

// enterTrap takes a trap raised at epc and returns the handler address for
// the PC. A trap while mtvec is unset is a *TrapError instead.
func (m *mmode) enterTrap(cause, tval, epc uint32) (uint32, error) {
	if m.mtvec == 0 {
		return 0, &TrapError{Cause: cause, Tval: tval, PC: epc}
	}
	m.mepc, m.mcause, m.mtval = epc, cause, tval
	// MPIE <- MIE; MIE <- 0; MPP <- M.
	if m.mstatus&MstatusMIE != 0 {
		m.mstatus |= MstatusMPIE
	} else {
		m.mstatus &^= MstatusMPIE
	}
	m.mstatus = m.mstatus&^MstatusMIE | MstatusMPP
	return m.mtvec &^ 3, nil
}

// mret returns from the trap handler: MIE <- MPIE, MPIE <- 1. It returns
// the resume address, mepc.
func (m *mmode) mret() uint32 {
	if m.mstatus&MstatusMPIE != 0 {
		m.mstatus |= MstatusMIE
	} else {
		m.mstatus &^= MstatusMIE
	}
	m.mstatus |= MstatusMPIE
	m.irqPoll = true
	return m.mepc
}

// csrRead reads a CSR; the counters read instret. tag points at the CSR's
// VP+ tag, which a write to the CSR carries, and is nil for a CSR without
// one (it reads with the policy default and ignores writes). ok is false
// for a CSR the unit does not implement.
func (m *mmode) csrRead(csr uint32, instret uint64) (v uint32, tag *core.Tag, ok bool) {
	switch csr {
	case CSRMstatus:
		return m.mstatus | MstatusMPP, &m.mstatusT, true
	case CSRMisa:
		return misaRV32IM, nil, true
	case CSRMie:
		return m.mie, &m.mieT, true
	case CSRMip:
		return m.mip, nil, true
	case CSRMtvec:
		return m.mtvec, &m.mtvecT, true
	case CSRMepc:
		return m.mepc, &m.mepcT, true
	case CSRMcause:
		return m.mcause, &m.mcauseT, true
	case CSRMtval:
		return m.mtval, &m.mtvalT, true
	case CSRMscratch:
		return m.mscratch, &m.mscratchT, true
	case CSRMvendorid, CSRMarchid, CSRMimpid, CSRMhartid:
		return 0, nil, true
	case CSRMcycle, CSRCycle, CSRMinstret, CSRInstret, CSRTime:
		return uint32(instret), nil, true
	case CSRMcycleh, CSRCycleh, CSRMinstreth, CSRInstreth, CSRTimeh:
		return uint32(instret >> 32), nil, true
	}
	return 0, nil, false
}

// csrWrite writes v to a CSR's writable bits. It reports false for a write
// that traps: to an unimplemented CSR or a user-mode counter alias.
func (m *mmode) csrWrite(csr, v uint32) bool {
	switch csr {
	case CSRMstatus:
		m.mstatus = v & (MstatusMIE | MstatusMPIE)
		m.irqPoll = true
	case CSRMie:
		m.mie = v & (IntMSI | IntMTI | IntMEI)
		m.irqPoll = true
	case CSRMip:
		// Interrupt-pending lines are wired from devices; software writes
		// are ignored (hardwired bits per the privileged spec).
	case CSRMtvec:
		m.mtvec = v &^ 3
	case CSRMepc:
		m.mepc = v &^ 1
	case CSRMcause:
		m.mcause = v
	case CSRMtval:
		m.mtval = v
	case CSRMscratch:
		m.mscratch = v
	case CSRMisa, CSRMvendorid, CSRMarchid, CSRMimpid, CSRMhartid:
		// Read-only: writes ignored.
	case CSRMcycle, CSRMcycleh, CSRMinstret, CSRMinstreth:
		// Counters are maintained by the simulator; writes ignored.
	default:
		return false // unimplemented, or a user-mode counter alias (read-only)
	}
	return true
}

// csrResult is the value v Zicsr instruction i writes back to a CSR holding
// old, given its source operand (rs1's value, or the immediate forms'
// uimm). write is false for csrrs/csrrc whose rs1 field is zero (x0 or
// uimm 0): they only read.
func csrResult(i Inst, old, operand uint32) (v uint32, write bool) {
	switch i.Op {
	case OpCSRRW, OpCSRRWI:
		return operand, true
	case OpCSRRS, OpCSRRSI:
		return old | operand, i.Rs1 != 0
	default: // csrrc, csrrci
		return old &^ operand, i.Rs1 != 0
	}
}

// csrImm reports whether Zicsr op takes its operand from the rs1 field as
// an immediate.
func csrImm(op Op) bool { return op == OpCSRRWI || op == OpCSRRSI || op == OpCSRRCI }

// transact issues the CPU's MMIO transaction over bus: size bytes of
// mmioBuf written to addr, or read from it into mmioBuf. A transaction the
// bus does not complete is a *BusError at pc.
func (m *mmode) transact(bus *tlm.Bus, cmd tlm.Command, addr, size uint32, delay *kernel.Time, pc uint32) error {
	p := m.mmio
	*p = tlm.Payload{Cmd: cmd, Addr: addr, Data: m.mmioBuf[:size], From: "cpu"}
	bus.Transport(p, delay)
	if p.Resp == tlm.OK {
		return nil
	}
	what := "load "
	if cmd == tlm.Write {
		what = "store "
	}
	return &BusError{What: what + p.Resp.String(), Addr: addr, PC: pc}
}
