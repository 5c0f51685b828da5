package rv32

import (
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/obs"
	"vpdift/internal/tlm"
)

// TaintCore is the DIFT-enabled ("VP+") RV32IM instruction-set simulator.
// It mirrors Core exactly in architectural behaviour and adds, per the
// paper's Section V:
//
//   - tag storage: every register and every memory byte carries a security
//     class tag;
//   - tag propagation: computational instructions join source tags with the
//     IFP's LUB, loads fold the tags of the accessed bytes, stores write the
//     data tag to every byte;
//   - execution clearance: configurable checks on the instruction-fetch
//     word, on branch conditions and indirect-jump/trap-vector targets, and
//     on load/store addresses;
//   - region store clearance: integrity protection of configured memory
//     ranges.
//
// A check failure aborts execution with a *core.Violation.
type TaintCore struct {
	Regs    [32]core.Word
	PC      uint32
	Instret uint64
	Halted  bool

	// Obs, when non-nil, records taint-propagation provenance and metrics
	// (see internal/obs). It needs operand tags the flight record does not
	// carry, so it stays a hook; every call sits behind a nil check, so a
	// core without an observer pays only predictable not-taken branches.
	Obs *obs.Observer

	// obsS1/obsS2 snapshot the source operands consumed by the current
	// instruction for observeStep (the interpreter switch may overwrite
	// them when rd aliases a source). Core fields rather than step locals
	// so the disabled-observer hot loop does not carry two extra live
	// values across the switch.
	obsS1, obsS2 core.Word

	// ForceBusMem disables the DMI-style direct RAM path for data
	// accesses: every load/store becomes a full TLM transaction with
	// per-access to_bytes/from_bytes conversion, the memory-interface
	// organization the paper describes for its VP+ (Section V-B1,
	// modification 3). It roughly doubles the DIFT overhead factor; see
	// the ablation benches and EXPERIMENTS.md.
	ForceBusMem bool

	ram     []core.TByte
	ramBase uint32
	ramSize uint32
	bus     *tlm.Bus

	// ic is the predecoded-instruction cache (see icache.go). On this core
	// each entry also carries the fetch-tag summary: the LUB of the word's
	// byte tags and the cached fetch-clearance verdict, recomputed only
	// when a write invalidates the entry.
	ic icache

	// mmode is the machine-mode unit (see csr.go), shared with Core; this
	// core keeps its CSR tags.
	mmode

	lat *core.Lattice
	pol *core.Policy
	def core.Tag

	// Cached policy switches (hot path).
	checkFetch   bool
	fetchClear   core.Tag
	checkBranch  bool
	branchClear  core.Tag
	checkMemAddr bool
	memAddrClear core.Tag
	checkStores  bool // some region enforces a store clearance

	// uncachedFetch counts fetches bypassing the decode cache; see
	// Core.uncachedFetch. New fields live at the end of the struct:
	// inserting them higher up shifts the hot fields (Regs, ram, ic) across
	// cache lines, which costs the tight interpreter loop measurably.
	uncachedFetch uint64

	// Cov, when non-nil, receives post-retire taint heatmap samples
	// (internal/cover), the coverage view that needs operand tags the
	// flight record does not carry. Guest coverage reads the flight stream
	// instead. One predictable branch per retire when nil.
	Cov *cover.TaintCov

	// Padding keeps FR and the flag caches below at the offsets the
	// interpreter loop was measured at.
	_ [24]byte

	// FR, when non-nil, is the flight recorder: one block record per basic
	// block (see flightcap.go), and the stream the profiler, guest coverage
	// and -trace subscribe to.
	FR *flight.Recorder

	// Flag caches (see flagcache.go), armed at the first Run. mask bit r
	// set means register r may carry a non-default tag; bstate, btag and
	// nonDef summarize 64-byte RAM blocks. defBranchOK/defMemOK record
	// whether the default tag passes the branch and memory-address
	// clearances, so checks on all-default operands can be skipped. pinned
	// keeps every flag at "maybe tainted" (a counter set installed, or set
	// by the parity test before the first Run).
	mask        uint32
	bstate      []uint8
	btag        []core.Tag
	nonDef      []uint16
	defBranchOK bool
	defMemOK    bool
	pinned      bool

	// Counts, when non-nil, is the policy's enforcement counter set (see
	// core.Policy.Count): the core counts its fetch, branch and
	// memory-address checks and violations into it, each behind one nil
	// check. Set it before the first Run; it pins the flag caches.
	Counts *core.EnforcementCounts
}

// NewTaintCore builds a DIFT core over a bus for MMIO, enforcing the
// policy. The policy must have been validated against its lattice. The core
// has no RAM until AttachRAM; the decode cache starts empty.
func NewTaintCore(bus *tlm.Bus, pol *core.Policy) *TaintCore {
	c := &TaintCore{
		bus: bus,
		lat: pol.L,
		pol: pol,
		def: pol.Default,

		checkFetch:   pol.Exec.CheckFetch,
		fetchClear:   pol.Exec.Fetch,
		checkBranch:  pol.Exec.CheckBranch,
		branchClear:  pol.Exec.Branch,
		checkMemAddr: pol.Exec.CheckMemAddr,
		memAddrClear: pol.Exec.MemAddr,

		mmode: newMMode(),
	}
	for _, r := range pol.Regions {
		c.checkStores = c.checkStores || r.CheckStore
	}
	for i := range c.Regs {
		c.Regs[i] = core.W(0, c.def)
	}
	d := c.def
	c.mstatusT, c.mieT, c.mtvecT, c.mepcT, c.mcauseT, c.mtvalT, c.mscratchT = d, d, d, d, d, d, d
	return c
}

// AttachRAM gives the core its tainted RAM at bus address base; see
// Core.AttachRAM. The write hook also marks the flag-cache blocks a
// bus-initiated write touched for a rescan; the flag caches size their
// block arrays to this RAM when they arm at the first Run.
func (c *TaintCore) AttachRAM(ram *mem.Memory, base uint32) {
	c.ram, c.ramBase, c.ramSize = ram.Data(), base, ram.Size()
	ram.AddWriteHook(c.invalidateCaches)
}

// SizeDecodeCache sizes the predecoded-instruction cache to the RAM words
// in byte offsets [0, end); see Core.SizeDecodeCache.
func (c *TaintCore) SizeDecodeCache(end uint32) {
	c.ic = newICache(min(end, c.ramSize))
	c.ic.kept = c.keepWord
}

// keepWord hands the flight recorder the word at RAM offset off before a
// write or fence.i drops its decode-cache entry.
func (c *TaintCore) keepWord(off, w uint32) {
	if c.FR != nil {
		c.FR.Keep(c.ramBase+off, w, c.Instret)
	}
}

// DecodeCacheStats reports the decode-cache miss breakdown; see
// Core.DecodeCacheStats.
func (c *TaintCore) DecodeCacheStats() (fills, uncached uint64) {
	return c.ic.fills, c.uncachedFetch
}

// Halt stops the core before its next instruction.
func (c *TaintCore) Halt() { c.Halted = true }

// Position returns the program counter and the retired-instruction count.
func (c *TaintCore) Position() (pc uint32, instret uint64) { return c.PC, c.Instret }

// invalidateCaches, the tainted RAM's write hook, drops the predecoded
// entries (and their fetch-tag summaries) and the flag-cache block
// summaries covering RAM byte offsets [start, end).
func (c *TaintCore) invalidateCaches(start, end uint32) {
	c.ic.invalidate(start, end)
	c.markLazy(start, end)
}

// Run executes up to max instructions; see Core.Run. The first call arms
// the flag caches.
func (c *TaintCore) Run(max uint64, delay *kernel.Time) (n uint64, st RunStatus, err error) {
	if c.bstate == nil {
		c.armFlagCaches()
	}
	if c.Cov != nil {
		// Register occupancy follows each retire's rd; catch up with any
		// register written since the last Run.
		c.Cov.SyncRegs(&c.Regs)
	}
	fr := c.FR
	if fr == nil {
		return c.run(max, delay)
	}
	for {
		fr.Resume((*taintCode)(c), c.PC, c.Instret)
		var k uint64
		k, st, err = c.run(fr.Room(c.Instret, max-n), delay)
		n += k
		fr.Pause(c.Instret)
		if err != nil || st != RunOK || n >= max {
			return n, st, err
		}
	}
}

// run is the interpreter loop of Run.
func (c *TaintCore) run(max uint64, delay *kernel.Time) (n uint64, st RunStatus, err error) {
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

// trap enters the machine trap handler. Per the paper, the trap-vector
// target is subject to the branch execution clearance ("the same clearance
// is used to check the interrupt/trap handler address"); the trap CSRs
// take the default tag. The flight recorder marks the trap and opens the
// next block at the handler.
func (c *TaintCore) trap(cause, tval, epc uint32) error {
	if c.mtvec != 0 && !c.branchTagOK(c.mtvecT) {
		return c.branchViolation(c.mtvecT, epc, c.mtvec, obs.RegNone, obs.RegNone)
	}
	pc, err := c.enterTrap(cause, tval, epc)
	if err != nil {
		return err
	}
	if c.FR != nil {
		c.FR.MarkTrap(c.Instret, epc, tval, cause)
		c.FR.Resume((*taintCode)(c), pc, c.Instret+1)
	}
	c.mepcT, c.mcauseT, c.mtvalT = c.def, c.def, c.def
	c.PC = pc
	return nil
}

// branch closes the flight recorder's open block at the control transfer
// retiring now, word w continuing at next.
func (c *TaintCore) branch(w, next uint32) {
	if c.FR != nil {
		c.FR.Branch(c.Instret, w, next)
	}
}

// branchTagOK performs (and counts) the branch-condition / indirect-target
// clearance check. The violation construction is outlined into
// branchViolation so this stays within the inlining budget — it runs on
// every branch, jalr and mret.
func (c *TaintCore) branchTagOK(t core.Tag) bool {
	if !c.checkBranch {
		return true
	}
	if c.Counts != nil {
		c.Counts.Branch.Checks++
	}
	return c.lat.AllowedFlow(t, c.branchClear)
}

// branchViolation builds (and counts) the branch-clearance violation after
// branchTagOK failed at pc. val is the checked value the violation reports
// (the trap vector for a trap entry, 0 for a branch condition). rs1/rs2
// name the source registers for provenance (obs.RegNone when the condition
// comes from a CSR such as mepc or mtvec).
func (c *TaintCore) branchViolation(t core.Tag, pc, val uint32, rs1, rs2 uint8) *core.Violation {
	if c.Counts != nil {
		c.Counts.Branch.Violations++
	}
	v := core.NewViolation(c.lat, core.KindBranchClearance, t, c.branchClear).WithPC(pc).WithValue(val)
	if c.Obs != nil {
		c.Obs.SetInsn(pc, c.insnWord(pc))
		var p1, p2 uint64
		if rs1 != obs.RegNone {
			p1 = c.Obs.RegSource(rs1)
		}
		if rs2 != obs.RegNone {
			p2 = c.Obs.RegSource(rs2)
		}
		c.Obs.OnViolation(v, p1, p2)
	}
	return v
}

// addrTagOK performs (and counts) the memory-address clearance check; the
// cold violation path lives in addrViolation, keeping this inlinable inside
// load and store.
func (c *TaintCore) addrTagOK(t core.Tag) bool {
	if !c.checkMemAddr {
		return true
	}
	if c.Counts != nil {
		c.Counts.MemAddr.Checks++
	}
	return c.lat.AllowedFlow(t, c.memAddrClear)
}

// addrViolation builds (and counts) the mem-address-clearance violation
// after addrTagOK failed; base names the address-forming register for
// provenance.
func (c *TaintCore) addrViolation(t core.Tag, addr, pc uint32, base uint8) *core.Violation {
	if c.Counts != nil {
		c.Counts.MemAddr.Violations++
	}
	v := core.NewViolation(c.lat, core.KindMemAddrClearance, t, c.memAddrClear).
		WithPC(pc).WithAddr(addr)
	if c.Obs != nil {
		c.Obs.SetInsn(pc, c.insnWord(pc))
		c.Obs.OnViolation(v, c.Obs.RegSource(base), 0)
	}
	return v
}

// fetchWord assembles the little-endian instruction word at RAM offset off;
// the caller guarantees off+4 <= ramSize.
func (c *TaintCore) fetchWord(off uint32) uint32 {
	return uint32(c.ram[off].V) | uint32(c.ram[off+1].V)<<8 |
		uint32(c.ram[off+2].V)<<16 | uint32(c.ram[off+3].V)<<24
}

// foldFetchTag joins the four byte tags of an instruction word via the
// shared propagation engine's fold (core.Fold4): all-equal short circuit,
// LUB chain otherwise.
func (c *TaintCore) foldFetchTag(b0, b1, b2, b3 core.TByte) core.Tag {
	return core.Fold4(c.lat, b0, b1, b2, b3)
}

func (c *TaintCore) step(delay *kernel.Time) (RunStatus, error) {
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
			if !e.allowed {
				// Cached fetch-clearance verdict: the word's tag summary
				// may not flow to the execution unit.
				return RunOK, c.fetchViolation(pc, w, e.tag)
			}
		} else {
			b0, b1, b2, b3 := c.ram[off], c.ram[off+1], c.ram[off+2], c.ram[off+3]
			w = uint32(b0.V) | uint32(b1.V)<<8 | uint32(b2.V)<<16 | uint32(b3.V)<<24
			e.tag, e.allowed = 0, true
			if c.checkFetch {
				e.tag = c.foldFetchTag(b0, b1, b2, b3)
				e.allowed = c.lat.AllowedFlow(e.tag, c.fetchClear)
				if c.Counts != nil {
					c.Counts.Fetch.Tally(e.allowed)
				}
			}
			i = Decode(w)
			e.inst = i
			e.word = w
			e.state = icValid
			c.ic.noteFill(off)
			if !e.allowed {
				return RunOK, c.fetchViolation(pc, w, e.tag)
			}
		}
	} else {
		// Misaligned PC, fetch outside RAM, or the decode cache is off.
		if off >= c.ramSize || off+4 > c.ramSize {
			return RunOK, &BusError{What: "instruction fetch outside RAM", Addr: pc, PC: pc}
		}
		c.uncachedFetch++
		b0, b1, b2, b3 := c.ram[off], c.ram[off+1], c.ram[off+2], c.ram[off+3]
		w = uint32(b0.V) | uint32(b1.V)<<8 | uint32(b2.V)<<16 | uint32(b3.V)<<24
		if c.FR != nil {
			c.FR.Keep(pc, w, c.Instret)
		}
		if c.checkFetch {
			t := c.foldFetchTag(b0, b1, b2, b3)
			ok := c.lat.AllowedFlow(t, c.fetchClear)
			if c.Counts != nil {
				c.Counts.Fetch.Tally(ok)
			}
			if !ok {
				return RunOK, c.fetchViolation(pc, w, t)
			}
		}
		i = Decode(w)
	}

	next := pc + 4
	r := &c.Regs
	if c.Obs != nil {
		c.obsS1, c.obsS2 = r[i.Rs1], r[i.Rs2]
	}
	// Tag handling gates on the flag caches (see flagcache.go): a clear
	// register flag proves the operand carries the default tag, so the
	// check or the tag write it would feed is skipped.
	switch i.Op {
	case OpLUI:
		c.set(i.Rd, core.W(uint32(i.Imm), c.def))
	case OpAUIPC:
		c.set(i.Rd, core.W(pc+uint32(i.Imm), c.def))
	case OpJAL:
		c.set(i.Rd, core.W(next, c.def))
		next = pc + uint32(i.Imm)
		c.branch(w, next)
	case OpJALR:
		// Indirect jump: the target register steers control flow, so it is
		// subject to the branch clearance.
		if !c.defBranchOK || c.mask>>i.Rs1&1 != 0 {
			if !c.branchTagOK(r[i.Rs1].T) {
				return RunOK, c.branchViolation(r[i.Rs1].T, pc, 0, i.Rs1, obs.RegNone)
			}
		}
		t := (r[i.Rs1].V + uint32(i.Imm)) &^ 1
		c.set(i.Rd, core.W(next, c.def))
		next = t
		c.branch(w, next)
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		if !c.defBranchOK || (c.mask>>i.Rs1|c.mask>>i.Rs2)&1 != 0 {
			condTag := c.lat.LUB(r[i.Rs1].T, r[i.Rs2].T)
			if !c.branchTagOK(condTag) {
				return RunOK, c.branchViolation(condTag, pc, 0, i.Rs1, i.Rs2)
			}
		}
		a, b := r[i.Rs1].V, r[i.Rs2].V
		var taken bool
		switch i.Op {
		case OpBEQ:
			taken = a == b
		case OpBNE:
			taken = a != b
		case OpBLT:
			taken = int32(a) < int32(b)
		case OpBGE:
			taken = int32(a) >= int32(b)
		case OpBLTU:
			taken = a < b
		default:
			taken = a >= b
		}
		if taken {
			next = pc + uint32(i.Imm)
		}
		c.branch(w, next)
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		if err := c.load(i, delay, pc); err != nil {
			return RunOK, err
		}
	case OpSB:
		if err := c.store(i, 1, delay, pc); err != nil {
			return RunOK, err
		}
	case OpSH:
		if err := c.store(i, 2, delay, pc); err != nil {
			return RunOK, err
		}
	case OpSW:
		if err := c.store(i, 4, delay, pc); err != nil {
			return RunOK, err
		}
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
		var v uint32
		switch i.Op {
		case OpADDI:
			v = r[i.Rs1].V + uint32(i.Imm)
		case OpSLTI:
			v = b2u(int32(r[i.Rs1].V) < i.Imm)
		case OpSLTIU:
			v = b2u(r[i.Rs1].V < uint32(i.Imm))
		case OpXORI:
			v = r[i.Rs1].V ^ uint32(i.Imm)
		case OpORI:
			v = r[i.Rs1].V | uint32(i.Imm)
		case OpANDI:
			v = r[i.Rs1].V & uint32(i.Imm)
		case OpSLLI:
			v = r[i.Rs1].V << uint(i.Imm)
		case OpSRLI:
			v = r[i.Rs1].V >> uint(i.Imm)
		default:
			v = uint32(int32(r[i.Rs1].V) >> uint(i.Imm))
		}
		// All-clear source and destination: no tag state changes.
		if (c.mask>>i.Rs1|c.mask>>i.Rd)&1 == 0 {
			if i.Rd != 0 {
				r[i.Rd].V = v
			}
		} else {
			c.aluImm(i, v)
		}
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
		OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
		var v uint32
		switch i.Op {
		case OpADD:
			v = r[i.Rs1].V + r[i.Rs2].V
		case OpSUB:
			v = r[i.Rs1].V - r[i.Rs2].V
		case OpSLL:
			v = r[i.Rs1].V << (r[i.Rs2].V & 31)
		case OpSLT:
			v = b2u(int32(r[i.Rs1].V) < int32(r[i.Rs2].V))
		case OpSLTU:
			v = b2u(r[i.Rs1].V < r[i.Rs2].V)
		case OpXOR:
			v = r[i.Rs1].V ^ r[i.Rs2].V
		case OpSRL:
			v = r[i.Rs1].V >> (r[i.Rs2].V & 31)
		case OpSRA:
			v = uint32(int32(r[i.Rs1].V) >> (r[i.Rs2].V & 31))
		case OpOR:
			v = r[i.Rs1].V | r[i.Rs2].V
		case OpAND:
			v = r[i.Rs1].V & r[i.Rs2].V
		case OpMUL:
			v = r[i.Rs1].V * r[i.Rs2].V
		case OpMULH:
			v = uint32(uint64(int64(int32(r[i.Rs1].V))*int64(int32(r[i.Rs2].V))) >> 32)
		case OpMULHSU:
			v = uint32(uint64(int64(int32(r[i.Rs1].V))*int64(r[i.Rs2].V)) >> 32)
		case OpMULHU:
			v = uint32(uint64(r[i.Rs1].V) * uint64(r[i.Rs2].V) >> 32)
		case OpDIV:
			v = divS(r[i.Rs1].V, r[i.Rs2].V)
		case OpDIVU:
			v = divU(r[i.Rs1].V, r[i.Rs2].V)
		case OpREM:
			v = remS(r[i.Rs1].V, r[i.Rs2].V)
		default:
			v = remU(r[i.Rs1].V, r[i.Rs2].V)
		}
		if (c.mask>>i.Rs1|c.mask>>i.Rs2|c.mask>>i.Rd)&1 == 0 {
			if i.Rd != 0 {
				r[i.Rd].V = v
			}
		} else {
			c.alu(i, v)
		}
	case OpFENCE:
		// No-op: the memory model is sequentially consistent.
	case OpFENCEI:
		// Explicit fetch/store synchronization: drop every predecoded
		// entry together with its fetch-tag summary.
		c.ic.invalidateAll()
	case OpECALL:
		return RunOK, c.trap(CauseECallM, 0, pc)
	case OpEBREAK:
		return RunOK, c.trap(CauseBreakpoint, 0, pc)
	case OpMRET:
		// Return target comes from mepc: a control transfer steered by a
		// register, so the branch clearance applies (like jalr).
		if !c.branchTagOK(c.mepcT) {
			return RunOK, c.branchViolation(c.mepcT, pc, 0, obs.RegNone, obs.RegNone)
		}
		next = c.mret()
		c.branch(w, next)
	case OpWFI:
		// A sleeping wfi retires like any other instruction (observer,
		// cover, flight recorder) before step reports RunWFI.
	case OpCSRRW, OpCSRRS, OpCSRRC, OpCSRRWI, OpCSRRSI, OpCSRRCI:
		if err := c.csrOp(i, pc); err != nil {
			return RunOK, err
		}
		if c.PC != pc {
			return RunOK, nil
		}
	default:
		return RunOK, c.trap(CauseIllegalInstr, c.fetchWord(off), pc)
	}
	if c.Obs != nil {
		c.observeStep(i, pc, w, next)
	}
	if c.Cov != nil {
		c.coverStep(i)
	}
	if c.FR != nil && c.Regs[i.Rd].T != c.def {
		c.FR.TaintRd(c.Instret)
	}
	if c.PC == pc {
		c.PC = next
	}
	if i.Op == OpWFI && !c.PendingIRQ() {
		return RunWFI, nil
	}
	return RunOK, nil
}

// coverStep feeds the taint heatmap for one retired instruction: register
// occupancy for rd, the only register a retire can change, and store
// sites (safe post-switch because stores never write back a register, so
// Regs[rs1]/Regs[rs2] still hold the address base and data tag). Under
// ForceBusMem every store is a bus transaction, which the heatmap counts
// through the RAM's write hook instead. Guest block/edge coverage reads
// the flight stream. Called from step behind a single Cov guard, like
// observeStep, so the disabled hot loop pays one predictable branch.
func (c *TaintCore) coverStep(i Inst) {
	t := c.Cov
	t.OnRetire(i.Rd, c.Regs[i.Rd].T)
	if c.ForceBusMem {
		return
	}
	switch i.Op {
	case OpSB:
		t.OnStore(c.Regs[i.Rs1].V+uint32(i.Imm), 1, c.Regs[i.Rs2].T)
	case OpSH:
		t.OnStore(c.Regs[i.Rs1].V+uint32(i.Imm), 2, c.Regs[i.Rs2].T)
	case OpSW:
		t.OnStore(c.Regs[i.Rs1].V+uint32(i.Imm), 4, c.Regs[i.Rs2].T)
	}
}

// alu writes an R-type result: value computed by the caller, tag joined from
// both sources — the paper's overloaded-operator semantics (Fig. 3 line 35).
// step calls it only when a flag cache bit is set; provenance recording
// happens post-retire in observeStep.
func (c *TaintCore) alu(i Inst, v uint32) {
	c.set(i.Rd, core.W(v, c.lat.LUB(c.Regs[i.Rs1].T, c.Regs[i.Rs2].T)))
}

// aluImm writes an I-type ALU result carrying the source register's tag.
func (c *TaintCore) aluImm(i Inst, v uint32) {
	c.set(i.Rd, core.W(v, c.Regs[i.Rs1].T))
}

// set writes a destination register, keeping x0 hardwired to zero with the
// policy default class and rd's register flag exact.
func (c *TaintCore) set(rd uint8, w core.Word) {
	if rd != 0 {
		c.Regs[rd] = w
		c.noteTag(rd, w.T)
	}
}

// insnWord refetches the instruction word at pc for the paths that record
// a provenance event before the retire: violation reports and store events.
func (c *TaintCore) insnWord(pc uint32) uint32 {
	off := pc - c.ramBase
	if off < c.ramSize && off+4 <= c.ramSize {
		return c.fetchWord(off)
	}
	return 0
}

// observeStep records the retired instruction's provenance: the
// instruction-boundary bookkeeping (BeginInsn), op events for ALU results,
// load events and the register assignments that consume them, and
// indirect-jump PC provenance. w is the word step fetched and executed.
// Called from step behind a single Obs guard; the *pre-execution* source
// operands are snapshot in c.obsS1/c.obsS2 before the switch (which may
// overwrite them when rd aliases a source) rather than passed as
// arguments, so the disabled-observer path carries no extra live values.
// Deferring all recording to one post-retire call keeps alu/aluImm/set and
// the fetch fast path free of per-instruction observer branches — the
// disabled-observer hot loop compiles to the pre-observability code plus
// one check. Store events are the exception: they must be emitted inside
// store, before the bus transaction triggers a peripheral's
// output-clearance check.
func (c *TaintCore) observeStep(i Inst, pc, w, next uint32) {
	o := c.Obs
	s1, s2 := c.obsS1, c.obsS2
	o.BeginInsn(pc, w)
	switch i.Op {
	case OpJALR:
		// Order matters: OnJump reads rs1's provenance before AssignReg can
		// clear it (jalr ra, ra, 0 aliases rd and rs1).
		o.OnJump(next, i.Rs1, s1.T)
		o.AssignReg(i.Rd)
	case OpMRET:
		o.OnJump(next, obs.RegNone, c.mepcT)
	case OpLB, OpLBU:
		o.OnLoad(s1.V+uint32(i.Imm), 1, c.Regs[i.Rd])
		o.AssignReg(i.Rd)
	case OpLH, OpLHU:
		o.OnLoad(s1.V+uint32(i.Imm), 2, c.Regs[i.Rd])
		o.AssignReg(i.Rd)
	case OpLW:
		o.OnLoad(s1.V+uint32(i.Imm), 4, c.Regs[i.Rd])
		o.AssignReg(i.Rd)
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
		o.OnOp(i.Rs1, obs.RegNone, c.Regs[i.Rd].V, s1.T)
		o.AssignReg(i.Rd)
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
		OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
		// The join alu already counted; the observer's copy is uncounted.
		o.OnOp(i.Rs1, i.Rs2, c.Regs[i.Rd].V, c.lat.PeekLUB(s1.T, s2.T))
		o.AssignReg(i.Rd)
	case OpLUI, OpAUIPC, OpJAL,
		OpCSRRW, OpCSRRS, OpCSRRC, OpCSRRWI, OpCSRRSI, OpCSRRCI:
		o.AssignReg(i.Rd) // untracked writers sever rd's old provenance
	}
}

// fetchViolation builds a fetch-clearance violation, attaching provenance
// through both the fetched word (freshly injected code) and the indirect
// jump that steered the PC there (an overwritten return address).
func (c *TaintCore) fetchViolation(pc, w uint32, t core.Tag) *core.Violation {
	v := core.NewViolation(c.lat, core.KindFetchClearance, t, c.fetchClear).
		WithPC(pc).WithValue(w)
	if c.Obs != nil {
		c.Obs.SetInsn(pc, w)
		c.Obs.OnViolation(v, c.Obs.MemSource(pc), c.Obs.PCSource())
	}
	return v
}

// load executes a load instruction: address check, memory read, sign
// extension and writeback in one call. Clean blocks skip the tag fold,
// Uniform blocks take the block tag, other blocks fold the byte tags.
func (c *TaintCore) load(i Inst, delay *kernel.Time, pc uint32) error {
	size := uint32(4)
	switch i.Op {
	case OpLB, OpLBU:
		size = 1
	case OpLH, OpLHU:
		size = 2
	}
	base := c.Regs[i.Rs1]
	addr := base.V + uint32(i.Imm)
	if c.FR != nil {
		c.FR.Addr(c.Instret, addr)
	}
	if c.checkMemAddr && (!c.defMemOK || c.mask>>i.Rs1&1 != 0) {
		if !c.addrTagOK(base.T) {
			return c.addrViolation(base.T, addr, pc, i.Rs1)
		}
	}
	var v uint32
	t := c.def
	off := addr - c.ramBase
	if !c.ForceBusMem && off < c.ramSize && off+size <= c.ramSize {
		b0, b1 := off>>blockShift, (off+size-1)>>blockShift
		s := c.bstate[b0] | c.bstate[b1]
		if s == bsClean || (s == bsUniform && c.bstate[b0] == c.bstate[b1] && c.btag[b0] == c.btag[b1]) {
			if s != bsClean {
				t = c.btag[b0]
			}
			switch size {
			case 1:
				v = uint32(c.ram[off].V)
			case 2:
				v = uint32(c.ram[off].V) | uint32(c.ram[off+1].V)<<8
			default:
				v = uint32(c.ram[off].V) | uint32(c.ram[off+1].V)<<8 |
					uint32(c.ram[off+2].V)<<16 | uint32(c.ram[off+3].V)<<24
			}
		} else {
			if s == bsLazy { // a Lazy block, or Uniform next to Exact
				c.scanLazy(b0, b1)
			}
			// Fold2/Fold4 short-circuit when all accessed bytes carry the
			// same tag, avoiding the per-byte LUB chain.
			switch size {
			case 1:
				b := c.ram[off]
				v, t = uint32(b.V), b.T
			case 2:
				b0, b1 := c.ram[off], c.ram[off+1]
				v, t = uint32(b0.V)|uint32(b1.V)<<8, core.Fold2(c.lat, b0, b1)
			default:
				b0, b1, b2, b3 := c.ram[off], c.ram[off+1], c.ram[off+2], c.ram[off+3]
				v = uint32(b0.V) | uint32(b1.V)<<8 | uint32(b2.V)<<16 | uint32(b3.V)<<24
				t = core.Fold4(c.lat, b0, b1, b2, b3)
			}
		}
	} else {
		if err := c.transact(c.bus, tlm.Read, addr, size, delay, pc); err != nil {
			return err
		}
		t = c.mmioBuf[0].T
		for j := uint32(0); j < size; j++ {
			v |= uint32(c.mmioBuf[j].V) << (8 * j)
			t = c.lat.LUB(t, c.mmioBuf[j].T)
		}
	}
	switch i.Op {
	case OpLB:
		v = uint32(int32(v<<24) >> 24)
	case OpLH:
		v = uint32(int32(v<<16) >> 16)
	}
	c.set(i.Rd, core.W(v, t))
	return nil
}

// store writes size bytes little-endian, each carrying the value's tag,
// after the memory-address and region store-clearance checks. Clean blocks
// take default-tagged data and Uniform blocks matching-tagged data with no
// tag writes at all; everything else takes the per-byte spread.
func (c *TaintCore) store(i Inst, size uint32, delay *kernel.Time, pc uint32) error {
	base, val := c.Regs[i.Rs1], c.Regs[i.Rs2]
	addr := base.V + uint32(i.Imm)
	if c.FR != nil {
		c.FR.Addr(c.Instret, addr)
	}
	if c.checkMemAddr && (!c.defMemOK || c.mask>>i.Rs1&1 != 0) {
		if !c.addrTagOK(base.T) {
			return c.addrViolation(base.T, addr, pc, i.Rs1)
		}
	}
	if c.checkStores {
		// CheckStore counts each rule it checks in the policy's counter set.
		if err := c.pol.CheckStore(addr, val.T); err != nil {
			if v, ok := err.(*core.Violation); ok {
				v.PC = pc
				if c.Obs != nil {
					c.Obs.SetInsn(pc, c.insnWord(pc))
					c.Obs.OnViolation(v, c.Obs.RegSource(i.Rs2), 0)
				}
			}
			return err
		}
	}
	if c.Obs != nil {
		// Emitted here, not in observeStep: the bus write below may trigger a
		// peripheral's output-clearance check, which links to this event via
		// LastStore.
		c.Obs.SetInsn(pc, c.insnWord(pc))
		c.Obs.OnStore(addr, size, i.Rs2, val)
	}
	off := addr - c.ramBase
	if !c.ForceBusMem && off < c.ramSize && off+size <= c.ramSize {
		b0, b1 := off>>blockShift, (off+size-1)>>blockShift
		s := c.bstate[b0] | c.bstate[b1]
		if (s == bsClean && val.T == c.def) ||
			(s == bsUniform && c.bstate[b0] == c.bstate[b1] && c.btag[b0] == val.T && c.btag[b1] == val.T) {
			switch size {
			case 1:
				c.ram[off].V = byte(val.V)
			case 2:
				c.ram[off].V = byte(val.V)
				c.ram[off+1].V = byte(val.V >> 8)
			default:
				c.ram[off].V = byte(val.V)
				c.ram[off+1].V = byte(val.V >> 8)
				c.ram[off+2].V = byte(val.V >> 16)
				c.ram[off+3].V = byte(val.V >> 24)
			}
		} else {
			c.storeTags(off, size, val.V, val.T)
		}
		// Keep the decode cache (and its fetch-tag summaries) coherent with
		// self-modifying or freshly injected code.
		if c.ic.overlaps(off, off+size) {
			c.ic.invalidate(off, off+size)
		}
		return nil
	}
	for j := uint32(0); j < size; j++ {
		c.mmioBuf[j] = core.TByte{V: byte(val.V >> (8 * j)), T: val.T}
	}
	return c.transact(c.bus, tlm.Write, addr, size, delay, pc)
}

// csrOp executes the Zicsr instructions with tag propagation: rd receives
// the CSR's tag, and a write carries the operand's tag (csrrw) or its join
// with the CSR's (csrrs, csrrc) into the CSR. The immediate forms' operand
// has the default tag.
func (c *TaintCore) csrOp(i Inst, pc uint32) error {
	csr := uint32(i.Imm)
	old, tag, ok := c.csrRead(csr, c.Instret)
	if !ok {
		return c.trap(CauseIllegalInstr, 0, pc)
	}
	oldT := c.def
	if tag != nil {
		oldT = *tag
	}
	operand := c.Regs[i.Rs1]
	if csrImm(i.Op) {
		operand = core.W(uint32(i.Rs1), c.def)
	}
	v, write := csrResult(i, old, operand.V)
	t := operand.T
	if i.Op != OpCSRRW && i.Op != OpCSRRWI {
		t = c.lat.LUB(oldT, operand.T)
	}
	if write {
		if !c.csrWrite(csr, v) {
			return c.trap(CauseIllegalInstr, 0, pc)
		}
		if tag != nil {
			*tag = t
		}
	}
	c.set(i.Rd, core.W(old, oldT))
	return nil
}
