package rv32

import "vpdift/internal/flight"

// Flight-recorder capture for both cores: the one per-retire tap. The
// capture site is the very end of the interpreter step, after the switch
// and every clearance check, so a record exists exactly when the
// instruction retired — a sleeping wfi included, while violating, faulting
// or trapping instructions never reach it; the platform appends terminal
// violations and faults as marks instead, which is what lets the bundle's
// trace window end at the violating instruction. The records double as the
// stream the guest profiler, guest coverage and vp-run -trace subscribe to
// (flight.Recorder.Subscribe), so those analyses need no hook here.

// flightFlags gives each opcode its static flight-record flag bits; the
// dynamic bits (FlagTaken, FlagTaintRd) are added at capture time.
var flightFlags = func() [numOps]uint8 {
	var t [numOps]uint8
	for _, op := range []Op{OpJAL, OpJALR, OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpMRET} {
		t[op] = flight.FlagBranch
	}
	for _, op := range []Op{OpLB, OpLH, OpLW, OpLBU, OpLHU} {
		t[op] = flight.FlagLoad
	}
	for _, op := range []Op{OpSB, OpSH, OpSW} {
		t[op] = flight.FlagStore
	}
	return t
}()

// The capture itself is hand-inlined at the end of Core.step and
// TaintCore.step behind a nil check on FR: it must cost a handful of
// instructions per retire, not a function call, and as a helper it exceeds
// the compiler's inlining budget. Both copies follow the same shape —
//
//	fl := flightFlags[i.Op]
//	if next != pc+4 { fl |= flight.FlagTaken }
//	(VP+ only) if i.Rd != 0 && c.Regs[i.Rd].T != c.def { fl |= flight.FlagTaintRd }
//	addr := c.frAddr for loads/stores, next (the successor PC) otherwise
//	fill c.FR.Slot() with {Instret, pc, w, addr, 0, KindRetire, fl}
//	if c.FR.Full() { c.FR.Flush() }
//
// where c.frAddr was stashed by the load/store helpers (recomputing the
// effective address post-switch would be wrong when rd aliases rs1). Full
// is true only when every slot holds a record a subscriber has yet to see,
// so the flush runs before the next capture could overwrite one, and
// without subscribers the branch is never taken; Full and Slot both inline,
// while Slot with the flush folded in would not. The check sits after the
// stores, and step returns constants rather than a status variable: that
// shape measured about 1.5 ns per retire cheaper on qsort (2-vCPU Xeon VM)
// than checking before the claim.
// Register tags are exact at every instruction boundary whether or not the
// flag caches are pinned (see flagcache.go), so the captured window does
// not depend on them.

// RegName returns the ABI name of architectural register r (0..31).
func RegName(r int) string {
	if r < 0 || r >= len(abiNames) {
		return "?"
	}
	return abiNames[r]
}
