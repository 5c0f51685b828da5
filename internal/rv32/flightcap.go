package rv32

import "vpdift/internal/flight"

// Flight-recorder capture for both cores: one block record per basic block
// (see internal/flight). Run opens a block where the core resumes
// (Recorder.Resume) and closes it when the call ends (Recorder.Pause), in
// chunks of at most Recorder.Room instructions. In between, every retire
// joins the open block and costs no record:
//
//   - a control transfer (jal, jalr, a branch taken or not, mret) closes
//     the block at itself in its switch arm (branch), with its word and
//     successor, and the next block opens at the successor;
//   - a trap marks itself and opens the next block at the handler (trap);
//   - the platform's marks close the open block at their instret;
//   - per retire, a load or store pushes its effective address
//     (Recorder.Addr) from the memory helper, which alone can compute it
//     before rd overwrites rs1, and the VP+ pushes the instret of a retire
//     that leaves rd tagged (Recorder.TaintRd).
//
// A violating, faulting or trapping instruction never retires, so it joins
// no block; the platform appends terminal violations and faults as marks,
// which is what lets the bundle's trace window end at the violating
// instruction. A sleeping wfi retires like any other instruction.
//
// The recorder rebuilds every other retired word from memory when it
// expands a block, so the words a retire may have executed are kept before
// anything replaces them: the decode cache hands over each valid entry a
// store, a RAM write hook or fence.i drops (icache.kept), and a fetch that
// bypasses the cache (past the image, misaligned, or the cache off) keeps
// its word at once. Register tags are exact at every instruction boundary
// whether or not the flag caches are pinned (see flagcache.go), so the
// captured window does not depend on them.

// flightFlags gives each opcode its static flight-record flag bits; the
// recorder adds FlagTaken and FlagTaintRd when it expands a block.
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

// plainCode and taintCode are the cores' programs as the flight recorder
// reads them (flight.Code).
type (
	plainCode Core
	taintCode TaintCore
)

// Word returns the word now at pc, 0 outside RAM.
func (c *plainCode) Word(pc uint32) uint32 {
	if off := pc - c.ramBase; off < c.ramSize && off+4 <= c.ramSize {
		return (*Core)(c).fetchWord(off)
	}
	return 0
}

// Flags returns the static flight flags of word w.
func (*plainCode) Flags(w uint32) uint8 { return flightFlags[Decode(w).Op] }

// Word returns the word now at pc, 0 outside RAM.
func (c *taintCode) Word(pc uint32) uint32 {
	if off := pc - c.ramBase; off < c.ramSize && off+4 <= c.ramSize {
		return (*TaintCore)(c).fetchWord(off)
	}
	return 0
}

// Flags returns the static flight flags of word w.
func (*taintCode) Flags(w uint32) uint8 { return flightFlags[Decode(w).Op] }

// RegName returns the ABI name of architectural register r (0..31).
func RegName(r int) string {
	if r < 0 || r >= len(abiNames) {
		return "?"
	}
	return abiNames[r]
}
