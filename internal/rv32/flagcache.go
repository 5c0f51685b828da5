package rv32

// The VP+ flag caches: front-end state that proves the common instruction
// needs no tag work at all, so the one interpreter step (TaintCore.step)
// runs clean code at close to VP speed while keeping every tag exact.
//
//   - A per-register flag (mask): a clear bit proves the register carries
//     the policy-default tag, so all-clear ALU ops write the value half only
//     and skip every clearance lookup covered by defBranchOK/defMemOK.
//   - 64-byte block summaries (bstate): a Clean block proves every byte tag
//     in it is the default, so loads skip the tag fold and default-tagged
//     stores skip the tag spread; a Uniform block proves every byte tag
//     equals btag (the steady state of policy-classified regions), so loads
//     take the block tag without folding and stores of matching data change
//     no tag state. Exact blocks fold and spread per byte while nonDef counts
//     their non-default bytes; a block whose last non-default byte dies
//     re-arms to Clean. Lazy blocks have not been scanned since the last
//     external write and are classified on first CPU access.
//
// Precision holds by construction: every clearance check runs at the
// faulting instruction against exact tags, and the fast paths apply only
// when the caches prove the check's inputs are default (or match the
// uniform block tag). Violations, results and final tag state are identical
// with the caches on and off.
//
// Coherence: the caches arm at the first Run, after soc.Load has written
// the image and its classification through the raw Data() slice (which
// fires no hooks): every block starts Lazy and the register flags are
// derived from the register file. After that, CPU writes keep the caches
// exact inline, and every other RAM writer (mem.Memory's Load, Classify
// and TLM/DMA writes) reaches invalidateCaches through the RAM write hook,
// which marks the touched blocks Lazy again.
//
// Pinning: the counter sets count every clearance check per point (the
// enforcement set: checks.*, the policy audit) and every LUB and flow
// query per edge (the lattice set: lub_ops, the audit), so while a
// counter set is installed (an observer or the audit attached) the caches
// are pinned to "maybe tainted": every register flag stays set and every
// block stays Exact, and step performs exactly the checks and lattice
// queries of an uncached interpreter. Fetch checks run on every
// decode-cache miss either way. The parity test pins the caches the same
// way (the pinned field) to hold cache on against cache off.

import "vpdift/internal/core"

// Block summary geometry.
const (
	blockShift = 6
	blockSize  = 1 << blockShift
)

// Block states. Clean is zero so "any spanned block non-Clean" is a single
// OR-and-compare in the hot path.
const (
	bsClean   uint8 = iota
	bsUniform       // every byte tag equals btag
	bsExact         // mixed tags: fold and spread per byte
	bsLazy          // not scanned since the last external write
)

// armFlagCaches runs at the first Run. Blocks start Lazy, so arming costs a
// fill of one byte per block, not a scan of RAM.
func (c *TaintCore) armFlagCaches() {
	nb := (len(c.ram) + blockSize - 1) >> blockShift
	c.bstate = make([]uint8, nb)
	c.pinned = c.pinned || c.Counts != nil
	if c.pinned {
		c.mask = ^uint32(0)
		fillBlocks(c.bstate, bsExact)
		return
	}
	fillBlocks(c.bstate, bsLazy)
	c.btag = make([]core.Tag, nb)
	c.nonDef = make([]uint16, nb)
	c.defBranchOK = !c.checkBranch || c.lat.AllowedFlow(c.def, c.branchClear)
	c.defMemOK = !c.checkMemAddr || c.lat.AllowedFlow(c.def, c.memAddrClear)
	for r := 1; r < 32; r++ {
		if c.Regs[r].T != c.def {
			c.mask |= 1 << r
		}
	}
}

// fillBlocks sets every block state to s, doubling the filled prefix with
// copy instead of storing byte by byte.
func fillBlocks(b []uint8, s uint8) {
	if len(b) == 0 {
		return
	}
	b[0] = s
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// noteTag keeps rd's register flag exact after a write of tag t.
func (c *TaintCore) noteTag(rd uint8, t core.Tag) {
	if t != c.def || c.pinned {
		c.mask |= 1 << rd
	} else {
		c.mask &^= 1 << rd
	}
}

// markLazy drops the summaries of the blocks covering RAM offsets
// [start, end) after a write the core did not make itself.
func (c *TaintCore) markLazy(start, end uint32) {
	if c.nonDef == nil || start >= end {
		return // not armed yet, or pinned
	}
	if end > uint32(len(c.ram)) {
		end = uint32(len(c.ram))
	}
	for b := start >> blockShift; b <= (end-1)>>blockShift; b++ {
		c.bstate[b] = bsLazy
	}
}

// scanBlock counts one block's non-default byte tags and classifies it as
// Clean, Uniform or Exact.
func (c *TaintCore) scanBlock(b uint32) {
	lo := int(b) << blockShift
	hi := min(lo+blockSize, len(c.ram))
	first := c.ram[lo].T
	uniform := true
	n := uint16(0)
	for _, tb := range c.ram[lo:hi] {
		if tb.T != c.def {
			n++
		}
		if tb.T != first {
			uniform = false
		}
	}
	c.nonDef[b] = n
	switch {
	case n == 0:
		c.bstate[b] = bsClean
	case uniform:
		c.bstate[b] = bsUniform
		c.btag[b] = first
	default:
		c.bstate[b] = bsExact
	}
}

// scanLazy classifies the (at most two) blocks an access spans if they are
// Lazy, so the exact paths can trust nonDef. Callers skip it unless the
// OR of the two states is bsLazy (a Lazy block, or Uniform next to Exact).
func (c *TaintCore) scanLazy(b0, b1 uint32) {
	if c.bstate[b0] == bsLazy {
		c.scanBlock(b0)
	}
	if b1 != b0 && c.bstate[b1] == bsLazy {
		c.scanBlock(b1)
	}
}

// storeTags is the store slow path: spread tag t over size bytes at RAM
// offset off with value val. Pinned, it is the plain spread; otherwise it
// keeps the non-default counts and block states exact, re-arming a block to
// Clean when its last non-default byte dies.
func (c *TaintCore) storeTags(off, size, val uint32, t core.Tag) {
	if c.pinned {
		for j := uint32(0); j < size; j++ {
			c.ram[off+j] = core.TByte{V: byte(val >> (8 * j)), T: t}
		}
		return
	}
	if b0, b1 := off>>blockShift, (off+size-1)>>blockShift; c.bstate[b0]|c.bstate[b1] == bsLazy {
		c.scanLazy(b0, b1)
	}
	for j := uint32(0); j < size; j++ {
		o := off + j
		old := c.ram[o].T
		c.ram[o] = core.TByte{V: byte(val >> (8 * j)), T: t}
		if old == t {
			continue
		}
		b := o >> blockShift
		if old == c.def {
			c.nonDef[b]++
		} else if t == c.def {
			c.nonDef[b]--
		}
		if c.nonDef[b] == 0 {
			c.bstate[b] = bsClean
		} else {
			c.bstate[b] = bsExact
		}
	}
}
