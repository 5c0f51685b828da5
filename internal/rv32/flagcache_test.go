package rv32

import (
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/kernel"
)

// Test-only access for the external parity test (parity_test.go), which
// drives whole platforms and so cannot live in this package.

// PinFlagCaches pins c's flag caches to "maybe tainted", turning them off.
// Call it before the first Run.
func PinFlagCaches(c *TaintCore) { c.pinned = true }

// TaintRAM exposes c's tagged RAM.
func TaintRAM(c *TaintCore) []core.TByte { return c.ram }

// CachedBlocks counts the blocks whose summary currently lets loads or
// stores skip per-byte tag work (Clean or Uniform).
func CachedBlocks(c *TaintCore) int {
	n := 0
	for _, s := range c.bstate {
		if s == bsClean || s == bsUniform {
			n++
		}
	}
	return n
}

// TestFlagCacheRearm is the zero-live-taint regression test: after every
// live tag is overwritten to the default (taint death — there is no
// explicit clear API), the register flags must clear and the tainted
// blocks re-arm to Clean, so the clean loop that follows runs entirely on
// the fast paths, not just the code before the first seeding.
func TestFlagCacheRearm(t *testing.T) {
	src := `
_start:
	la t0, secret
	lw a0, 0(t0)        # seed: live taint
	la t1, buf
	sw a0, 0(t1)        # taint memory
	li a0, 0            # kill the register
	sw x0, 0(t1)        # kill the buffer bytes
	sw x0, 0(t0)        # kill the classified source bytes
	li t2, 200          # post-death loop: ~1000 instructions, all clear
1:	lw a1, 0(t1)
	addi a1, a1, 1
	sw a1, 0(t1)
	addi t2, t2, -1
	bnez t2, 1b
	call halt
	.data
secret:
	.word 0x5ec4e7
buf:
	.space 16
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	r := buildTaint(t, src, pol)
	var delay kernel.Time
	for !r.c.Halted {
		if _, _, err := r.c.Run(64, &delay); err != nil {
			t.Fatal(err)
		}
	}
	if r.c.pinned {
		t.Fatal("caches pinned without a counter set installed")
	}
	if r.c.mask != 0 {
		t.Errorf("register flags %#x after full taint death, want 0", r.c.mask)
	}
	for b, s := range r.c.bstate {
		if s == bsUniform || s == bsExact {
			t.Errorf("block %#x still dirty (state %d) after full taint death", b<<blockShift, s)
		}
	}
	for _, sym := range []string{"secret", "buf"} {
		b := (img.MustSymbol(sym) - testRAMBase) >> blockShift
		if r.c.bstate[b] != bsClean {
			t.Errorf("%s block state %d, want Clean (re-armed after taint death)", sym, r.c.bstate[b])
		}
	}
}
