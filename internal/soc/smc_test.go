package soc

import (
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
)

// Self-modifying code through bus initiators: the decode caches are
// invalidated inline for the CPU's own direct-path stores, but writes that
// arrive over the TLM fabric — the DMA engine, or data stores routed
// through full transactions under TaintMemViaTLM — reach RAM behind the
// CPU's back and invalidate via the memory write hooks. These tests pin
// that hook path on both platforms.
//
// The guest calls victim (returns 1, warming the decode cache), rewrites
// victim's first instruction with `addi a0, x0, 7` via the path under
// test, calls victim again, and exits 0 only if the calls returned 1 and 7.
const smcDMAGuest = `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	call victim
	mv s0, a0            # 1
	li t0, DMA_BASE
	la t1, newinsn
	sw t1, DMA_SRC(t0)
	la t1, victim
	sw t1, DMA_DST(t0)
	li t1, 4
	sw t1, DMA_LEN(t0)
	li t1, 1
	sw t1, DMA_CTRL(t0)  # copy happens immediately in the model
	call victim          # must now return 7
	xori t0, a0, 7
	xori t1, s0, 1
	or a0, t0, t1        # 0 iff both calls returned as expected
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

victim:
	li a0, 1
	ret

newinsn:
	li a0, 7             # the word DMA copies over victim's first insn
`

func runSMCGuest(t *testing.T, cfg Config, src string) {
	t.Helper()
	pl := MustNew(cfg)
	defer pl.Shutdown()
	if err := pl.Load(guest.MustProgram(src)); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	exited, code := pl.Exited()
	if !exited || code != 0 {
		t.Fatalf("exited=%v code=%d, want clean exit 0 (stale instruction executed?)", exited, code)
	}
}

func TestSelfModifyingCodeViaDMAOnVP(t *testing.T) {
	runSMCGuest(t, Config{}, smcDMAGuest)
}

func TestSelfModifyingCodeViaDMAOnVPPlus(t *testing.T) {
	// A fetch-checking integrity policy with the whole image HI: the DMA
	// source word lives inside the image, so the copy carries HI tags and
	// the patched victim must (re-)pass the fetch check. This exercises
	// both halves of the hook: the stale decoded instruction is dropped
	// AND the cached fetch-tag summary is recomputed over the new bytes.
	img := guest.MustProgram(smcDMAGuest)
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "image", Start: img.Base, End: img.End(),
			Classify: true, Class: hi,
		})
	runSMCGuest(t, Config{Policy: pol}, smcDMAGuest)
}

func TestSelfModifyingCodeViaTLMStore(t *testing.T) {
	// TaintMemViaTLM routes the patch store through a full TLM transaction
	// into mem.Memory.Transport instead of the CPU's direct path, so the
	// invalidation must come from the write hook.
	l := core.IFP2()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
	runSMCGuest(t, Config{Policy: pol, TaintMemViaTLM: true}, `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	call victim
	mv s0, a0            # 1
	la t0, victim
	la t1, newinsn
	lw t1, 0(t1)
	sw t1, 0(t0)         # TLM-routed store over victim's first insn
	call victim          # must now return 7
	xori t0, a0, 7
	xori t1, s0, 1
	or a0, t0, t1
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

victim:
	li a0, 1
	ret

newinsn:
	li a0, 7
`)
}

// The decode cache covers only the loaded image (soc.Load sizes it to
// img.End()); code run past the image decodes uncached. This guest copies
// victim to farCode, past the image, runs the copy, patches it and runs it
// again. Both cores must end in the same state with the cache on and off,
// and NoDecodeCache must stay off although Load sizes the cache after New.
const smcFarGuest = `
	.equ FAR_CODE, 0x80400000
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	li s1, FAR_CODE
	la t0, victim
	lw t1, 0(t0)
	sw t1, 0(s1)
	lw t1, 4(t0)
	sw t1, 4(s1)
	fence.i
	jalr s1              # the copy returns 1
	mv s0, a0
	la t0, newinsn
	lw t1, 0(t0)
	sw t1, 0(s1)         # patch the copy's first instruction
	jalr s1              # must now return 7
	slli s0, s0, 4
	or a0, a0, s0        # exit code 0x17
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

victim:
	li a0, 1
	ret

newinsn:
	li a0, 7
`

func TestDecodeCachePastImage(t *testing.T) {
	img := guest.MustProgram(smcFarGuest)
	const farCode = 0x80400000
	if img.End() > farCode {
		t.Fatalf("image ends at %#x, past the copy target", img.End())
	}
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "image", Start: img.Base, End: img.End(),
			Classify: true, Class: hi,
		})
	type state struct {
		code    uint32
		instret uint64
		pc      uint32
		regs    [32]core.Word
		far     [8]core.TByte
	}
	run := func(cfg Config) (s state, fills, uncached uint64) {
		pl := MustNew(cfg)
		defer pl.Shutdown()
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(kernel.Forever); err != nil {
			t.Fatal(err)
		}
		_, s.code = pl.Exited()
		s.instret = pl.Instret()
		off := uint32(farCode - RAMBase)
		if pl.Core != nil {
			fills, uncached = pl.Core.DecodeCacheStats()
			s.pc = pl.Core.PC
			for i, v := range pl.Core.Regs {
				s.regs[i] = core.W(v, 0)
			}
			for i := range s.far {
				s.far[i] = core.TByte{V: pl.plainRAM.Data()[off+uint32(i)]}
			}
		} else {
			fills, uncached = pl.TaintCore.DecodeCacheStats()
			s.pc = pl.TaintCore.PC
			s.regs = pl.TaintCore.Regs
			copy(s.far[:], pl.ram.Data()[off:])
		}
		return s, fills, uncached
	}
	for _, p := range []*core.Policy{nil, pol} {
		// The copy target lies 4 MiB into RAM, past what Load would size
		// for this image, so back the whole window.
		on, fillsOn, uncachedOn := run(Config{Policy: p, RAMSize: DefaultRAMSize})
		off, fillsOff, _ := run(Config{Policy: p, RAMSize: DefaultRAMSize, NoDecodeCache: true})
		if on.code != 0x17 {
			t.Errorf("policy=%v: exit code %#x, want 0x17 (stale copy executed?)", p != nil, on.code)
		}
		if on != off {
			t.Errorf("policy=%v: cache on and off disagree:\n on  %+v\n off %+v", p != nil, on, off)
		}
		if fillsOn == 0 || uncachedOn == 0 {
			t.Errorf("policy=%v: cache on: %d fills, %d uncached fetches; want both nonzero", p != nil, fillsOn, uncachedOn)
		}
		if fillsOff != 0 {
			t.Errorf("policy=%v: NoDecodeCache filled %d entries", p != nil, fillsOff)
		}
	}
}
