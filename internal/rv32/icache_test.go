package rv32

import (
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/kernel"
)

// The predecoded-instruction cache must never let a core execute stale
// bytes: a guest that overwrites one of its own instructions has to see the
// new encoding on the next fetch. The tests below pin that invalidation
// semantics on both cores — for direct-path stores, with and without an
// intervening FENCE.I (the model invalidates eagerly on every store, which
// is stricter than the architecture requires, and FENCE.I must at minimum
// keep working as the architectural synchronization point).
//
// smcPatchBody calls victim (warming the cache with `li a0, 1`), overwrites
// victim's first instruction with `addi a0, x0, 7`, optionally issues
// FENCE.I, calls victim again, and packs both return values into a0:
// (first << 4) | second = 0x17 when the patch took effect.
func smcPatchBody(fence string) string {
	return `
_start:
	call victim          # warm the decode cache; returns 1
	mv s0, a0
	la t0, victim
	la t1, patch
	lw t1, 0(t1)
	sw t1, 0(t0)         # overwrite victim's first instruction
	` + fence + `
	call victim          # must now return 7
	slli s0, s0, 4
	or a0, a0, s0        # 0x17 on success
	call halt

victim:
	li a0, 1
	ret

	.data
	.align 2
patch:
	.word 0x00700513     # addi a0, x0, 7
`
}

func TestSelfModifyingCodePlainCore(t *testing.T) {
	for _, tc := range []struct {
		name, fence string
	}{
		{"with fence.i", "fence.i"},
		{"without fence.i", "nop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, _ := runPlain(t, smcPatchBody(tc.fence))
			if got := c.Regs[10]; got != 0x17 {
				t.Errorf("a0 = %#x, want 0x17 (stale instruction executed)", got)
			}
			if fills, _ := c.DecodeCacheStats(); fills == 0 {
				t.Error("no decode-cache fills: the test ran uncached")
			}
		})
	}
}

func TestSelfModifyingCodeTaintCore(t *testing.T) {
	// A no-check policy: the point here is purely that the VP+ decode cache
	// invalidates on stores, not what the tags say.
	for _, tc := range []struct {
		name, fence string
	}{
		{"with fence.i", "fence.i"},
		{"without fence.i", "nop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := core.IFP2()
			pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
			r := buildTaint(t, smcPatchBody(tc.fence), pol)
			if err := r.run(t); err != nil {
				t.Fatal(err)
			}
			if got := r.c.Regs[10].V; got != 0x17 {
				t.Errorf("a0 = %#x, want 0x17 (stale instruction executed)", got)
			}
			if fills, _ := r.c.DecodeCacheStats(); fills == 0 {
				t.Error("no decode-cache fills: the test ran uncached")
			}
		})
	}
}

func TestPatchedInstructionLosesFetchClearance(t *testing.T) {
	// The cached fetch-tag summary must die with the entry. victim is HI
	// text and its first fetch caches an allowed verdict; the patch word is
	// loaded from .data (outside the HI text region, so LI-tagged) and
	// stored over victim, so the second call must re-check the fold and
	// raise a fetch-clearance violation — a cached allowed=true surviving
	// the overwrite would be exactly the code-injection blind spot the WK
	// suite tests for. No FENCE.I on purpose: eager store invalidation
	// alone has to keep the summary honest.
	src := smcPatchBody("nop")
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "text", Start: img.Base, End: img.Base + uint32(len(img.Text)),
			Classify: true, Class: hi,
		})
	r := buildTaint(t, src, pol)
	v := r.mustViolate(t, core.KindFetchClearance)
	if want := img.MustSymbol("victim"); v.PC != want {
		t.Errorf("violation at pc=%#x, want victim %#x", v.PC, want)
	}
}

func TestSelfModifyingCodeWithCacheDisabled(t *testing.T) {
	// The ablation configuration (always-decode slow path) must of course
	// see the new bytes too.
	c, _, _ := buildPlain(t, smcPatchBody("nop"))
	c.SizeDecodeCache(0)
	var delay kernel.Time
	n, st, err := c.Run(1_000_000, &delay)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st != RunHalt {
		t.Fatalf("status = %v after %d instructions, want halt", st, n)
	}
	if got := c.Regs[10]; got != 0x17 {
		t.Errorf("a0 = %#x, want 0x17", got)
	}
}

func TestICacheWatermarkAndInvalidate(t *testing.T) {
	ic := newICache(64)
	if ic.overlaps(0, 64) {
		t.Error("empty cache must not report overlap")
	}
	ic.ents[2].state = icValid
	ic.noteFill(8)
	ic.ents[5].state = icValid
	ic.noteFill(20)
	if !ic.overlaps(8, 12) || !ic.overlaps(20, 24) || !ic.overlaps(0, 64) {
		t.Error("watermark must cover filled entries")
	}
	if ic.overlaps(0, 8) || ic.overlaps(24, 64) {
		t.Error("watermark must exclude [0,8) and [24,64)")
	}
	// Invalidate a range touching only the first entry.
	ic.invalidate(10, 11)
	if ic.ents[2].state != 0 {
		t.Error("byte write into word 2 must invalidate entry 2")
	}
	if ic.ents[5].state == 0 {
		t.Error("entry 5 must survive an invalidate of word 2")
	}
	ic.invalidateAll()
	if ic.ents[5].state != 0 {
		t.Error("invalidateAll must drop entry 5")
	}
	if ic.overlaps(0, 64) {
		t.Error("invalidateAll must reset the watermark")
	}
	// Out-of-range invalidates must clamp, not panic.
	ic.noteFill(60)
	ic.ents[15].state = icValid
	ic.invalidate(60, 100)
	if ic.ents[15].state != 0 {
		t.Error("clamped invalidate must still drop the last entry")
	}
}
