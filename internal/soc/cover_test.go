package soc_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/soc"
)

// coverSrc is a small self-terminating guest with branches, calls and stores,
// so every coverage view has something to record.
const coverSrc = `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	li s0, 0
	li s1, 10
1:	mv a0, s0
	call square
	la t0, results
	slli t1, s0, 2
	add t0, t0, t1
	sw a0, 0(t0)
	addi s0, s0, 1
	blt s0, s1, 1b
	li a0, 0
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

square:
	mv t0, a0
	li a0, 0
	beqz t0, 2f
	mv t1, t0
1:	add a0, a0, t0
	addi t1, t1, -1
	bnez t1, 1b
2:	ret

	.data
	.align 2
results:
	.space 40
`

func TestCoverWiredIntoVPPlus(t *testing.T) {
	img, err := guest.Program(coverSrc)
	if err != nil {
		t.Fatal(err)
	}
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "image", Start: img.Base, End: img.End(),
			Classify: true, Class: hi,
		})
	cv := cover.New()
	pl, err := soc.New(soc.Config{Policy: pol, Cover: cv})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	if exited, code := pl.Exited(); !exited || code != 0 {
		t.Fatalf("guest exited=%v code=%d", exited, code)
	}

	s := cv.Guest.Stats()
	if s.InsnsCovered == 0 || s.BlocksCovered == 0 || s.EdgesCovered == 0 {
		t.Fatalf("guest coverage recorded nothing: %+v", s)
	}
	if s.InsnsCovered > s.Insns || s.BlocksCovered > s.Blocks || s.EdgesCovered > s.Edges {
		t.Fatalf("covered exceeds totals: %+v", s)
	}
	// The image was classified HI at load, so its footprint is ever-tainted.
	if cv.Taint.EverTainted() == 0 {
		t.Fatal("taint heatmap recorded nothing despite HI image classification")
	}
	// The store loop writes HI-derived values: churn must be visible.
	if cv.Taint.ChurnTotal() == 0 {
		t.Fatal("no tag churn recorded")
	}
	if cv.Audit.Points()["exec:fetch"].Checks == 0 {
		t.Fatal("audit saw no fetch checks with fetch clearance enabled")
	}

	m := pl.MetricsSnapshot()
	for _, key := range []string{
		"cover.guest_insns", "cover.guest_insns_covered",
		"cover.guest_blocks", "cover.guest_blocks_covered",
		"cover.guest_edges", "cover.guest_edges_covered",
		"cover.taint_ever_bytes", "cover.taint_churn",
		"checks.fetch",
	} {
		if m[key] == 0 {
			t.Errorf("metrics gauge %s is zero", key)
		}
	}
	if m["cover.audit_dead_rules"] != 0 {
		// This tight policy has no unexercised parts.
		t.Errorf("cover.audit_dead_rules = %d, want 0", m["cover.audit_dead_rules"])
	}
}

func TestCoverBaselineGuestOnly(t *testing.T) {
	// On the baseline platform (no policy) only the guest view applies; the
	// unconfigured taint and audit views must stay inert.
	img, err := guest.Program(coverSrc)
	if err != nil {
		t.Fatal(err)
	}
	cv := cover.New()
	pl, err := soc.New(soc.Config{Cover: cv})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	if s := cv.Guest.Stats(); s.InsnsCovered == 0 {
		t.Fatalf("baseline guest coverage recorded nothing: %+v", s)
	}
	if cv.Taint.EverTainted() != 0 || cv.Audit.Configured() {
		t.Error("taint/audit views active on the baseline platform")
	}
}

func TestCoverDisabledParity(t *testing.T) {
	// Coverage must be an observer: with and without it, the simulation
	// executes the identical instruction stream and produces identical
	// output.
	run := func(cv *cover.Cover) (uint64, []byte) {
		img, err := guest.Program(coverSrc)
		if err != nil {
			t.Fatal(err)
		}
		l := core.IFP2()
		hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
		pol := core.NewPolicy(l, li).
			WithFetchClearance(hi).
			WithRegion(core.RegionRule{
				Name: "image", Start: img.Base, End: img.End(),
				Classify: true, Class: hi,
			})
		pl, err := soc.New(soc.Config{Policy: pol, Cover: cv})
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Shutdown()
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(kernel.Forever); err != nil {
			t.Fatal(err)
		}
		return pl.Instret(), pl.UART.Output()
	}
	insnOn, outOn := run(cover.New())
	insnOff, outOff := run(nil)
	if insnOn != insnOff {
		t.Errorf("instret diverges: %d with coverage, %d without", insnOn, insnOff)
	}
	if !bytes.Equal(outOn, outOff) {
		t.Errorf("UART output diverges")
	}
}

// TestTaintSeedCoversClassifiedRegions: Load seeds the taint heatmap from
// the image and the classification regions only, so every byte it tags —
// a region past the image and one clipped at the end of RAM included —
// must count as ever-tainted, and nothing else.
func TestTaintSeedCoversClassifiedRegions(t *testing.T) {
	img, err := guest.Program(coverSrc)
	if err != nil {
		t.Fatal(err)
	}
	const ramSize = 1 << 20
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	key := (img.End() + 0x1000) &^ 0xfff
	pol := core.NewPolicy(l, lc).
		WithRegion(core.RegionRule{Name: "image", Start: img.Base, End: img.End(), Classify: true, Class: hc}).
		WithRegion(core.RegionRule{Name: "key", Start: key - 8, End: key + 56, Classify: true, Class: hc}).
		WithRegion(core.RegionRule{Name: "tail", Start: soc.RAMBase + ramSize - 8, End: soc.RAMBase + ramSize + 8, Classify: true, Class: hc})
	cv := cover.New()
	pl, err := soc.New(soc.Config{Policy: pol, Cover: cv, RAMSize: ramSize})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	want := pl.TaintSummary()["HC"]
	if want != uint64(img.End()-img.Base)+64+8 {
		t.Fatalf("RAM holds %d HC bytes, want the image, key and tail", want)
	}
	if got := cv.Taint.EverTainted(); got != want {
		t.Errorf("heatmap seeded %d ever-tainted bytes, RAM holds %d HC bytes", got, want)
	}
	if got := cv.Taint.ChurnTotal(); got != 0 {
		t.Errorf("seeding counted %d tag changes", got)
	}
}

// heatSrc copies a HI word with sw and sb, four times: 20 tainted bytes
// written.
const heatSrc = `
main:
	li t2, 4
1:	la t0, secret
	lw t1, 0(t0)
	la t0, buf
	sw t1, 0(t0)
	sb t1, 4(t0)
	addi t2, t2, -1
	bnez t2, 1b
	li a0, 0
	ret

	.data
	.align 2
secret:
	.word 0x12345678
buf:
	.space 8
`

// TestTaintHeatSameOnBothMemoryPaths: the heatmap counts each CPU store
// once whether it takes the direct RAM path or, under TaintMemViaTLM, a bus
// transaction into RAM. The audit may differ: the TLM load path folds the
// bytes with counted joins.
func TestTaintHeatSameOnBothMemoryPaths(t *testing.T) {
	run := func(viaTLM bool) (heat string, taint []byte) {
		img, err := guest.Program(heatSrc)
		if err != nil {
			t.Fatal(err)
		}
		l := core.IFP2()
		hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
		secret := img.Symbols["secret"]
		pol := core.NewPolicy(l, li).WithRegion(core.RegionRule{
			Name: "secret", Start: secret, End: secret + 4, Classify: true, Class: hi,
		})
		cv := cover.New()
		pl, err := soc.New(soc.Config{Policy: pol, Cover: cv, TaintMemViaTLM: viaTLM})
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Shutdown()
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(kernel.Forever); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := cv.Taint.WriteHeat(&b, nil); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(pl.CoverSnapshot("heat", "secret").Taint)
		if err != nil {
			t.Fatal(err)
		}
		return b.String(), js
	}
	heat, taint := run(false)
	heatTLM, taintTLM := run(true)
	if !bytes.Contains([]byte(heat), []byte("20 bytes written")) {
		t.Errorf("direct path heat report does not count 20 HI bytes written:\n%s", heat)
	}
	if heatTLM != heat {
		t.Errorf("heat report differs under TaintMemViaTLM:\n%s\ndirect path:\n%s", heatTLM, heat)
	}
	if !bytes.Equal(taintTLM, taint) {
		t.Errorf("snapshot taint section differs under TaintMemViaTLM:\n%s\ndirect path:\n%s", taintTLM, taint)
	}
}
