package soc

import (
	"errors"
	"reflect"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
)

// dmaLeakSrc reads its scratch block, so the VP+ summarizes it as Clean,
// then programs a DMA copy of the secret into it (a bus-initiated tag move
// that reaches the flag caches only through the RAM write hook) and leaks
// the copy to the UART.
const dmaLeakSrc = `
main:
	la t0, scratch
	lw t1, 0(t0)          # scratch's block: Clean
	li t0, DMA_BASE
	la t1, secret
	sw t1, DMA_SRC(t0)
	la t1, scratch
	sw t1, DMA_DST(t0)
	li t1, 4
	sw t1, DMA_LEN(t0)
	li t1, 1
	sw t1, DMA_CTRL(t0)
	la t0, scratch
	lbu t1, 0(t0)
	li t0, UART_BASE
	sw t1, UART_TX(t0)    # leaked copy -> violation
	li a0, 0
	j exit
	.data
	.align 2
secret:	.word 0x11223344
	.align 6
scratch:
	.word 0
`

// TestDecoupledPlatformParity holds a platform whose VP+ runs with its flag
// caches on against one with an observer attached, which pins the caches
// off: a DMA copy of the secret into a Clean block must mark it for a
// rescan, so both stop at the same UART leak with the same taint summary
// and instret. (The name dates from the removed decoupled monitor, which
// this test once held against the inline VP+ on the same program.)
func TestDecoupledPlatformParity(t *testing.T) {
	img := guest.MustProgram(dmaLeakSrc)
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	secret := img.MustSymbol("secret")
	pol := core.NewPolicy(l, lc).
		WithOutput("uart0.tx", lc).
		WithRegion(core.RegionRule{Name: "secret", Start: secret, End: secret + 4, Classify: true, Class: hc})

	run := func(o *obs.Observer) (*core.Violation, map[string]uint64, uint64) {
		t.Helper()
		pl := MustNew(Config{Policy: pol, Obs: o})
		defer pl.Shutdown()
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		err := pl.Run(kernel.S)
		var v *core.Violation
		if !errors.As(err, &v) || v.Port != "uart0.tx" {
			t.Fatalf("observer=%v: err = %v, want uart0.tx violation", o != nil, err)
		}
		return v, pl.TaintSummary(), pl.Instret()
	}

	vc, sc, nc := run(nil)
	vp, sp, np := run(obs.New())

	// Only the observer records a provenance chain; every other field of
	// the violation must match.
	if len(vc.Provenance) != 0 || len(vp.Provenance) == 0 {
		t.Errorf("provenance: %d events without observer (want 0), %d with (want >0)",
			len(vc.Provenance), len(vp.Provenance))
	}
	vp.Provenance = nil
	if !reflect.DeepEqual(vc, vp) {
		t.Errorf("violation diverged:\ncache on:  %+v\ncache off: %+v", vc, vp)
	}
	if !reflect.DeepEqual(sc, sp) {
		t.Errorf("taint summary diverged:\ncache on:  %v\ncache off: %v", sc, sp)
	}
	if nc != np {
		t.Errorf("instret diverged: cache on %d cache off %d", nc, np)
	}
}
