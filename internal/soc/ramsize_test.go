package soc_test

import (
	"errors"
	"fmt"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/perf"
	"vpdift/internal/rv32"
	"vpdift/internal/soc"
)

// sizedRAM is the sizing rule spelled out: end (the image end, or a
// classifying region's end) rounded up to 4 KiB.
func sizedRAM(end uint32) uint32 {
	return (end - soc.RAMBase + 4095) &^ 4095
}

// integrityPolicy is IFP-2 with LI as the default class and no checks.
func integrityPolicy() *core.Policy {
	l := core.IFP2()
	return core.NewPolicy(l, l.MustTag(core.ClassLI))
}

// TestRAMSizing pins the platform's one RAM sizing rule on both flavours.
func TestRAMSizing(t *testing.T) {
	img := guest.MustProgram("main:\n\tli a0, 0\n\tret\n")
	hi := core.IFP2().MustTag(core.ClassHI)
	for _, dift := range []bool{false, true} {
		newPolicy := func() *core.Policy {
			if dift {
				return integrityPolicy()
			}
			return nil
		}
		name := map[bool]string{false: "VP", true: "VP+"}[dift]

		pl := soc.MustNew(soc.Config{Policy: newPolicy()})
		if got := pl.RAMSize(); got != 0 {
			t.Errorf("%s: %d bytes of RAM before Load, want none", name, got)
		}
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		if got, want := pl.RAMSize(), sizedRAM(img.End()); got != want {
			t.Errorf("%s: RAM of %#x bytes, want the image end rounded up to 4 KiB, %#x", name, got, want)
		}
		if _, err := pl.ReadRAM(soc.RAMBase+pl.RAMSize()-4, 4); err != nil {
			t.Errorf("%s: last RAM word: %v", name, err)
		}
		if _, err := pl.ReadRAM(soc.RAMBase+pl.RAMSize(), 1); err == nil {
			t.Errorf("%s: a read past the sized RAM must fail", name)
		}
		pl.Shutdown()

		// An explicit size is honoured, and one too small for the image
		// fails Load.
		pl = soc.MustNew(soc.Config{Policy: newPolicy(), RAMSize: 3 << 20})
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		if got := pl.RAMSize(); got != 3<<20 {
			t.Errorf("%s: explicit RAMSize 3 MiB gave %#x bytes", name, got)
		}
		pl.Shutdown()
		pl = soc.MustNew(soc.Config{Policy: newPolicy(), RAMSize: img.Size() - 4})
		if err := pl.Load(img); err == nil {
			t.Errorf("%s: an image of %d bytes loaded into %d bytes of RAM", name, img.Size(), img.Size()-4)
		}
		pl.Shutdown()

		if !dift {
			continue
		}
		// A classifying region past the image extends the RAM to cover it;
		// a region past the 8 MiB window and a region that only checks
		// stores do not.
		key := img.End() + 3<<20
		pol := newPolicy().
			WithRegion(core.RegionRule{Name: "key", Start: key, End: key + 16, Classify: true, Class: hi}).
			WithRegion(core.RegionRule{Name: "far", Start: soc.RAMBase + soc.DefaultRAMSize, End: soc.RAMBase + soc.DefaultRAMSize + 16, Classify: true, Class: hi}).
			WithRegion(core.RegionRule{Name: "guard", Start: key + 2<<20, End: key + 2<<20 + 16, CheckStore: true, Clearance: hi})
		pl = soc.MustNew(soc.Config{Policy: pol})
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		if got, want := pl.RAMSize(), sizedRAM(key+16); got != want {
			t.Errorf("RAM of %#x bytes with a key region at %#x, want %#x", got, key, want)
		}
		if got := pl.TaintSummary()[core.ClassHI]; got != 16 {
			t.Errorf("%d HI bytes in RAM, want the 16 of the key region", got)
		}
		pl.Shutdown()
	}
}

// pastRAMSrc finds the end of the RAM the sizing rule gives its own image
// (__stack_top is the image end), reads the last word inside it, then
// makes one access just past it.
const pastRAMSrc = `
main:
	la t0, __stack_top
	li t1, 0xfff
	add t0, t0, t1
	li t1, -4096
	and t0, t0, t1         # the end of the sized RAM
	lw t1, -4(t0)
	%s
	li a0, 0
	ret
`

// TestAccessPastSizedRAM holds that RAM ends where the rule says on both
// cores: a load or store one past it is a guest bus fault, and the same
// guest exits cleanly when RAMSize backs the whole 8 MiB window.
func TestAccessPastSizedRAM(t *testing.T) {
	for _, access := range []string{"lw t1, 0(t0)", "sw zero, 0(t0)"} {
		img := guest.MustProgram(fmt.Sprintf(pastRAMSrc, access))
		if top := img.MustSymbol("__stack_top"); top != img.End() {
			t.Fatalf("__stack_top %#x is not the image end %#x", top, img.End())
		}
		for _, dift := range []bool{false, true} {
			cfg := soc.Config{}
			if dift {
				cfg.Policy = integrityPolicy()
			}
			pl := soc.MustNew(cfg)
			if err := pl.Load(img); err != nil {
				t.Fatal(err)
			}
			err := pl.Run(kernel.S)
			var be *rv32.BusError
			if !errors.As(err, &be) || be.Addr != soc.RAMBase+pl.RAMSize() {
				t.Errorf("%q dift=%v: got %v, want a bus error at %#x", access, dift, err, soc.RAMBase+pl.RAMSize())
			}
			pl.Shutdown()

			cfg.RAMSize = soc.DefaultRAMSize
			pl = soc.MustNew(cfg)
			if err := pl.Load(img); err != nil {
				t.Fatal(err)
			}
			if err := pl.Run(kernel.S); err != nil {
				t.Errorf("%q dift=%v on 8 MiB: %v", access, dift, err)
			}
			if ex, code := pl.Exited(); !ex || code != 0 {
				t.Errorf("%q dift=%v on 8 MiB: exited=%v code=%d", access, dift, ex, code)
			}
			pl.Shutdown()
		}
	}
}

// TestLargeImagesLoad loads every Table II row's image at the large scale,
// whose sha512 message ends over 4 MiB past the RAM base, on both flavours.
func TestLargeImagesLoad(t *testing.T) {
	for _, w := range perf.Workloads(perf.ScaleLarge) {
		img := w.Build()
		for _, pol := range []*core.Policy{nil, perf.SessionPolicy(w, img)} {
			pl := soc.MustNew(soc.Config{Policy: pol})
			if err := pl.Load(img); err != nil {
				t.Errorf("%s dift=%v: %v", w.Name, pol != nil, err)
			} else if got, want := pl.RAMSize(), sizedRAM(img.End()); got != want {
				t.Errorf("%s dift=%v: RAM of %#x bytes, want %#x", w.Name, pol != nil, got, want)
			}
			pl.Shutdown()
		}
	}
}
