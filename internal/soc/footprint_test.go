package soc_test

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/soc"
	"vpdift/internal/wk"
)

// wkRun is what one observed Wilander–Kamkar run leaves behind.
type wkRun struct {
	snapshot, heat, lcov, bundle []byte
	// arrays is the bytes of RAM array the two platforms allocated: one
	// per RAM byte on the VP, a value and a tag on the VP+.
	arrays uint64
}

// runWK runs attack a on the VP and on an observed VP+ with ramSize bytes
// of RAM (0: sized to the guest), capturing the VP+ cover snapshot, reports
// and forensic bundle.
func runWK(t *testing.T, a *wk.Attack, ramSize uint32) wkRun {
	t.Helper()
	img, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out wkRun
	for _, dift := range []bool{false, true} {
		cfg := soc.Config{RAMSize: ramSize}
		if dift {
			cfg.Policy = wk.Policy(img)
			cfg.Obs = obs.New()
			cfg.Cover = cover.New()
		}
		pl := soc.MustNew(cfg)
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		perByte := uint64(1)
		if dift {
			perByte = uint64(unsafe.Sizeof(core.TByte{}))
		}
		out.arrays += uint64(pl.RAMSize()) * perByte
		pl.UART.Inject(a.Payload(img))
		runErr := pl.Run(kernel.S)
		if !dift {
			pl.Shutdown()
			continue
		}
		if runErr == nil {
			t.Fatalf("wk-%d: no violation on the VP+", a.Num)
		}
		out.snapshot = pl.CoverSnapshot("wk", "wk").JSON()
		var heat, lcov bytes.Buffer
		if err := cfg.Cover.Taint.WriteHeat(&heat, nil); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Cover.Guest.WriteLcov(&lcov, "wk.s"); err != nil {
			t.Fatal(err)
		}
		out.heat, out.lcov = heat.Bytes(), lcov.Bytes()
		out.bundle = pl.LastForensics().JSON()
		pl.Shutdown()
	}
	return out
}

// TestFootprint is the guard for footprint-sized runs: a short observed
// run allocates its RAM arrays plus a fixed few MiB, because the decode
// cache, the coverage views and the profiler scale with what the guest
// touches, and the RAM itself is sized to the guest unless RAMSize backs
// the whole 8 MiB window. Runs on 8 MiB, on the sized RAM and on 1 MiB must
// give byte-identical coverage output.
func TestFootprint(t *testing.T) {
	a := wk.Suite()[2]
	if a.Num != 3 || !a.Applicable() {
		t.Fatalf("want the applicable wk-3 attack, got wk-%d", a.Num)
	}
	runWK(t, &a, 0) // warm up lazily built package state

	const slack = 4 << 20
	measure := func(ramSize uint32) wkRun {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := runWK(t, &a, ramSize)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("RAMSize %#x: allocated %.2f MiB, RAM arrays %.2f MiB", ramSize, float64(got)/(1<<20), float64(r.arrays)/(1<<20))
		if got > r.arrays+slack {
			t.Errorf("a VP and an observed VP+ with RAMSize %#x allocated %.1f MiB, want at most %.1f (RAM arrays + %d MiB)",
				ramSize, float64(got)/(1<<20), float64(r.arrays+slack)/(1<<20), slack>>20)
		}
		return r
	}
	big := measure(soc.DefaultRAMSize)
	sized := measure(0)
	if sized.arrays >= big.arrays {
		t.Errorf("RAM sized to the guest takes %d bytes of arrays, the 8 MiB window %d", sized.arrays, big.arrays)
	}

	small := runWK(t, &a, 1<<20)
	for name, r := range map[string]wkRun{"sized": sized, "1 MiB": small} {
		if !bytes.Equal(big.snapshot, r.snapshot) {
			t.Errorf("cover snapshot differs between 8 MiB and %s RAM:\n%s\n---\n%s", name, big.snapshot, r.snapshot)
		}
		if !bytes.Equal(big.heat, r.heat) {
			t.Errorf("heat report differs between 8 MiB and %s RAM:\n%s\n---\n%s", name, big.heat, r.heat)
		}
		if !bytes.Equal(big.lcov, r.lcov) {
			t.Errorf("lcov differs between 8 MiB and %s RAM", name)
		}
	}
	if len(big.bundle) == 0 {
		t.Error("no forensic bundle frozen")
	}
}

// mmioPollSrc reads the UART status register and writes the interrupt
// controller's enable register 2000 times each, like a guest polling a
// device.
const mmioPollSrc = `
main:
	li t0, 0x10000008
	li t1, 0x0C000004
	li t2, 2000
1:	lw t3, 0(t0)
	sw zero, 0(t1)
	addi t2, t2, -1
	bnez t2, 1b
	li a0, 0
	ret
`

// TestMMIOPollAllocatesNothing guards the cores' reused MMIO payload: device
// accesses inside Run must not allocate, or a guest polling a status
// register feeds the garbage collector while it runs.
func TestMMIOPollAllocatesNothing(t *testing.T) {
	img := guest.MustProgram(mmioPollSrc)
	l := core.IFP2()
	for _, dift := range []bool{false, true} {
		cfg := soc.Config{}
		if dift {
			cfg.Policy = core.NewPolicy(l, l.MustTag(core.ClassLI))
		}
		pl := soc.MustNew(cfg)
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		// The VP+ arms its flag caches in its first Run; keep that out of
		// the measurement.
		if err := pl.Run(kernel.US); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := pl.Run(kernel.S)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ex, code := pl.Exited(); !ex || code != 0 {
			t.Fatalf("dift=%v: exited=%v code=%d", dift, ex, code)
		}
		pl.Shutdown()
		// Without the reused payload this Run allocates over 100 KiB; with
		// it, a few bytes.
		const limit = 32 << 10
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("dift=%v: Run allocated %d bytes over the polling loop, want at most %d", dift, got, limit)
		}
	}
}
