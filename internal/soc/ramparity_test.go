package soc_test

import (
	"bytes"
	"fmt"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/guest"
	"vpdift/internal/immo"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/perf"
	"vpdift/internal/soc"
	"vpdift/internal/stress"
	"vpdift/internal/wk"
)

// parityRun is one workload run on RAM of the given size (0: sized to the
// guest by Load), rendered for byte comparison.
type parityRun struct {
	name string
	run  func(t *testing.T, ramSize uint32) []byte
}

// TestRAMSizeParity runs every in-repo workload twice, once on RAM sized
// to the guest and once on the full 8 MiB window, and requires
// byte-identical results: exit state, instret, simulated time, UART and CAN
// bytes, the stopping error with its provenance chain, the metrics, the
// forensic bundle and the cover snapshot. An access past the sized RAM is a
// bus fault, so this is what shows no guest needs more.
func TestRAMSizeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	var runs []parityRun
	for _, w := range perf.Workloads(perf.ScaleSmall) {
		for _, dift := range []bool{false, true} {
			runs = append(runs, parityRun{fmt.Sprintf("%s dift=%v", w.Name, dift), tableIIRun(w, dift)})
		}
	}
	for _, a := range wk.Suite() {
		if a.Applicable() {
			for _, dift := range []bool{false, true} {
				runs = append(runs, parityRun{fmt.Sprintf("wk-%d dift=%v", a.Num, dift), attackRun(a, dift)})
			}
		}
	}
	// The case study's scenarios on the fixed firmware under each policy,
	// the debug-dump leak of the vulnerable firmware, and the IRQ-driven
	// firmware.
	for _, sc := range []struct {
		v    immo.Variant
		cmds []string
	}{
		{immo.VariantFixed, []string{"auth", "a", "b", "c", "d", "e", "f", "o\x42", "q"}},
		{immo.VariantVulnerable, []string{"d"}},
		{immo.VariantFixedIRQ, []string{"auth", "a", "e"}},
	} {
		for _, kind := range []immo.PolicyKind{immo.PolicyNone, immo.PolicyBase, immo.PolicyPerByte} {
			for _, cmd := range sc.cmds {
				runs = append(runs, parityRun{fmt.Sprintf("immo variant=%d policy=%d cmd=%q", sc.v, kind, cmd), immoRun(sc.v, kind, cmd)})
			}
		}
	}
	for _, class := range []string{"", core.ClassLC, core.ClassHC} {
		runs = append(runs, parityRun{fmt.Sprintf("sensor class=%q", class), sensorRun(class)})
	}
	scfg := stress.Config{Steps: 8, UseDMA: true, UseMMIO: true, UseCSR: true}
	for seed := uint32(1); seed <= 6; seed++ {
		for _, secret := range []bool{true, false} {
			runs = append(runs, parityRun{fmt.Sprintf("stress seed=%d secret=%v", seed, secret), stressRun(seed, scfg, secret)})
		}
	}

	for _, r := range runs {
		sized := r.run(t, 0)
		full := r.run(t, soc.DefaultRAMSize)
		if !bytes.Equal(sized, full) {
			t.Errorf("%s: sized and 8 MiB RAM differ: %s", r.name, firstDiff(full, sized))
		}
	}
}

// loadFor builds and loads a platform for a parity run; on guest-sized RAM
// it also checks the RAM really is smaller than the 8 MiB window.
func loadFor(t *testing.T, cfg soc.Config, img *asm.Image) *soc.Platform {
	t.Helper()
	explicit := cfg.RAMSize != 0
	pl := soc.MustNew(cfg)
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if !explicit && pl.RAMSize() >= soc.DefaultRAMSize {
		t.Fatalf("RAM sized to %#x bytes, not below the 8 MiB window", pl.RAMSize())
	}
	return pl
}

// observed attaches an observer and every coverage view to a VP+ config.
func observed(cfg soc.Config) soc.Config {
	if cfg.Policy != nil {
		cfg.Obs, cfg.Cover = obs.New(), cover.New()
	}
	return cfg
}

// render captures everything a run produced: the metrics, stopping error
// and provenance chain (writeObservedRun), the exit state, the UART and CAN
// output, the forensic bundle (a snapshot when the run kept none) and the
// cover snapshot when coverage is attached. It shuts the platform down.
func render(pl *soc.Platform, runErr error) []byte {
	defer pl.Shutdown()
	var b bytes.Buffer
	writeObservedRun(&b, "run", pl, runErr)
	ex, code := pl.Exited()
	fmt.Fprintf(&b, "exited=%v code=%d\nuart %q\n", ex, code, pl.UART.Output())
	for _, f := range pl.CAN.TxLog {
		fmt.Fprintf(&b, "can %#x %x\n", f.ID, core.Values(f.Data))
	}
	bundle := pl.LastForensics()
	if bundle == nil {
		bundle = pl.Snapshot("parity")
	}
	if bundle != nil {
		b.Write(bundle.JSON())
	}
	if snap := pl.CoverSnapshot("parity", "parity"); snap != nil {
		b.Write(snap.JSON())
	}
	return b.Bytes()
}

func tableIIRun(w perf.Workload, dift bool) func(*testing.T, uint32) []byte {
	return func(t *testing.T, ramSize uint32) []byte {
		img := w.Build()
		cfg := soc.Config{RAMSize: ramSize}
		if dift {
			cfg.Policy = perf.SessionPolicy(w, img)
		}
		pl := loadFor(t, cfg, img)
		horizon := w.Horizon
		if horizon == 0 {
			horizon = kernel.Forever
		}
		var err error
		if w.Drive != nil {
			err = w.Drive(pl, horizon)
		} else {
			err = pl.Run(horizon)
		}
		return render(pl, err)
	}
}

func attackRun(a wk.Attack, dift bool) func(*testing.T, uint32) []byte {
	return func(t *testing.T, ramSize uint32) []byte {
		img, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := soc.Config{RAMSize: ramSize}
		if dift {
			cfg.Policy = wk.Policy(img)
		}
		pl := loadFor(t, observed(cfg), img)
		pl.UART.Inject(a.Payload(img))
		return render(pl, pl.Run(kernel.S))
	}
}

// immoRun drives one immobilizer scenario: a challenge-response round
// ("auth") or a debug command with its payload.
func immoRun(v immo.Variant, kind immo.PolicyKind, cmd string) func(*testing.T, uint32) []byte {
	return func(t *testing.T, ramSize uint32) []byte {
		img := immo.Firmware(v)
		cfg := soc.Config{RAMSize: ramSize}
		switch kind {
		case immo.PolicyBase:
			cfg.Policy = immo.BasePolicy(img)
		case immo.PolicyPerByte:
			pol, err := immo.PerBytePolicy(img)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = pol
		}
		e := &immo.ECU{Platform: loadFor(t, observed(cfg), img), Image: img}
		var err error
		if cmd == "auth" {
			_, err = e.Authenticate([8]byte{1, 2, 3, 4, 5, 6, 7, 8})
		} else {
			err = e.Command(cmd[0], []byte(cmd[1:])...)
		}
		return render(e.Platform, err)
	}
}

// sensorRun runs the Fig. 4 sensor-to-UART guest for 30 ms: on the VP for
// class "", else on an observed, covered VP+ whose sensor data has that
// IFP-1 class and whose UART requires LC.
func sensorRun(class string) func(*testing.T, uint32) []byte {
	return func(t *testing.T, ramSize uint32) []byte {
		img := guest.MustProgram(sensorUARTSrc)
		cfg := soc.Config{RAMSize: ramSize}
		if class != "" {
			l := core.IFP1()
			lc := l.MustTag(core.ClassLC)
			cfg.Policy = core.NewPolicy(l, lc).
				WithOutput("uart0.tx", lc).
				WithInput("sensor0.data", l.MustTag(class))
		}
		pl := loadFor(t, observed(cfg), img)
		return render(pl, pl.Run(30*kernel.MS))
	}
}

// stressRun runs one generated data-flow program under the leak policy, as
// the stress campaign does.
func stressRun(seed uint32, cfg stress.Config, secret bool) func(*testing.T, uint32) []byte {
	return func(t *testing.T, ramSize uint32) []byte {
		img, err := guest.Program(stress.Program(seed, cfg, secret))
		if err != nil {
			t.Fatal(err)
		}
		pl := loadFor(t, soc.Config{Policy: stress.LeakPolicy(img), RAMSize: ramSize}, img)
		return render(pl, pl.Run(10*kernel.S))
	}
}
