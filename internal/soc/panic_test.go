package soc_test

import (
	"errors"
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/flight"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/soc"
)

func panicInPeripheral() { panic("peripheral model bug") }

// A panic inside the simulation is a terminal error like a fault: the run
// stops with a *kernel.PanicError and keeps a forensic bundle of the
// still-intact platform, on both flavours.
func TestPanicKeepsForensicBundle(t *testing.T) {
	img := guest.MustProgram(`
main:
	li t0, 0
spin:
	addi t0, t0, 1
	j spin
`)
	for _, dift := range []bool{false, true} {
		cfg := soc.Config{}
		if dift {
			l := core.IFP2()
			cfg.Policy = core.NewPolicy(l, l.MustTag(core.ClassLI))
		}
		pl := soc.MustNew(cfg)
		defer pl.Shutdown()
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		pl.Sim.Spawn("faulty", func(p *kernel.Process) {
			if p.Now() > 0 {
				panicInPeripheral()
			}
			p.WakeAfter(100 * kernel.US)
		})
		err := pl.Run(kernel.MS)
		var pe *kernel.PanicError
		if !errors.As(err, &pe) || pe.Process != "faulty" {
			t.Fatalf("dift=%v: Run = %v, want a *kernel.PanicError from faulty", dift, err)
		}
		if !strings.Contains(string(pe.Stack), "soc_test.panicInPeripheral") {
			t.Errorf("dift=%v: stack lacks the panicking function:\n%s", dift, pe.Stack)
		}
		if pl.Now() != 100*kernel.US || pl.Instret() == 0 {
			t.Errorf("dift=%v: stopped at %v after %d instructions, want the panic's time with the CPU run up to it",
				dift, pl.Now(), pl.Instret())
		}
		b := pl.LastForensics()
		if b == nil {
			t.Fatalf("dift=%v: no forensic bundle", dift)
		}
		if _, err := flight.ValidateBundle(b.JSON()); err != nil {
			t.Errorf("dift=%v: %v", dift, err)
		}
		if b.Reason != "panic" || b.Fault == nil || !strings.Contains(b.Fault.Cause, "process faulty panicked") || len(b.Trace) == 0 {
			t.Errorf("dift=%v: bundle reason %q, fault %+v, %d trace records", dift, b.Reason, b.Fault, len(b.Trace))
		}
		if again := pl.Run(2 * kernel.MS); again != err || pl.Now() != 100*kernel.US {
			t.Errorf("dift=%v: a second Run = %v at %v, want the same error, the simulation stopped", dift, again, pl.Now())
		}
	}
}
