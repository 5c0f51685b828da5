package immo

import (
	"testing"

	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/soc"
	"vpdift/internal/trace"
)

// TestSleepingWFIRetires idles the interrupt-driven firmware until it
// sleeps in the wfi at immo_idle. A sleeping wfi retires like any other
// instruction: guest coverage counts it, its retire record precedes the
// platform's wfi-sleep mark, and the profiler counts exactly the window's
// retire records — on the VP and the VP+ alike.
func TestSleepingWFIRetires(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyNone, PolicyBase} {
		cv := &cover.Cover{Guest: cover.NewGuest()}
		prof := trace.NewProfiler(soc.RAMBase, soc.DefaultRAMSize)
		e, err := NewECUWithConfig(VariantFixedIRQ, kind, ECUConfig{Cover: cv, Trace: &trace.Trace{Prof: prof}})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Idle(10 * kernel.MS); err != nil {
			t.Fatal(err)
		}
		idle := e.Image.MustSymbol("immo_idle")
		if n := cv.Guest.Count(idle); n != 1 {
			t.Errorf("policy %d: immo_idle covered %d times, want 1", kind, n)
		}
		fr := e.Platform.FlightRecorder()
		win := fr.Window()
		var retires uint64
		sleeps := 0
		for k, r := range win {
			switch {
			case r.Kind == flight.KindRetire:
				retires++
			case r.Kind == flight.KindMark && fr.NameOf(r.Aux) == "wfi-sleep":
				sleeps++
				if k == 0 || win[k-1].Kind != flight.KindRetire || win[k-1].PC != idle {
					t.Errorf("policy %d: wfi-sleep mark at window[%d] not preceded by the wfi's retire record", kind, k)
				}
			}
		}
		if sleeps != 1 {
			t.Errorf("policy %d: %d wfi-sleep marks, want 1", kind, sleeps)
		}
		if prof.Total() != retires || retires != e.Platform.Instret() {
			t.Errorf("policy %d: profiler counted %d, window holds %d retire records, instret %d",
				kind, prof.Total(), retires, e.Platform.Instret())
		}
	}
}
