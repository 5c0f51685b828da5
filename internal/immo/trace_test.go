package immo_test

import (
	"bytes"
	"testing"

	"vpdift/internal/immo"
	"vpdift/internal/soc"
	"vpdift/internal/trace"
)

// immoChallenge is the fixed challenge used by the traced runs.
var immoChallenge = [8]byte{0xCA, 0xFE, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}

// tracedAuthRun performs one immobilizer authentication round with the
// given trace views attached and returns the ECU for inspection. The caller
// closes it.
func tracedAuthRun(t *testing.T, tr *trace.Trace) *immo.ECU {
	t.Helper()
	e, err := immo.NewECUWithConfig(immo.VariantFixed, immo.PolicyBase, immo.ECUConfig{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Authenticate(immoChallenge)
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	if resp != immo.Expected(immoChallenge) {
		e.Close()
		t.Fatalf("response mismatch: % x", resp)
	}
	return e
}

// TestKernelTraceDeterminism runs the immobilizer authentication twice with
// kernel/bus tracing attached: the simulation kernel is deterministic, so
// the two event streams must serialize byte-identically.
func TestKernelTraceDeterminism(t *testing.T) {
	stream := func() []byte {
		kt := trace.NewKernelTrace(0)
		e := tracedAuthRun(t, &trace.Trace{Kernel: kt})
		defer e.Close()
		var b bytes.Buffer
		if err := kt.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if kt.EventCount() == 0 {
			t.Fatal("no kernel events recorded")
		}
		return b.Bytes()
	}
	a, b := stream(), stream()
	if len(a) == 0 {
		t.Fatal("empty trace stream")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs produced different kernel traces (%d vs %d bytes)",
			len(a), len(b))
	}
}

// TestProfilerAttribution requires at least 90% of the retired cycles of an
// immobilizer authentication round to attribute to named symbols in the
// firmware image — the acceptance bar for the guest profiler.
func TestProfilerAttribution(t *testing.T) {
	prof := trace.NewProfiler(soc.RAMBase, soc.DefaultRAMSize)
	e := tracedAuthRun(t, &trace.Trace{Prof: prof})
	defer e.Close()

	if prof.Total() == 0 {
		t.Fatal("profiler saw no retires")
	}
	if att := prof.Attributed(); att < 0.90 {
		t.Fatalf("only %.1f%% of %d retired cycles attributed to named symbols",
			att*100, prof.Total())
	}
	hot, flat := prof.Hottest()
	if hot == "" || flat == 0 {
		t.Fatalf("no hottest function (hot=%q flat=%d)", hot, flat)
	}
	// The idle poll loop dominates an authentication round.
	if hot != "immo_loop" {
		t.Logf("note: hottest function is %q (flat %d)", hot, flat)
	}
	// The retire stream must carry what the core retired: the profiler total
	// can lag Instret only by the interrupt-entry steps, which retire no
	// instruction.
	instret := e.Platform.Instret()
	if prof.Total() > instret || instret-prof.Total() > 64 {
		t.Fatalf("profiler total %d vs instret %d", prof.Total(), instret)
	}
}
