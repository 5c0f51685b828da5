package immo

import (
	"bytes"
	"encoding/json"
	"testing"

	"vpdift/internal/kernel"
	"vpdift/internal/telemetry"
)

// The PR's acceptance scenario: the immobilizer under a 1 ms sampler must
// produce a timeseries of at least 10 samples with strictly increasing
// simulated timestamps and monotone sim.instret.
func TestImmoTelemetryTimeseries(t *testing.T) {
	smp := telemetry.NewSampler(telemetry.Options{Every: kernel.MS})
	e, err := NewECUWithConfig(VariantFixed, PolicyBase, ECUConfig{Telemetry: smp})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 6; i++ {
		challenge := [8]byte{byte(i), 2, 3, 4, 5, 6, 7, 8}
		resp, err := e.Authenticate(challenge)
		if err != nil {
			t.Fatal(err)
		}
		if want := Expected(challenge); resp != want {
			t.Fatalf("round %d: resp = %x, want %x", i, resp, want)
		}
	}
	// Idle stretch: the guest polls quietly, the daemon keeps sampling.
	if err := e.step(8 * kernel.MS); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := smp.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("timeseries has %d samples, want >= 10", len(lines))
	}
	var prevT, prevI uint64
	for i, line := range lines {
		var sm struct {
			T       uint64            `json:"t_ns"`
			Metrics map[string]uint64 `json:"metrics"`
		}
		if err := json.Unmarshal(line, &sm); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if i > 0 && sm.T <= prevT {
			t.Fatalf("line %d: t_ns %d not strictly increasing after %d", i, sm.T, prevT)
		}
		prevT = sm.T
		if ir := sm.Metrics["sim.instret"]; ir < prevI {
			t.Fatalf("line %d: sim.instret %d moved backwards from %d", i, ir, prevI)
		} else {
			prevI = ir
		}
	}
	// The firmware authenticates and then idles; the sampler keeps ticking
	// through the idle stretches, so instret plateaus but time keeps moving —
	// exactly the shape a dashboard needs to show "the guest is quiet".
	if last, ok := smp.Last(); !ok || last.Metrics["sim.instret"] == 0 {
		t.Fatal("final sample has no retired instructions")
	}
}

// Telemetry must not change what the simulation computes: the same
// challenge sequence with and without a sampler yields identical responses
// and identical final instruction counts.
func TestImmoTelemetryNonIntrusive(t *testing.T) {
	run := func(smp *telemetry.Sampler) ([8]byte, uint64) {
		e, err := NewECUWithConfig(VariantFixed, PolicyBase, ECUConfig{Telemetry: smp})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		challenge := [8]byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4}
		resp, err := e.Authenticate(challenge)
		if err != nil {
			t.Fatal(err)
		}
		return resp, e.Platform.Instret()
	}
	respPlain, instretPlain := run(nil)
	respSampled, instretSampled := run(telemetry.NewSampler(telemetry.Options{Every: kernel.MS}))
	if respPlain != respSampled {
		t.Errorf("responses diverge: %x vs %x", respPlain, respSampled)
	}
	if instretPlain != instretSampled {
		t.Errorf("instret diverges: %d vs %d", instretPlain, instretSampled)
	}
}
