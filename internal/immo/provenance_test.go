package immo

import (
	"fmt"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/obs"
	"vpdift/internal/periph"
	"vpdift/internal/soc"
)

// mustECUObserved builds an observed ECU or fails the test.
func mustECUObserved(t *testing.T, v Variant, kind PolicyKind, o *obs.Observer) *ECU {
	t.Helper()
	e, err := NewECUWithConfig(v, kind, ECUConfig{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestDebugDumpProvenanceChain(t *testing.T) {
	// The paper's headline scenario with the observability subsystem on: the
	// UART debug-dump violation must carry a complete provenance chain whose
	// first event is the PIN's load-time classification and whose last is
	// the failed uart0.tx output-clearance check.
	o := obs.New()
	e := mustECUObserved(t, VariantVulnerable, PolicyBase, o)
	_, err := e.DebugDump()
	v := wantViolation(t, err, core.KindOutputClearance)

	chain := v.Provenance
	if len(chain) == 0 {
		t.Fatal("violation must carry a non-empty provenance chain")
	}
	first, last := chain[0], chain[len(chain)-1]
	if first.Kind != core.EvClassify {
		t.Errorf("chain starts with %v, want the classification root", first.Kind)
	}
	if first.Port != "pin" {
		t.Errorf("chain root classifies region %q, want the PIN region", first.Port)
	}
	pin := e.Image.MustSymbol("immo_pin")
	if first.Addr != pin {
		t.Errorf("chain root covers 0x%x, want immo_pin at 0x%x", first.Addr, pin)
	}
	if last.Kind != core.EvCheck {
		t.Errorf("chain ends with %v, want the failed clearance check", last.Kind)
	}
	if last.Port != "uart0.tx" {
		t.Errorf("failed check at port %q, want uart0.tx", last.Port)
	}
	// The chain must pass through actual data movement, not jump straight
	// from root to check.
	var hasLoad bool
	for _, ev := range chain {
		if ev.Kind == core.EvLoad {
			hasLoad = true
		}
	}
	if !hasLoad {
		t.Errorf("chain has no load event; events: %v", kinds(chain))
	}
	// Report rendering: one line per event, oldest first.
	if rep := v.ProvenanceReport(nil); rep == "" {
		t.Error("ProvenanceReport is empty")
	}
}

func TestDisabledObserverSameViolation(t *testing.T) {
	// Observability off must not change detection: same violation kind and
	// port, no provenance, and a never-attached observer records nothing.
	e := mustECU(t, VariantVulnerable, PolicyBase)
	_, err := e.DebugDump()
	v := wantViolation(t, err, core.KindOutputClearance)
	if v.Port != "uart0.tx" {
		t.Errorf("violation at %q, want uart0.tx", v.Port)
	}
	if len(v.Provenance) != 0 {
		t.Errorf("violation without an observer carries %d provenance events, want 0", len(v.Provenance))
	}

	idle := obs.New()
	if idle.Attached() || idle.EventCount() != 0 {
		t.Errorf("fresh observer: attached=%v events=%d", idle.Attached(), idle.EventCount())
	}
}

func TestObserverMetricsCounted(t *testing.T) {
	o := obs.New()
	e := mustECUObserved(t, VariantFixed, PolicyBase, o)
	challenge := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := e.Authenticate(challenge); err != nil {
		t.Fatal(err)
	}
	m := e.Platform.MetricsSnapshot()
	for _, key := range []string{"sim.instret", "lub_ops", "checks.input", "bus.txns", "obs.events"} {
		if m[key] == 0 {
			t.Errorf("metric %q is zero after an authentication round", key)
		}
	}
	if m["obs.pinned"] == 0 {
		t.Error("PIN classification must be pinned as a provenance root")
	}
}

// Under the per-byte policy each PIN byte carries its own class, and the
// firmware's sb stores of the AES key (the PIN repeated four times) carry
// them to the engine one byte at a time. The observer's aes0 bus-write
// event for key byte j must report the stored byte's class, (HC,K<j%4>),
// not a join with some other class.
func TestPerByteKeyBusWritesCarryByteClasses(t *testing.T) {
	o := obs.New()
	e := mustECUObserved(t, VariantFixed, PolicyPerByte, o)
	if _, err := e.Authenticate([8]byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	key := uint32(soc.AESBase + periph.AESKey)
	n := 0
	for _, ev := range o.Events() {
		if ev.Kind != core.EvBusWrite || ev.Port != "aes0" || ev.Addr < key || ev.Addr >= key+16 {
			continue
		}
		n++
		if got, want := o.Lattice().Name(ev.Tag), fmt.Sprintf("(HC,K%d)", (ev.Addr-key)%4); got != want {
			t.Errorf("key byte %d written as %s, want %s", ev.Addr-key, got, want)
		}
	}
	if n != 16 {
		t.Errorf("%d aes0 key writes recorded, want 16", n)
	}
}

func kinds(evs []core.TaintEvent) []core.TaintEventKind {
	out := make([]core.TaintEventKind, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}
