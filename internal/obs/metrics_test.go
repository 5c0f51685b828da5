package obs

import (
	"reflect"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/tlm"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"sim.instret", "sim_instret"},
		{"bus.read_bytes", "bus_read_bytes"},
		{"violations.output-clearance", "violations_output_clearance"},
		{"io.uart0.tx.bytes", "io_uart0_tx_bytes"},
		{"lub_ops", "lub_ops"},
		{"already_legal:name", "already_legal:name"},
		{"9starts.with.digit", "_9starts_with_digit"},
		{"", "_"},
		{"weird name/with spaces", "weird_name_with_spaces"},
	}
	for _, c := range cases {
		if got := SanitizeMetricName(c.in); got != c.want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Already-legal names must come back unchanged (same string, no copy
	// needed, but at minimum equal).
	if got := SanitizeMetricName("checks_fetch"); got != "checks_fetch" {
		t.Errorf("legal name changed: %q", got)
	}
}

// observedCounters gives an observer events (a violation chain and an
// output) and bus traffic. Checks, violations and port bytes are not the
// observer's: the platform reads them from the policy's enforcement
// counter set.
func observedCounters() *Observer {
	o := New()
	leakChain(o)
	o.RegisterPort("uart0", 0x4000_1000, 12)
	p := tlm.Payload{Cmd: tlm.Write, Addr: 0x4000_1000, Data: []core.TByte{{V: 'x'}}}
	o.OnBus(o.BusPort("uart0"), &p)
	o.OnOutput("uart0.tx", 'x', 0)
	return o
}

func TestMetricsSnapshotInto(t *testing.T) {
	o := observedCounters()
	dst := map[string]uint64{"stale": 99, "obs.events": 77}
	o.MetricsSnapshotInto(dst)
	want := map[string]uint64{
		"stale":           99, // unrelated keys are left alone
		"obs.events":      o.EventCount(),
		"obs.evicted":     0,
		"obs.pinned":      1,
		"bus.txns":        1,
		"bus.read_bytes":  0,
		"bus.write_bytes": 1,
	}
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("MetricsSnapshotInto =\n%v\nwant\n%v", dst, want)
	}
}

// The sampler contract: once dst has seen the counter set, re-snapshotting
// into it allocates nothing.
func TestMetricsSnapshotIntoZeroAlloc(t *testing.T) {
	o := observedCounters()
	dst := make(map[string]uint64, 16)
	o.MetricsSnapshotInto(dst) // warm: keys exist, map sized
	allocs := testing.AllocsPerRun(200, func() {
		o.MetricsSnapshotInto(dst)
	})
	if allocs != 0 {
		t.Errorf("MetricsSnapshotInto allocates %.1f per call, want 0", allocs)
	}
}
