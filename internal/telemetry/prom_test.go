package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// The exporter must be byte-deterministic: same metrics, same output. The
// golden string doubles as documentation of the exact format.
func TestWritePrometheusGolden(t *testing.T) {
	metrics := map[string]uint64{
		"sim.instret":                 123456,
		"checks.output":               42,
		"violations.output-clearance": 1,
		"cover.guest_blocks_covered":  17,
		"io.uart0.tx.bytes":           88,
	}
	want := strings.Join([]string{
		"# HELP vpdift_checks_output DIFT clearance checks performed, by check point.",
		"# TYPE vpdift_checks_output counter",
		"vpdift_checks_output 42",
		"# HELP vpdift_cover_guest_blocks_covered Coverage gauge.",
		"# TYPE vpdift_cover_guest_blocks_covered gauge",
		"vpdift_cover_guest_blocks_covered 17",
		"# HELP vpdift_io_uart0_tx_bytes Peripheral I/O counter.",
		"# TYPE vpdift_io_uart0_tx_bytes counter",
		"vpdift_io_uart0_tx_bytes 88",
		"# HELP vpdift_sim_instret Simulation gauge sampled from the platform.",
		"# TYPE vpdift_sim_instret counter",
		"vpdift_sim_instret 123456",
		"# HELP vpdift_violations_output_clearance Policy violations detected, by violation kind.",
		"# TYPE vpdift_violations_output_clearance counter",
		"vpdift_violations_output_clearance 1",
		"",
	}, "\n")
	for i := 0; i < 3; i++ { // determinism across runs
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, metrics); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("run %d:\ngot:\n%s\nwant:\n%s", i, buf.String(), want)
		}
	}
}

// Multiple sessions share HELP/TYPE lines: the format forbids repeating
// them, so samples group under one header with a session label each.
func TestWritePrometheusSetsGroupsLabels(t *testing.T) {
	sets := []MetricSet{
		{Labels: map[string]string{"session": "b"}, Metrics: map[string]uint64{"sim.instret": 2}},
		{Labels: map[string]string{"session": "a"}, Metrics: map[string]uint64{"sim.instret": 1, "checks.output": 7}},
	}
	var buf bytes.Buffer
	if err := WritePrometheusSets(&buf, sets); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE vpdift_sim_instret") != 1 {
		t.Errorf("TYPE line must appear once:\n%s", out)
	}
	// Samples sorted by label under the shared header.
	ia := strings.Index(out, `vpdift_sim_instret{session="a"} 1`)
	ib := strings.Index(out, `vpdift_sim_instret{session="b"} 2`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("labeled samples wrong or misordered:\n%s", out)
	}
	if err := ValidateExposition(out); err != nil {
		t.Errorf("invalid exposition: %v\n%s", err, out)
	}
}

func TestWritePrometheusValid(t *testing.T) {
	metrics := map[string]uint64{
		"sim.instret":                 1,
		"sim.time_ns":                 2,
		"violations.sanitize-taint":   3,
		"bus.monitor_dropped.uart0":   4,
		"9weird name":                 5,
		"cover.audit_dead_rules":      6,
		"io.can0.rx.frames":           7,
		"obs.events":                  8,
		"lub_ops":                     9,
		"trace.kernel_events":         10,
		"checks.fetch":                11,
		"sim.decode_cache_hits":       12,
		"bus.read_bytes":              13,
		"completely.unknown.category": 14,
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, metrics); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.String()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}
}

// Level statistics export as gauges and their monotone *_total siblings as
// counters.
func TestWritePrometheusGaugeTotalConvention(t *testing.T) {
	metrics := map[string]uint64{
		"flight.ring_occupancy": 3,
		"flight.captured_total": 12345,
		"flight.dropped_total":  999,
		"flight.ring_size":      4096,
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, metrics); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# HELP vpdift_flight_ring_occupancy Flight-recorder statistic.",
		"# TYPE vpdift_flight_ring_occupancy gauge",
		"vpdift_flight_ring_occupancy 3",
		"# TYPE vpdift_flight_ring_size gauge",
		"# TYPE vpdift_flight_captured_total counter",
		"vpdift_flight_captured_total 12345",
		"# TYPE vpdift_flight_dropped_total counter",
		"vpdift_flight_dropped_total 999",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []string{
		"vpdift.dotted 1",                    // illegal name
		"# TYPE vpdift_x banana",             // unknown type
		"vpdift_x 1\n# TYPE vpdift_x gauge",  // TYPE after sample
		"# HELP vpdift_x a\n# HELP vpdift_x", // second HELP malformed (no text)
		"vpdift_x{label=unquoted} 1",         // unquoted label value
	}
	for _, text := range bad {
		if err := ValidateExposition(text); err == nil {
			t.Errorf("ValidateExposition accepted %q", text)
		}
	}
	if err := ValidateExposition("vpdift_ok{a=\"b\",c=\"d\\\"e\"} 12\n"); err != nil {
		t.Errorf("valid line rejected: %v", err)
	}
}

func TestEscapeLabelValue(t *testing.T) {
	if got := escapeLabelValue("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escapeLabelValue = %q", got)
	}
}
