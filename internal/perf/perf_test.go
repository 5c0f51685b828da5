package perf

import (
	"strings"
	"testing"
	"time"

	"vpdift/internal/asm"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
)

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"small": ScaleSmall, "medium": ScaleMedium, "large": ScaleLarge} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale must be rejected")
	}
}

func TestWorkloadsCoverTableII(t *testing.T) {
	names := []string{"qsort", "dhrystone", "primes", "sha512", "simple-sensor", "freertos-tasks", "immo-fixed"}
	ws := Workloads(ScaleSmall)
	if len(ws) != len(names) {
		t.Fatalf("%d workloads, want %d", len(ws), len(names))
	}
	for i, w := range ws {
		if w.Name != names[i] {
			t.Errorf("workload %d = %q, want %q", i, w.Name, names[i])
		}
	}
}

func TestRunRowQsortTiny(t *testing.T) {
	// A minimal end-to-end row: both flavours run, same instruction count,
	// and VP+ is not faster than VP by construction of the metric.
	w := Workloads(ScaleSmall)[0]
	row, err := RunRowBest(w, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Instr == 0 || row.LoCASM == 0 {
		t.Errorf("row = %+v", row)
	}
	if row.VP.Instr != row.VPPlus.Instr {
		t.Errorf("instruction counts differ: VP %d, VP+ %d (same binary, same input)",
			row.VP.Instr, row.VPPlus.Instr)
	}
	if row.Overhead() <= 0 {
		t.Errorf("overhead = %v", row.Overhead())
	}
}

func TestRunRowBestKeepsFastest(t *testing.T) {
	// Best-of-N returns a valid row; the deterministic simulator retires the
	// same instruction stream every rep, so the counts must agree with a
	// single-rep run of the same workload.
	w := Workloads(ScaleSmall)[0]
	row, err := RunRowBest(w, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunRowBest(w, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Instr != single.Instr {
		t.Errorf("best-of-2 retired %d instructions, single run %d", row.Instr, single.Instr)
	}
	if row.VP.Wall <= 0 || row.VPPlus.Wall <= 0 {
		t.Errorf("non-positive wall time: %+v", row)
	}
}

func TestRunRowImmoTiny(t *testing.T) {
	ws := Workloads(ScaleSmall)
	w := ws[len(ws)-1]
	if w.Name != "immo-fixed" {
		t.Fatal("expected immo-fixed last")
	}
	row, err := RunRowBest(w, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Instr == 0 {
		t.Error("no instructions executed")
	}
}

func TestMeasurementMIPS(t *testing.T) {
	m := Measurement{Instr: 2_000_000, Wall: time.Second}
	if got := m.MIPS(); got < 1.9 || got > 2.1 {
		t.Errorf("MIPS = %v", got)
	}
	if (Measurement{}).MIPS() != 0 {
		t.Error("zero measurement MIPS")
	}
	if (Row{}).Overhead() != 0 {
		t.Error("zero row overhead")
	}
}

func TestTableFormat(t *testing.T) {
	rows := []Row{{
		Name: "qsort", Instr: 430719182, LoCASM: 17052,
		VP:     Measurement{Instr: 430719182, Wall: 11600 * time.Millisecond},
		VPPlus: Measurement{Instr: 430719182, Wall: 18300 * time.Millisecond},
	}}
	out := Table(rows)
	for _, want := range []string{"qsort", "430,719,182", "17052", "- average -", "1.6x"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestGroup3(t *testing.T) {
	cases := map[uint64]string{0: "0", 7: "7", 999: "999", 1000: "1,000", 1234567: "1,234,567"}
	for v, want := range cases {
		if got := group3(v); got != want {
			t.Errorf("group3(%d) = %q", v, got)
		}
	}
}

func TestRunOnceFailurePaths(t *testing.T) {
	// Guest that fails its self-check.
	failing := Workload{
		Name: "failing",
		Build: func() *asm.Image {
			return guest.MustProgram("main:\n\tli a0, 3\n\tret\n")
		},
	}
	if _, err := RunOnceOpts(failing, Options{}); err == nil || !strings.Contains(err.Error(), "self-check") {
		t.Errorf("err = %v, want self-check failure", err)
	}

	// Guest that never exits within its horizon.
	hanging := Workload{
		Name: "hanging",
		Build: func() *asm.Image {
			return guest.MustProgram("main:\n1:\tj 1b\n")
		},
		Horizon: kernel.MS,
	}
	if _, err := RunOnceOpts(hanging, Options{DIFT: true}); err == nil || !strings.Contains(err.Error(), "did not exit") {
		t.Errorf("err = %v, want did-not-exit", err)
	}
}

func TestRunOnceTLMMemMatchesResults(t *testing.T) {
	// The TLM-routed VP+ must produce identical guest results (instruction
	// count), only slower.
	w := Workloads(ScaleSmall)[2] // primes
	direct, err := RunOnceOpts(w, Options{DIFT: true})
	if err != nil {
		t.Fatal(err)
	}
	viaTLM, err := RunOnceOpts(w, Options{DIFT: true, TLMMem: true})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Instr != viaTLM.Instr {
		t.Errorf("instruction counts differ: %d vs %d", direct.Instr, viaTLM.Instr)
	}
}
