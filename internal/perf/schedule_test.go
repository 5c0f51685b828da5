package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpdift/internal/kernel"
	"vpdift/internal/telemetry"
	"vpdift/internal/trace"
)

var scheduleDump = flag.String("schedule.dump", "",
	"write every TestScheduleGolden stream into this directory, to diff against a run at another commit")

const (
	scheduleGolden = "testdata/schedule.golden"
	scheduleEvery  = 100 * kernel.US
	// scheduleSamples bounds the sampler ring; a run that takes more samples
	// than this fails rather than hashing a truncated series.
	scheduleSamples = 1 << 14
)

// TestScheduleGolden pins the kernel's schedule for the seven Table II rows
// at small scale, on the VP and the VP+. Each run carries a kernel trace
// (every spawn, wake, run, pause, notify, clock step and bus transaction)
// and a 100 µs telemetry sampler. The digest covers the trace's JSONL and
// each sample's (seq, time, sim.instret). The digests change only with a
// change to the model, never with a change to how the kernel dispatches.
func TestScheduleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fourteen traced platforms")
	}
	want := readScheduleGolden(t)
	for _, w := range Workloads(ScaleSmall) {
		for _, dift := range []bool{false, true} {
			name := w.Name + " " + flavour(dift)
			stream, err := scheduleStream(w, dift)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			sum := sha256.Sum256(stream)
			got := hex.EncodeToString(sum[:])
			dir := *scheduleDump
			if got != want[name] && dir == "" {
				dir = keptDir(t)
			}
			if dir == "" {
				continue
			}
			path := writeStream(t, dir, name, stream)
			if got != want[name] {
				t.Errorf("%s: schedule digest %s, want %s; stream written to %s (diff it against a -schedule.dump run at a commit that matches)",
					name, got, want[name], path)
			}
		}
	}
}

func flavour(dift bool) string {
	if dift {
		return "vp+"
	}
	return "vp"
}

// scheduleStream runs one row with the kernel trace and the sampler
// attached and returns the bytes the digest covers.
func scheduleStream(w Workload, dift bool) ([]byte, error) {
	kt := trace.NewKernelTrace(1 << 23)
	smp := telemetry.NewSampler(telemetry.Options{Every: scheduleEvery, RingCapacity: scheduleSamples})
	if _, err := RunOnceOpts(w, Options{DIFT: dift, Trace: &trace.Trace{Kernel: kt}, Telemetry: smp}); err != nil {
		return nil, err
	}
	if kt.Dropped() != 0 {
		return nil, fmt.Errorf("kernel trace dropped %d events", kt.Dropped())
	}
	if smp.Total() > scheduleSamples {
		return nil, fmt.Errorf("sampler took %d samples, more than its ring holds", smp.Total())
	}
	var b strings.Builder
	if err := kt.WriteJSONL(&b); err != nil {
		return nil, err
	}
	for _, sm := range smp.Samples() {
		fmt.Fprintf(&b, "sample %d %d %d\n", sm.Seq, sm.Time, sm.Metrics["sim.instret"])
	}
	return []byte(b.String()), nil
}

// keptDir is a directory that outlives the test, so a mismatching stream
// can be diffed after the run.
func keptDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "schedule-golden-")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func writeStream(t *testing.T, dir, name string, stream []byte) string {
	t.Helper()
	path := filepath.Join(dir, strings.ReplaceAll(name, " ", ".")+".jsonl")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readScheduleGolden parses "<row> <flavour> <sha256>" lines.
func readScheduleGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(scheduleGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", scheduleGolden, line)
		}
		want[f[0]+" "+f[1]] = f[2]
	}
	return want
}
