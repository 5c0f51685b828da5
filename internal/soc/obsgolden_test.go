package soc_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/immo"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/soc"
	"vpdift/internal/wk"
)

var updateObsGolden = flag.Bool("update", false, "rewrite testdata/observer.golden from fresh runs")

const obsGolden = "testdata/observer.golden"

// TestObserverGolden pins what an attached observer reports on the paper's
// verdict runs: the ten detected Wilander–Kamkar attacks and ten
// immobilizer scenarios (base and per-byte policy × commands a, b, c, e and
// o), each with an observer and coverage attached. Per run it records every
// platform metric (checks.*, violations.*, io.*, lub_ops and the observer's
// obs.* and bus.* included), the violation and its provenance chain. The
// flight recorder's calibrated capture cost is left out: it is measured
// once per process, not produced by the run. A change to the flag caches
// or platform sizing must leave this file alone, and one to which events
// the observer records (its pruning) may move only obs.events, obs.evicted
// and the chains' event numbers; regenerate it (-update) for those and for
// a change to the model.
func TestObserverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twenty observed platforms")
	}
	var got bytes.Buffer
	for _, a := range wk.Suite() {
		if !a.Applicable() {
			continue
		}
		img, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl := soc.MustNew(soc.Config{Policy: wk.Policy(img), Obs: obs.New(), Cover: cover.New()})
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		pl.UART.Inject(a.Payload(img))
		writeObservedRun(&got, fmt.Sprintf("wk-%d", a.Num), pl, pl.Run(kernel.S))
		pl.Shutdown()
	}
	for _, kind := range []immo.PolicyKind{immo.PolicyBase, immo.PolicyPerByte} {
		for _, cmd := range []string{"a", "b", "c", "e", "o\x42"} {
			e, err := immo.NewECUWithConfig(immo.VariantFixed, kind,
				immo.ECUConfig{Obs: obs.New(), Cover: cover.New()})
			if err != nil {
				t.Fatal(err)
			}
			runErr := e.Command(cmd[0], []byte(cmd[1:])...)
			writeObservedRun(&got, fmt.Sprintf("immo policy=%d cmd=%c", kind, cmd[0]), e.Platform, runErr)
			e.Close()
		}
	}

	if *updateObsGolden {
		if err := os.WriteFile(obsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(obsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		// Keep the fresh output past the test for diffing.
		dir, err := os.MkdirTemp("", "observer-golden-")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "observer.golden")
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("observer output differs from %s; diff it against %s\n%s", obsGolden, path, firstDiff(want, got.Bytes()))
	}
}

// writeObservedRun appends one run's record: sorted metrics, then the
// stopping error and, for a violation, its provenance chain.
func writeObservedRun(w *bytes.Buffer, name string, pl *soc.Platform, runErr error) {
	fmt.Fprintf(w, "== %s\n", name)
	m := pl.MetricsSnapshot()
	delete(m, "flight.capture_cost_ns")
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, m[k])
	}
	fmt.Fprintf(w, "-- stop: %v\n", runErr)
	var v *core.Violation
	if errors.As(runErr, &v) {
		w.WriteString(v.ProvenanceReport(nil))
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b []byte
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, a, b)
		}
	}
	return ""
}
