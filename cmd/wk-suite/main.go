// Command wk-suite regenerates Table I of the paper: the Wilander–Kamkar
// buffer-overflow suite run against the Section VI-B code-injection policy
// (IFP-2, program text High-Integrity, HI instruction-fetch clearance,
// external input Low-Integrity).
//
// With -verify, every applicable attack is additionally run WITHOUT the
// DIFT engine to confirm the overflow genuinely hijacks control flow.
//
// With -matrix, the suite instead emits the detection matrix: every attack
// crossed with every clearance point the engine implements, marking which
// check fired. -matrix-json additionally writes the matrix as JSON for
// machine checking (CI compares it against the Table I golden); the JSON rows
// then also carry each attack's dynamic edge count.
//
// With -cover-out, every applicable attack runs with the coverage layer
// attached and exports its snapshot as wk-<n>.cover.json, plus the merged
// suite snapshot as suite.cover.json — the baseline input for vp-diff.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/obs"
	"vpdift/internal/wk"
)

func main() {
	verify := flag.Bool("verify", false, "also run each attack without DIFT to confirm it works")
	why := flag.Bool("why", false, "print each detected attack's taint-provenance chain")
	matrix := flag.Bool("matrix", false, "emit the attack x clearance-point detection matrix instead of Table I")
	matrixJSON := flag.String("matrix-json", "", "also write the detection matrix as JSON to this file (implies -matrix)")
	forensicsDir := flag.String("forensics", "", "write each detected attack's flight-recorder bundle (JSON + report) into this directory, validating every bundle")
	coverDir := flag.String("cover-out", "", "run with coverage attached and write per-attack snapshots plus the merged suite.cover.json into this directory (implies -matrix)")
	flag.Parse()

	if *forensicsDir != "" {
		if err := exportForensics(*forensicsDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *matrix || *matrixJSON != "" || *coverDir != "" {
		var m *wk.Matrix
		var err error
		// The JSON and snapshot consumers want the coverage-instrumented
		// matrix (per-row edge counts); the text rendering never shows edges,
		// so the Table I golden is untouched either way.
		if *matrixJSON != "" || *coverDir != "" {
			var snaps []*cover.Snapshot
			m, snaps, err = wk.RunMatrixCover()
			if err == nil && *coverDir != "" {
				err = exportCover(*coverDir, m, snaps)
			}
		} else {
			m, err = wk.RunMatrix()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("Table I detection matrix: attack x clearance point (X = check fired)")
		m.WriteText(os.Stdout)
		if *matrixJSON != "" {
			f, err := os.Create(*matrixJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := m.WriteJSON(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if m.Detected != 10 || m.NA != 8 || m.Missed != 0 {
			fmt.Fprintf(os.Stderr, "matrix deviates from Table I: Detected=%d N-A=%d Missed=%d (want 10/8/0)\n",
				m.Detected, m.NA, m.Missed)
			os.Exit(1)
		}
		return
	}

	if *why {
		for _, a := range wk.Suite() {
			a := a
			if !a.Applicable() {
				continue
			}
			res, v, err := wk.RunObserved(&a, true, obs.New())
			if err != nil {
				fmt.Fprintf(os.Stderr, "attack %d: %v\n", a.Num, err)
				os.Exit(1)
			}
			if res != wk.Detected || v == nil {
				continue
			}
			fmt.Fprintf(os.Stderr, "attack %2d (%s / %s / %s): %v\n",
				a.Num, a.Location, a.Target, a.Technique, v)
			fmt.Fprintf(os.Stderr, "provenance (classification -> failed check):\n%s\n",
				v.ProvenanceReport(nil))
		}
	}

	if *verify {
		for _, a := range wk.Suite() {
			a := a
			if !a.Applicable() {
				continue
			}
			res, err := wk.Run(&a, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "attack %d sanity run failed: %v\n", a.Num, err)
				os.Exit(1)
			}
			if res != wk.Missed {
				fmt.Fprintf(os.Stderr, "attack %d did not hijack control without DIFT\n", a.Num)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "attack %2d: control-flow hijack confirmed without DIFT\n", a.Num)
		}
	}

	table, err := wk.Table()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("Table I: buffer-overflow test-suite results (code-injection policy)")
	fmt.Print(table)
}

// exportCover writes each applicable attack's coverage snapshot as
// wk-<n>.cover.json plus the fold of all of them as suite.cover.json. The
// merged file is what CI's coverage-diff guard pins: vp-diff compares a fresh
// suite.cover.json against the checked-in baseline and fails on lost edges,
// newly-dead rules, or verdict flips.
func exportCover(dir string, m *wk.Matrix, snaps []*cover.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wrote := 0
	for i, snap := range snaps {
		if snap == nil {
			continue
		}
		name := fmt.Sprintf("wk-%d.cover.json", m.Rows[i].Num)
		if err := os.WriteFile(filepath.Join(dir, name), snap.JSON(), 0o644); err != nil {
			return err
		}
		wrote++
	}
	merged, err := cover.MergeAll(snaps...)
	if err != nil {
		return fmt.Errorf("cover-out: merging suite snapshots: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "suite.cover.json"), merged.JSON(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cover: %d attack snapshots + merged suite.cover.json in %s (%d edges, %d blocks)\n",
		wrote, dir, merged.EdgeCount(), merged.BlockCount())
	return nil
}

// exportForensics reruns every applicable attack under the policy and writes
// each detected attack's forensic bundle as wk-<n>.forensics.json plus the
// human report. Every bundle is round-tripped through the schema validator,
// and each trace window is checked to end at the violating instruction — so
// a CI job needs nothing beyond this command's exit status.
func exportForensics(dir string) error {
	wrote := 0
	for _, a := range wk.Suite() {
		a := a
		if !a.Applicable() {
			continue
		}
		res, v, bundle, err := wk.RunForensic(&a, true, wk.RunMode{})
		if err != nil {
			return fmt.Errorf("attack %d: %w", a.Num, err)
		}
		if res != wk.Detected || v == nil {
			continue
		}
		if bundle == nil {
			return fmt.Errorf("attack %d: detected but produced no forensic bundle", a.Num)
		}
		parsed, err := flight.ValidateBundle(bundle.JSON())
		if err != nil {
			return fmt.Errorf("attack %d: bundle failed validation: %w", a.Num, err)
		}
		if len(parsed.Trace) == 0 {
			return fmt.Errorf("attack %d: bundle has an empty trace window", a.Num)
		}
		last := parsed.Trace[len(parsed.Trace)-1]
		if last.Kind != "violation" || last.PC != flight.Hex32(v.PC) {
			return fmt.Errorf("attack %d: trace window ends at %s/%s, want violation at %s",
				a.Num, last.Kind, last.PC, flight.Hex32(v.PC))
		}
		if _, err := bundle.WriteFiles(dir, fmt.Sprintf("wk-%d", a.Num)); err != nil {
			return err
		}
		wrote++
	}
	fmt.Fprintf(os.Stderr, "forensics: %d validated bundles in %s\n", wrote, dir)
	return nil
}
