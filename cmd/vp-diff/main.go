// Command vp-diff compares two coverage snapshots and guards against
// regression: lost control-flow edges, rules that fell dead, or detection
// verdicts that flipped between the runs.
//
// Usage:
//
//	vp-diff [flags] <baseline> <candidate>
//
// Each argument is a JSON file holding a coverage snapshot in any of the
// shapes the platform emits:
//
//   - a raw snapshot (vp-run -cover-snapshot, wk-suite -cover-out, or
//     GET .../coverage?format=snapshot)
//   - a v1 API envelope whose data carries a campaign rollup ("merged")
//     or a session result ("cover")
//   - a bare session result or campaign rollup saved without the envelope
//
// The human report goes to stdout; -json additionally writes the machine
// DiffReport. Exit status: 0 when the candidate holds or extends the
// baseline's coverage, 1 on regression (the report names every lost edge,
// newly-dead rule and verdict flip), 2 on usage or load errors — so a CI
// job needs nothing beyond the exit code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vpdift/internal/cover"
)

func main() {
	jsonOut := flag.String("json", "", "write the machine-readable diff report to this file ('-' for stdout)")
	frontier := flag.Bool("frontier", false, "also print the candidate's frontier contribution over the baseline")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: vp-diff [flags] <baseline.json> <candidate.json>")
		os.Exit(2)
	}

	base, err := loadSnapshot(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vp-diff: baseline: %v\n", err)
		os.Exit(2)
	}
	cand, err := loadSnapshot(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vp-diff: candidate: %v\n", err)
		os.Exit(2)
	}

	d := cover.Diff(base, cand)
	if err := d.WriteReport(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *frontier {
		f := cand.Frontier(base)
		fmt.Printf("\nfrontier: %d new edges, %d new blocks, %d new taint bytes, %d new verdicts\n",
			f.NewEdges, f.NewBlocks, f.NewTaintBytes, f.NewVerdicts)
		for _, e := range f.Edges {
			fmt.Printf("  + %s\n", e)
		}
	}
	if *jsonOut != "" {
		if err := writeOut(*jsonOut, d.JSON()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if d.Regression() {
		os.Exit(1)
	}
}

// loadSnapshot reads a snapshot in any emitted shape: raw, enveloped, or
// embedded in a session result / campaign rollup.
func loadSnapshot(path string) (*cover.Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if snap, ok := sniff(raw); ok {
		return snap, nil
	}
	return nil, fmt.Errorf("%s: no coverage snapshot found (want schema %q, a \"cover\" result field, or a \"merged\" campaign rollup)",
		path, cover.SnapshotSchema)
}

// sniff walks the known container shapes, innermost snapshot first.
func sniff(raw []byte) (*cover.Snapshot, bool) {
	var probe struct {
		Schema string          `json:"schema"`
		Data   json.RawMessage `json:"data"`
		Cover  json.RawMessage `json:"cover"`
		Merged json.RawMessage `json:"merged"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, false
	}
	if probe.Schema == cover.SnapshotSchema {
		snap, err := cover.ParseSnapshot(raw)
		return snap, err == nil
	}
	for _, inner := range [][]byte{probe.Cover, probe.Merged, probe.Data} {
		if len(inner) > 0 && string(inner) != "null" {
			if snap, ok := sniff(inner); ok {
				return snap, true
			}
		}
	}
	return nil, false
}

func writeOut(path string, b []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
