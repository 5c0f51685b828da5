package wk

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vpdift/internal/core"
	"vpdift/internal/cover"
)

// ClearancePoints are the matrix columns: every clearance check the DIFT
// engine implements, in a fixed order. Table I's code-injection policy is
// expected to fire exactly one of them (the fetch clearance) for every
// applicable attack.
var ClearancePoints = []core.ViolationKind{
	core.KindOutputClearance,
	core.KindFetchClearance,
	core.KindBranchClearance,
	core.KindMemAddrClearance,
	core.KindStoreClearance,
}

// MatrixRow is one attack crossed with the clearance points.
type MatrixRow struct {
	Num       int    `json:"num"`
	Location  string `json:"location"`
	Target    string `json:"target"`
	Technique string `json:"technique"`
	Result    string `json:"result"`
	// ClearancePoint is the check that fired (ViolationKind string) for a
	// Detected attack; empty otherwise.
	ClearancePoint string `json:"clearance_point,omitempty"`
	// PC is the program counter of the violation (the payload entry point for
	// Table I detections); zero when nothing fired.
	PC       uint32 `json:"pc,omitempty"`
	NAReason string `json:"na_reason,omitempty"`
	// Edges is the attack's dynamic control-flow edge count, filled only by
	// RunMatrixCover (the plain matrix runs without the coverage layer).
	Edges int `json:"edges,omitempty"`
}

// Matrix is the machine-checked Table I detection matrix.
type Matrix struct {
	Rows     []MatrixRow `json:"rows"`
	Detected int         `json:"detected"`
	NA       int         `json:"na"`
	Missed   int         `json:"missed"`
}

// RunMatrix runs all 18 attacks under the Section VI-B policy and builds the
// detection matrix. A Missed row does not abort the run — the matrix is the
// diagnostic — but any infrastructure error (assembler, platform) does.
func RunMatrix() (*Matrix, error) { return runMatrix(RunMode{}) }

// RunMatrixCover is RunMatrix with the coverage layer attached: every
// applicable attack additionally yields its coverage snapshot, and each
// matrix row carries the attack's dynamic edge count. Snapshots parallel
// the rows (nil for non-applicable attacks). The Table I verdicts must match
// RunMatrix exactly — coverage observation may not perturb detection.
func RunMatrixCover() (*Matrix, []*cover.Snapshot, error) {
	m := &Matrix{}
	var snaps []*cover.Snapshot
	suite := Suite()
	for i := range suite {
		a := &suite[i]
		row := MatrixRow{
			Num: a.Num, Location: a.Location, Target: a.Target,
			Technique: a.Technique, NAReason: a.NAReason,
		}
		if !a.Applicable() {
			row.Result = NA.String()
			m.NA++
			m.Rows = append(m.Rows, row)
			snaps = append(snaps, nil)
			continue
		}
		res, v, snap, err := RunCover(a, true, RunMode{})
		if err != nil && v == nil {
			return nil, nil, err
		}
		row.Result = res.String()
		if v != nil {
			row.ClearancePoint = v.Kind.String()
			row.PC = v.PC
		}
		row.Edges = snap.EdgeCount()
		switch res {
		case Detected:
			m.Detected++
		case Missed:
			m.Missed++
		default:
			m.NA++
		}
		m.Rows = append(m.Rows, row)
		snaps = append(snaps, snap)
	}
	return m, snaps, nil
}

func runMatrix(mode RunMode) (*Matrix, error) {
	m := &Matrix{}
	suite := Suite()
	for i := range suite {
		a := &suite[i]
		row := MatrixRow{
			Num: a.Num, Location: a.Location, Target: a.Target,
			Technique: a.Technique, NAReason: a.NAReason,
		}
		if !a.Applicable() {
			row.Result = NA.String()
			m.NA++
			m.Rows = append(m.Rows, row)
			continue
		}
		res, v, err := RunWithMode(a, true, mode)
		if err != nil && v == nil {
			return nil, err
		}
		row.Result = res.String()
		if v != nil {
			row.ClearancePoint = v.Kind.String()
			row.PC = v.PC
		}
		switch res {
		case Detected:
			m.Detected++
		case Missed:
			m.Missed++
		default:
			m.NA++
		}
		m.Rows = append(m.Rows, row)
	}
	return m, nil
}

// WriteText renders the matrix as an attack × clearance-point table: "X"
// marks the check that fired, "." a check that stayed silent, "-" a
// non-applicable attack.
func (m *Matrix) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-14s %-26s %-10s", "Atk #", "Location", "Target", "Technique")
	for _, k := range ClearancePoints {
		fmt.Fprintf(w, " %-9s", shortPoint(k))
	}
	fmt.Fprintf(w, " %s\n", "Result")
	for _, r := range m.Rows {
		fmt.Fprintf(w, "%-5d %-14s %-26s %-10s", r.Num, r.Location, r.Target, r.Technique)
		for _, k := range ClearancePoints {
			mark := "."
			if r.Result == NA.String() {
				mark = "-"
			} else if r.ClearancePoint == k.String() {
				mark = "X"
			}
			fmt.Fprintf(w, " %-9s", mark)
		}
		fmt.Fprintf(w, " %s\n", r.Result)
	}
	fmt.Fprintf(w, "\nDetected %d / N-A %d / Missed %d (of %d)\n",
		m.Detected, m.NA, m.Missed, len(m.Rows))
}

// WriteJSON emits the matrix for machine checking (CI compares it against the
// Table I golden).
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// shortPoint abbreviates a ViolationKind for a column header.
func shortPoint(k core.ViolationKind) string {
	return strings.TrimSuffix(k.String(), "-clearance")
}
