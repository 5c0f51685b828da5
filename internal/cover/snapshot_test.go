package cover

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpdift/internal/core"
)

var updateSnapGolden = flag.Bool("update", false, "rewrite the snapshot golden file")

// fullCover assembles a Cover with all three views configured and fed a
// small deterministic history, standing in for one complete VP+ run.
func fullCover(t *testing.T) *Cover {
	t.Helper()
	c := New()
	c.Guest.Configure(base, ramLen)
	c.Guest.SetImage(testImage())
	retire(c.Guest)

	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	c.Taint.Configure(base, 64, l, li)
	c.Taint.OnStore(base+8, 4, hi)
	c.Taint.OnRetire(5, hi)

	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "guarded", Start: base, End: base + 16,
			CheckStore: true, Clearance: hi,
		}).
		WithOutput("uart0.tx", li)
	c.Audit.Configure(pol)
	l.LUB(hi, li)
	l.AllowedFlow(hi, li)
	c.Audit.Fetch.Checks++
	c.Audit.NoteStore(base + 4)
	return c
}

func testRun(workload string) RunID {
	return RunID{Workload: workload, Policy: "wk", Image: "img0", PolicyID: "pol0"}
}

func captureFull(t *testing.T, workload string) *Snapshot {
	t.Helper()
	return Capture(fullCover(t), testRun(workload), &Verdict{
		Workload: workload, Policy: "wk", Detected: true, Kind: "fetch-clearance", PC: "0x80000014",
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := captureFull(t, "w1")
	first := s.JSON()
	parsed, err := ParseSnapshot(first)
	if err != nil {
		t.Fatal(err)
	}
	second := parsed.JSON()
	if !bytes.Equal(first, second) {
		t.Errorf("round trip not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if parsed.EdgeCount() != s.EdgeCount() || parsed.BlockCount() != s.BlockCount() {
		t.Errorf("round trip changed counts: edges %d->%d blocks %d->%d",
			s.EdgeCount(), parsed.EdgeCount(), s.BlockCount(), parsed.BlockCount())
	}
	if len(s.Runs) != 1 || s.Runs[0].Digest == "" {
		t.Fatalf("capture must stamp a run digest: %+v", s.Runs)
	}
}

func TestSnapshotGolden(t *testing.T) {
	got := captureFull(t, "w1").JSON()
	// Re-capture from an independently built, identical history: export
	// must be byte-deterministic across process-level map randomization.
	again := captureFull(t, "w1").JSON()
	if !bytes.Equal(got, again) {
		t.Fatalf("two identical captures serialize differently:\n%s\n---\n%s", got, again)
	}
	path := filepath.Join("testdata", "snapshot.golden")
	if *updateSnapGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot drifted from golden (regenerate with -update):\n%s", got)
	}
}

func TestSnapshotSchemaRejected(t *testing.T) {
	if _, err := ParseSnapshot([]byte(`{"schema":"vpdift.cover/v0","runs":[]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ParseSnapshot([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// FuzzParseSnapshot feeds ParseSnapshot arbitrary bytes, starting from the
// golden snapshot, one seed per section of it and the rejected inputs above.
// It must never panic, and a snapshot it accepts exports canonical bytes:
// they re-parse and re-export to themselves.
func FuzzParseSnapshot(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot.golden"))
	if err != nil {
		f.Fatal(err)
	}
	s, err := ParseSnapshot(golden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, part := range []*Snapshot{
		{Schema: s.Schema, Runs: s.Runs, Guest: s.Guest},
		{Schema: s.Schema, Runs: s.Runs, Taint: s.Taint},
		{Schema: s.Schema, Runs: s.Runs, Audit: s.Audit},
		{Schema: s.Schema, Runs: s.Runs, Verdicts: s.Verdicts},
	} {
		f.Add(part.JSON())
	}
	f.Add([]byte(`{"schema":"vpdift.cover/v0","runs":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSnapshot(data)
		if err != nil {
			return
		}
		first := s.JSON()
		again, err := ParseSnapshot(first)
		if err != nil {
			t.Fatalf("an accepted snapshot's export does not parse: %v\n%s", err, first)
		}
		if second := again.JSON(); !bytes.Equal(first, second) {
			t.Fatalf("re-export differs:\n%s\n---\n%s", first, second)
		}
	})
}

func TestMergeIdempotent(t *testing.T) {
	s := captureFull(t, "w1")
	m, err := Merge(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.JSON(), s.JSON()) {
		t.Errorf("merge(S, S) != S:\n%s\n---\n%s", m.JSON(), s.JSON())
	}
}

// variantSnapshot builds a snapshot with different coverage content (extra
// retires) so its digest differs from captureFull's.
func variantSnapshot(t *testing.T, workload string) *Snapshot {
	t.Helper()
	c := fullCover(t)
	c.Guest.OnRetire(base+0x04, beqP8, base+0x08) // not-taken edge
	c.Guest.OnRetire(base+0x08, nop, base+0x0c)
	c.Taint.OnStore(base+32, 2, core.IFP2().MustTag(core.ClassHI))
	return Capture(c, testRun(workload), &Verdict{Workload: workload, Policy: "wk", Detected: true, Kind: "fetch-clearance"})
}

func TestMergeCommutativeAssociative(t *testing.T) {
	a := captureFull(t, "w1")
	b := variantSnapshot(t, "w2")
	c := variantSnapshot(t, "w3")

	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.JSON(), ba.JSON()) {
		t.Error("merge not commutative")
	}

	abc1, err := MergeAll(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Merge(b, c)
	if err != nil {
		t.Fatal(err)
	}
	abc2, err := Merge(a, bc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abc1.JSON(), abc2.JSON()) {
		t.Error("merge not associative")
	}

	// Overlapping edge sets must add counts; w2 adds the not-taken edge.
	if ab.Guest.Edges["0x80000004->0x8000000c"] != 2 {
		t.Errorf("shared edge count = %d, want 2", ab.Guest.Edges["0x80000004->0x8000000c"])
	}
	if _, ok := ab.Guest.Edges["0x80000004->0x80000008"]; !ok {
		t.Error("merge lost w2's not-taken edge")
	}
	if got := len(ab.Runs); got != 2 {
		t.Errorf("merged runs = %d, want 2", got)
	}
}

func TestMergePartialOverlapRejected(t *testing.T) {
	a := captureFull(t, "w1")
	b := variantSnapshot(t, "w2")
	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	c := variantSnapshot(t, "w3")
	bc, err := Merge(b, c)
	if err != nil {
		t.Fatal(err)
	}
	// ab and bc share exactly run w2: merging them would double-count it.
	if _, err := Merge(ab, bc); err == nil {
		t.Error("partial run overlap not rejected")
	}
	// Full containment is fine: ab already includes a.
	m, err := Merge(ab, a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.JSON(), ab.JSON()) {
		t.Error("merging a contained run must be a no-op")
	}
}

func TestMergeDeadRuleIntersection(t *testing.T) {
	a := captureFull(t, "w1")
	// Exercise the output sink in run b only: the output dead rule must
	// vanish from the intersection, region rule stays dead in neither
	// (exercised in both), class dead rules intersect.
	cb := fullCover(t)
	cb.Audit.Output("uart0.tx").Checks++
	b := Capture(cb, testRun("w2"), nil)

	joinedA := strings.Join(a.Audit.DeadRules, "\n")
	if !strings.Contains(joinedA, `output clearance on "uart0.tx"`) {
		t.Fatalf("fixture must start with a dead output rule: %q", a.Audit.DeadRules)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(m.Audit.DeadRules, "\n")
	if strings.Contains(joined, `output clearance on "uart0.tx"`) {
		t.Errorf("rule exercised in one run still dead after merge: %q", m.Audit.DeadRules)
	}
	for _, d := range m.Audit.DeadRules {
		if !strings.Contains(joinedA, d) {
			t.Errorf("merged dead rule %q not dead in run a", d)
		}
	}
}

func TestDiffSelfEmpty(t *testing.T) {
	s := captureFull(t, "w1")
	d := Diff(s, s)
	if !d.Empty() {
		t.Errorf("self diff not empty: %s", d.JSON())
	}
	if d.Regression() {
		t.Error("self diff reports a regression")
	}
	var rep bytes.Buffer
	if err := d.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "identical coverage") {
		t.Errorf("report: %s", rep.String())
	}
}

func TestDiffLostEdgeIsRegression(t *testing.T) {
	s := captureFull(t, "w1")
	mutilated := s.Clone()
	const edge = "0x80000004->0x8000000c"
	if _, ok := mutilated.Guest.Edges[edge]; !ok {
		t.Fatalf("fixture lacks edge %s", edge)
	}
	delete(mutilated.Guest.Edges, edge)

	d := Diff(s, mutilated)
	if !d.Regression() {
		t.Fatal("lost edge not flagged as regression")
	}
	if len(d.LostEdges) != 1 || d.LostEdges[0] != edge {
		t.Errorf("lost edges = %v, want [%s]", d.LostEdges, edge)
	}
	var rep bytes.Buffer
	if err := d.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), edge) || !strings.Contains(rep.String(), "REGRESSION") {
		t.Errorf("report does not name the lost edge:\n%s", rep.String())
	}

	// The reverse direction is new coverage, not a regression.
	if rd := Diff(mutilated, s); rd.Regression() || len(rd.NewEdges) != 1 {
		t.Errorf("gained edge misreported: regression=%v new=%v", rd.Regression(), rd.NewEdges)
	}
}

func TestDiffVerdictFlip(t *testing.T) {
	s := captureFull(t, "w1")
	flipped := s.Clone()
	flipped.Verdicts[0].Detected = false
	flipped.Verdicts[0].Kind = ""

	d := Diff(s, flipped)
	if !d.Regression() || len(d.VerdictFlips) != 1 {
		t.Fatalf("verdict flip not detected: %s", d.JSON())
	}
	f := d.VerdictFlips[0]
	if f.Workload != "w1" || !strings.Contains(f.Base, "detected") || strings.Contains(f.Other, "detected") {
		t.Errorf("flip = %+v", f)
	}
}

func TestDiffTaintDelta(t *testing.T) {
	a := captureFull(t, "w1")
	b := variantSnapshot(t, "w1")
	d := Diff(a, b)
	if d.TaintGainedBytes != 2 {
		t.Errorf("taint gained = %d bytes (%v), want 2", d.TaintGainedBytes, d.TaintGained)
	}
	if d.TaintLostBytes != 0 {
		t.Errorf("taint lost = %d bytes, want 0", d.TaintLostBytes)
	}
}

func TestDiffNewlyDeadRule(t *testing.T) {
	a := captureFull(t, "w1")
	b := a.Clone()
	b.Audit.DeadRules = append([]string{}, a.Audit.DeadRules...)
	b.Audit.DeadRules = append(b.Audit.DeadRules, "branch clearance (HI) enabled but never checked")
	d := Diff(a, b)
	if !d.Regression() || len(d.NewlyDeadRules) != 1 {
		t.Errorf("newly dead rule not flagged: %s", d.JSON())
	}
	if rd := Diff(b, a); rd.Regression() || len(rd.RevivedRules) != 1 {
		t.Errorf("revived rule misreported: %s", rd.JSON())
	}
}

func TestFrontier(t *testing.T) {
	a := captureFull(t, "w1")
	b := variantSnapshot(t, "w2")

	f := b.Frontier(a)
	if !f.Contributes() {
		t.Fatal("variant contributes nothing")
	}
	if f.NewEdges != 1 || f.NewBlocks != 1 || f.NewTaintBytes != 2 {
		t.Errorf("frontier = %+v, want 1 edge, 1 block, 2 taint bytes", f)
	}
	if f.NewVerdicts != 1 { // w2's verdict is new against w1's
		t.Errorf("new verdicts = %d, want 1", f.NewVerdicts)
	}

	// Against nil everything is frontier; against itself nothing is.
	if f := a.Frontier(nil); f.NewEdges != a.EdgeCount() || !f.Contributes() {
		t.Errorf("frontier vs nil = %+v", f)
	}
	if f := a.Frontier(a); f.Contributes() {
		t.Errorf("frontier vs self contributes: %+v", f)
	}
}

func TestSpanAlgebra(t *testing.T) {
	spans := parseSpans([]string{"0x00000010-0x00000020", "0x00000018-0x00000030", "0x00000040-0x00000044"})
	if len(spans) != 2 || spans[0] != (span{0x10, 0x30}) || spans[1] != (span{0x40, 0x44}) {
		t.Fatalf("normalize = %v", spans)
	}
	if got := spanBytes(spans); got != 0x24 {
		t.Errorf("bytes = %#x, want 0x24", got)
	}
	rest := subtractSpans(spans, []span{{0x14, 0x42}})
	if len(rest) != 2 || rest[0] != (span{0x10, 0x14}) || rest[1] != (span{0x42, 0x44}) {
		t.Errorf("subtract = %v", rest)
	}
}

// TestReportDeterminism pins the satellite requirement: the heat and audit
// reports render identically on repeated invocations (no map-iteration
// ordering leaks), and DeadRules is globally sorted.
func TestReportDeterminism(t *testing.T) {
	c := fullCover(t)
	render := func() (string, string, string) {
		var heat, audit, guest bytes.Buffer
		if err := c.Taint.WriteHeat(&heat, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Audit.WriteReport(&audit); err != nil {
			t.Fatal(err)
		}
		if err := c.Guest.WriteReport(&guest, nil); err != nil {
			t.Fatal(err)
		}
		return heat.String(), audit.String(), guest.String()
	}
	h1, a1, g1 := render()
	h2, a2, g2 := render()
	if h1 != h2 || a1 != a2 || g1 != g2 {
		t.Error("reports differ across invocations")
	}
	dead := c.Audit.DeadRules()
	for i := 1; i < len(dead); i++ {
		if dead[i-1] > dead[i] {
			t.Errorf("DeadRules not sorted: %q > %q", dead[i-1], dead[i])
		}
	}
}
