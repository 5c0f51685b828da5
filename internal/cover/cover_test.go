package cover

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
)

const (
	nop    = 0x00000013 // addi x0, x0, 0
	beqP8  = 0x00000463 // beq x0, x0, +8
	jalP8  = 0x0080006f // jal x0, +8
	base   = 0x80000000
	ramLen = 0x100
)

// testImage builds a six-instruction image by hand:
//
//	0x00 main: nop
//	0x04       beq +8      -> 0x0c taken, 0x08 fall-through
//	0x08       nop
//	0x0c tail: jal +8      -> 0x14
//	0x10       nop
//	0x14       nop
func testImage() *asm.Image {
	words := []uint32{nop, beqP8, nop, jalP8, nop, nop}
	text := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(text[4*i:], w)
	}
	return &asm.Image{
		Base: base, Text: text, Entry: base,
		DataAddr: base + uint32(len(text)), BSSAddr: base + uint32(len(text)),
		Symbols: map[string]uint32{"main": base, "tail": base + 0x0c},
	}
}

// retire replays the taken path through the test image.
func retire(g *GuestCov) {
	g.OnRetire(base+0x00, nop, base+0x04)
	g.OnRetire(base+0x04, beqP8, base+0x0c) // taken
	g.OnRetire(base+0x0c, jalP8, base+0x14)
	g.OnRetire(base+0x14, nop, base+0x18)
}

func TestImmediateExtractors(t *testing.T) {
	if got := bImm(beqP8); got != 8 {
		t.Errorf("bImm(beq +8) = %d", got)
	}
	if got := jImm(jalP8); got != 8 {
		t.Errorf("jImm(jal +8) = %d", got)
	}
	// Negative offsets must sign-extend: beq x0, x0, -4 assembles with
	// imm[12]=1, imm[11]=1, imm[10:5]=0x3f, imm[4:1]=0xe.
	beqM4 := uint32(1)<<31 | uint32(0x3f)<<25 | uint32(0xe)<<8 | uint32(1)<<7 | 0x63
	if got := bImm(beqM4); got != -4 {
		t.Errorf("bImm(beq -4) = %d", got)
	}
	jalM4 := uint32(1)<<31 | uint32(0xff)<<12 | uint32(1)<<20 | uint32(0x3fe)<<21 | 0x6f
	if got := jImm(jalM4); got != -4 {
		t.Errorf("jImm(jal -4) = %d", got)
	}
}

func TestGuestCountsAndEdges(t *testing.T) {
	g := NewGuest()
	g.Configure(base, ramLen)
	g.SetImage(testImage())
	retire(g)

	if got := g.Count(base + 0x04); got != 1 {
		t.Errorf("Count(branch) = %d, want 1", got)
	}
	if got := g.Count(base + 0x08); got != 0 {
		t.Errorf("Count(fall-through) = %d, want 0", got)
	}
	if got := g.EdgeCount(base+0x04, base+0x0c); got != 1 {
		t.Errorf("taken edge count = %d, want 1", got)
	}
	if got := g.EdgeCount(base+0x04, base+0x08); got != 0 {
		t.Errorf("not-taken edge count = %d, want 0", got)
	}

	s := g.Stats()
	if s.Insns != 6 || s.InsnsCovered != 4 {
		t.Errorf("insns %d/%d, want 4/6", s.InsnsCovered, s.Insns)
	}
	// Leaders: entry 0x00, fall-through 0x08, branch target/function 0x0c,
	// post-jal 0x10, jal target 0x14.
	if s.Blocks != 5 || s.BlocksCovered != 3 {
		t.Errorf("blocks %d/%d, want 3/5", s.BlocksCovered, s.Blocks)
	}
	// Static edges: branch taken, branch fall-through, jal target.
	if s.Edges != 3 || s.EdgesCovered != 2 {
		t.Errorf("edges %d/%d, want 2/3", s.EdgesCovered, s.Edges)
	}
	if s.DynOnlyEdges != 0 {
		t.Errorf("dyn-only edges = %d, want 0", s.DynOnlyEdges)
	}

	// An indirect transfer (next != pc+4 from a non-branch) records a
	// dynamic-only edge the static CFG cannot know.
	g.OnRetire(base+0x14, nop, base)
	if s := g.Stats(); s.DynOnlyEdges != 1 {
		t.Errorf("after indirect: dyn-only edges = %d, want 1", s.DynOnlyEdges)
	}
}

func TestGuestReportAndLcov(t *testing.T) {
	g := NewGuest()
	g.Configure(base, ramLen)
	g.SetImage(testImage())
	retire(g)
	// Execute one word outside the image (injected code).
	g.OnRetire(base+0x40, nop, base+0x44)

	var rep bytes.Buffer
	if err := g.WriteReport(&rep, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"guest coverage:", "main:", "tail:", "per-function coverage:",
		"executed outside the image",
	} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, rep.String())
		}
	}

	var info bytes.Buffer
	if err := g.WriteLcov(&info, "prog.s"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"SF:prog.s", "FN:1,main", "FN:4,tail", "FNDA:1,main",
		"FNF:2", "FNH:2", "DA:1,1", "DA:3,0", "LF:6", "LH:4", "end_of_record",
	} {
		if !strings.Contains(info.String(), want) {
			t.Errorf("lcov lacks %q:\n%s", want, info.String())
		}
	}
}

func TestTaintHeatmap(t *testing.T) {
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	tc := NewTaint()
	tc.Configure(base, 64, l, lc)

	tc.OnStore(base+8, 4, hc)
	if got := tc.EverTainted(); got != 4 {
		t.Errorf("ever tainted = %d, want 4", got)
	}
	if got := tc.ChurnTotal(); got != 4 {
		t.Errorf("churn = %d, want 4", got)
	}
	// Same tag again: no churn, no new ever-tainted bytes.
	tc.OnStore(base+8, 4, hc)
	if got := tc.ChurnTotal(); got != 4 {
		t.Errorf("churn after idempotent store = %d, want 4", got)
	}
	// Reverting to the default churns but does not grow the ever set.
	tc.OnStore(base+8, 4, lc)
	if got, ever := tc.ChurnTotal(), tc.EverTainted(); got != 8 || ever != 4 {
		t.Errorf("after revert: churn %d ever %d, want 8 and 4", got, ever)
	}
	// Bus-initiated writes feed the same map.
	tc.OnMemWrite([]core.TByte{{V: 1, T: hc}}, 0)
	if got := tc.EverTainted(); got != 5 {
		t.Errorf("after mem write: ever tainted = %d, want 5", got)
	}
	// Out-of-window stores are ignored.
	tc.OnStore(base+1000, 4, hc)
	if got := tc.EverTainted(); got != 5 {
		t.Errorf("out-of-window store changed the map: %d", got)
	}

	tc.OnRetire(5, hc)
	tc.OnRetire(0, lc)

	var heat bytes.Buffer
	if err := tc.WriteHeat(&heat, func(addr uint32) string { return "sym" }); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"taint heatmap: 5 bytes", "x5   100.00%", "<sym>", "HC"} {
		if !strings.Contains(heat.String(), want) {
			t.Errorf("heat report lacks %q:\n%s", want, heat.String())
		}
	}
}

func TestTaintInitFromRAMSeedsWithoutChurn(t *testing.T) {
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	tc := NewTaint()
	tc.Configure(base, 16, l, lc)
	data := make([]core.TByte, 16)
	data[3].T = hc
	tc.InitFromRAM(data, 0)
	if got := tc.EverTainted(); got != 1 {
		t.Errorf("ever tainted = %d, want 1", got)
	}
	if got := tc.ChurnTotal(); got != 0 {
		t.Errorf("classification seeding counted as churn: %d", got)
	}
}

func TestAuditCountsAndDeadRules(t *testing.T) {
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "guarded", Start: base, End: base + 16,
			CheckStore: true, Clearance: hi,
		}).
		WithOutput("uart0.tx", li)

	a := NewAudit()
	if a.Configured() {
		t.Fatal("unconfigured audit claims to be configured")
	}
	enf := pol.Count()
	a.Configure(pol, l.Count(), enf)

	// The lattice now feeds the pair matrices.
	l.LUB(hi, li)
	if !l.AllowedFlow(hi, li) {
		t.Fatal("IFP2 must allow HI -> LI")
	}
	// The policy's store check counts into the enforcement set, which the
	// audit reads.
	if err := pol.CheckStore(base+4, hi); err != nil { // inside the guarded region
		t.Fatal(err)
	}
	if err := pol.CheckStore(base+64, li); err != nil {
		t.Fatal(err)
	}
	enf.Fetch = core.PointCounts{Checks: 1, Violations: 1}
	points := a.Points()
	if got := points["region:guarded"]; got != (PointStat{Checks: 1}) {
		t.Errorf("region point = %+v, want 1 check", got)
	}
	if got := points["exec:fetch"]; got != (PointStat{Checks: 1, Violations: 1}) {
		t.Errorf("fetch point = %+v, want 1 check and 1 violation", got)
	}
	if got, ok := points["output:uart0.tx"]; !ok || got != (PointStat{}) {
		t.Errorf("output point = %+v (listed %v), want listed and zero", got, ok)
	}

	dead := a.DeadRules()
	joined := strings.Join(dead, "\n")
	if !strings.Contains(joined, `output clearance on "uart0.tx"`) {
		t.Errorf("dead rules miss the unexercised output: %q", dead)
	}
	if strings.Contains(joined, "fetch clearance") || strings.Contains(joined, `region "guarded"`) {
		t.Errorf("dead rules flag exercised points: %q", dead)
	}

	// Report generation must not pollute the counters: its verdicts read
	// the lattice closure uncounted.
	var before uint64
	for _, c := range a.flowPair {
		before += c
	}
	var rep bytes.Buffer
	if err := a.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	var after uint64
	for _, c := range a.flowPair {
		after += c
	}
	if before != after {
		t.Errorf("WriteReport changed flow counters: %d -> %d", before, after)
	}
	if !strings.Contains(rep.String(), "policy audit") {
		t.Errorf("report:\n%s", rep.String())
	}

	var js bytes.Buffer
	if err := a.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"classes"`, `"flow"`, `"dead_rules"`, `"uart0.tx"`, `"guarded"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("audit JSON lacks %q:\n%s", want, js.String())
		}
	}
}

func TestCoverActive(t *testing.T) {
	var nilCover *Cover
	if nilCover.Active() {
		t.Error("nil cover is active")
	}
	if (&Cover{}).Active() {
		t.Error("empty cover is active")
	}
	if !(&Cover{Guest: NewGuest()}).Active() {
		t.Error("guest-only cover is inactive")
	}
	c := New()
	if c.Guest == nil || c.Taint == nil || c.Audit == nil || !c.Active() {
		t.Error("New() must populate all three views")
	}
}
