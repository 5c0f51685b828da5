package core

import (
	"errors"
	"strings"
	"testing"
)

func testPolicy(t *testing.T) (*Policy, Tag, Tag) {
	t.Helper()
	l := IFP2()
	hi, li := l.MustTag(ClassHI), l.MustTag(ClassLI)
	p := NewPolicy(l, li).
		WithFetchClearance(hi).
		WithOutput("uart0.tx", li).
		WithRegion(RegionRule{
			Name: "pin", Start: 0x100, End: 0x104,
			Classify: true, Class: hi,
			CheckStore: true, Clearance: hi,
		})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p, hi, li
}

func TestPolicyClassifyAt(t *testing.T) {
	p, hi, li := testPolicy(t)
	if got := p.ClassifyAt(0x100); got != hi {
		t.Errorf("ClassifyAt(pin) = %d, want HI", got)
	}
	if got := p.ClassifyAt(0x103); got != hi {
		t.Errorf("ClassifyAt(pin end-1) = %d, want HI", got)
	}
	if got := p.ClassifyAt(0x104); got != li {
		t.Errorf("ClassifyAt(past pin) = %d, want default", got)
	}
	if got := p.ClassifyAt(0xff); got != li {
		t.Errorf("ClassifyAt(before pin) = %d, want default", got)
	}
}

func TestPolicyClassifyFirstRuleWins(t *testing.T) {
	l := IFP2()
	hi, li := l.MustTag(ClassHI), l.MustTag(ClassLI)
	p := NewPolicy(l, li).
		WithRegion(RegionRule{Name: "inner", Start: 0x10, End: 0x20, Classify: true, Class: hi}).
		WithRegion(RegionRule{Name: "outer", Start: 0x00, End: 0x100, Classify: true, Class: li})
	if got := p.ClassifyAt(0x10); got != hi {
		t.Errorf("first matching rule must win, got %d", got)
	}
}

func TestPolicyCheckStore(t *testing.T) {
	p, hi, li := testPolicy(t)
	counts := p.Count()
	if err := p.CheckStore(0x100, hi); err != nil {
		t.Errorf("HI store into pin must pass: %v", err)
	}
	if err := p.CheckStore(0x200, li); err != nil {
		t.Errorf("store outside protected region must pass: %v", err)
	}
	err := p.CheckStore(0x102, li)
	if err == nil {
		t.Fatal("LI store into HI-protected pin must be rejected")
	}
	var v *Violation
	if !errors.As(err, &v) || v.Kind != KindStoreClearance || v.Addr != 0x102 {
		t.Errorf("violation = %+v", err)
	}
	// Each store into the rule counts a check, the rejected one a
	// violation too; the store outside it checks no rule.
	if got := counts.Stores[0]; got != (PointCounts{Checks: 2, Violations: 1}) {
		t.Errorf("pin rule counts %+v, want 2 checks and 1 violation", got)
	}
}

func TestPolicyCheckStoreAllOverlappingRules(t *testing.T) {
	l, err := PerByteKeyIntegrity(2)
	if err != nil {
		t.Fatal(err)
	}
	li := l.MustTag(ClassLI)
	k0, k1 := l.MustTag("K0"), l.MustTag("K1")
	p := NewPolicy(l, li).
		WithRegion(RegionRule{Name: "pin0", Start: 0x100, End: 0x101, CheckStore: true, Clearance: k0}).
		WithRegion(RegionRule{Name: "pin1", Start: 0x101, End: 0x102, CheckStore: true, Clearance: k1})
	// Writing K0-classified data over PIN byte 1 is the entropy attack and
	// must be rejected.
	if err := p.CheckStore(0x101, k0); err == nil {
		t.Error("K0 data into K1 region must be rejected")
	}
	if err := p.CheckStore(0x101, k1); err != nil {
		t.Errorf("K1 data into K1 region must pass: %v", err)
	}
}

func TestPolicyValidate(t *testing.T) {
	l := IFP1() // 2 classes: tags 0, 1
	bad := Tag(9)
	cases := []struct {
		name string
		p    *Policy
	}{
		{"nil lattice", &Policy{}},
		{"bad default", NewPolicy(l, bad)},
		{"bad fetch", NewPolicy(l, 0).WithFetchClearance(bad)},
		{"bad branch", NewPolicy(l, 0).WithBranchClearance(bad)},
		{"bad memaddr", NewPolicy(l, 0).WithMemAddrClearance(bad)},
		{"bad output", NewPolicy(l, 0).WithOutput("p", bad)},
		{"bad region class", NewPolicy(l, 0).WithRegion(RegionRule{Name: "r", Start: 0, End: 4, Classify: true, Class: bad})},
		{"bad region clearance", NewPolicy(l, 0).WithRegion(RegionRule{Name: "r", Start: 0, End: 4, CheckStore: true, Clearance: bad})},
		{"empty region", NewPolicy(l, 0).WithRegion(RegionRule{Name: "r", Start: 4, End: 4})},
		{"inverted region", NewPolicy(l, 0).WithRegion(RegionRule{Name: "r", Start: 8, End: 4})},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate must fail", c.name)
		}
	}
	good := NewPolicy(l, 0).
		WithFetchClearance(1).WithBranchClearance(0).WithMemAddrClearance(0).
		WithOutput("p", 1).
		WithRegion(RegionRule{Name: "r", Start: 0, End: 4, Classify: true, CheckStore: true, Clearance: 1})
	if err := good.Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

func TestPolicyWithOutputOnZeroValue(t *testing.T) {
	var p Policy
	p.L = IFP1()
	p.WithOutput("x", 0) // must allocate the map
	if _, ok := p.OutputClearance("x"); !ok {
		t.Error("WithOutput on zero-value policy lost the entry")
	}
}

func TestViolationKindStrings(t *testing.T) {
	kinds := []ViolationKind{
		KindOutputClearance, KindFetchClearance, KindBranchClearance,
		KindMemAddrClearance, KindStoreClearance, ViolationKind(99),
	}
	want := []string{
		"output-clearance", "fetch-clearance", "branch-clearance",
		"mem-addr-clearance", "store-clearance", "violation-kind(99)",
	}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d String() = %q, want %q", i, k.String(), want[i])
		}
	}
}

func TestViolationErrorMessage(t *testing.T) {
	l := IFP2()
	v := NewViolation(l, KindFetchClearance, l.MustTag(ClassLI), l.MustTag(ClassHI)).
		WithPC(0x80000010).WithAddr(0x2000).WithValue(0x1234)
	msg := v.Error()
	for _, want := range []string{"fetch-clearance", "LI", "HI", "0x80000010", "0x00002000"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
	// A violation without a bound lattice still prints.
	raw := &Violation{Kind: KindStoreClearance, Have: 3, Required: 1}
	if !strings.Contains(raw.Error(), "tag 3") {
		t.Errorf("unbound violation error = %q", raw.Error())
	}
}
