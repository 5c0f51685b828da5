package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestIFP1Flows(t *testing.T) {
	l := IFP1()
	lc, hc := l.MustTag(ClassLC), l.MustTag(ClassHC)
	if !l.AllowedFlow(lc, hc) {
		t.Error("LC -> HC must be allowed")
	}
	if l.AllowedFlow(hc, lc) {
		t.Error("HC -> LC must be forbidden (confidential data must not leak)")
	}
	if !l.AllowedFlow(lc, lc) || !l.AllowedFlow(hc, hc) {
		t.Error("flows must be reflexive")
	}
}

func TestIFP2Flows(t *testing.T) {
	l := IFP2()
	hi, li := l.MustTag(ClassHI), l.MustTag(ClassLI)
	if !l.AllowedFlow(hi, li) {
		t.Error("HI -> LI must be allowed")
	}
	if l.AllowedFlow(li, hi) {
		t.Error("LI -> HI must be forbidden (untrusted data must not influence trusted sinks)")
	}
}

func TestIFP3LUBPaperExample(t *testing.T) {
	// Paper, Example 1: "in IFP-3 the LUB of A=(LC,LI) and B=(HC,HI) is
	// C=(HC,LI)".
	l := IFP3()
	a := l.MustTag("(LC,LI)")
	b := l.MustTag("(HC,HI)")
	want := l.MustTag("(HC,LI)")
	if got := l.LUB(a, b); got != want {
		t.Errorf("LUB((LC,LI),(HC,HI)) = %s, want (HC,LI)", l.Name(got))
	}
	if got := l.LUB(b, a); got != want {
		t.Errorf("LUB must be commutative; got %s", l.Name(got))
	}
}

func TestIFP3Flows(t *testing.T) {
	l := IFP3()
	lcHI := l.MustTag("(LC,HI)")
	lcLI := l.MustTag("(LC,LI)")
	hcHI := l.MustTag("(HC,HI)")
	hcLI := l.MustTag("(HC,LI)")

	cases := []struct {
		from, to Tag
		want     bool
	}{
		{lcHI, lcLI, true},  // losing integrity is fine
		{lcHI, hcHI, true},  // gaining confidentiality requirement is fine
		{lcHI, hcLI, true},  // both
		{hcHI, lcLI, false}, // confidential data to public+untrusted sink
		{hcHI, lcHI, false}, // confidential data to public sink
		{lcLI, lcHI, false}, // untrusted data to trusted sink
		{lcLI, hcHI, false}, // untrusted data to trusted sink
		{hcLI, hcHI, false}, // untrusted data to trusted sink
		{hcLI, lcLI, false}, // confidential to public
		{hcHI, hcLI, true},  // trusted confidential to untrusted confidential
		{lcLI, hcLI, true},
	}
	for _, c := range cases {
		if got := l.AllowedFlow(c.from, c.to); got != c.want {
			t.Errorf("AllowedFlow(%s, %s) = %v, want %v", l.Name(c.from), l.Name(c.to), got, c.want)
		}
	}
}

func TestIFP3IsProductOfComponents(t *testing.T) {
	// A flow is allowed in IFP-3 iff allowed in IFP-1 and IFP-2 componentwise.
	l3, l1, l2 := IFP3(), IFP1(), IFP2()
	for _, c1 := range l1.Classes() {
		for _, i1 := range l2.Classes() {
			for _, c2 := range l1.Classes() {
				for _, i2 := range l2.Classes() {
					from := l3.MustTag("(" + c1 + "," + i1 + ")")
					to := l3.MustTag("(" + c2 + "," + i2 + ")")
					want := l1.AllowedFlow(l1.MustTag(c1), l1.MustTag(c2)) &&
						l2.AllowedFlow(l2.MustTag(i1), l2.MustTag(i2))
					if got := l3.AllowedFlow(from, to); got != want {
						t.Errorf("AllowedFlow(%s,%s) = %v, want %v", l3.Name(from), l3.Name(to), got, want)
					}
				}
			}
		}
	}
}

func TestLatticeRejectsCycle(t *testing.T) {
	_, err := NewLattice([]string{"A", "B"}, [][2]string{{"A", "B"}, {"B", "A"}})
	if err == nil {
		t.Fatal("cyclic flow relation must be rejected")
	}
}

func TestLatticeRejectsMissingJoin(t *testing.T) {
	// Two incomparable classes with no common upper bound.
	_, err := NewLattice([]string{"A", "B"}, nil)
	if err == nil {
		t.Fatal("order without joins must be rejected")
	}
}

func TestLatticeRejectsAmbiguousJoin(t *testing.T) {
	// A and B both flow to two incomparable upper bounds T1, T2: no least
	// upper bound. (Add a top above T1, T2 so that {T1,T2} has a join but
	// {A,B} still has two minimal upper bounds.)
	_, err := NewLattice(
		[]string{"A", "B", "T1", "T2", "TOP"},
		[][2]string{
			{"A", "T1"}, {"A", "T2"},
			{"B", "T1"}, {"B", "T2"},
			{"T1", "TOP"}, {"T2", "TOP"},
		})
	if err == nil || !strings.Contains(err.Error(), "least upper bound") {
		t.Fatalf("ambiguous join must be rejected, got %v", err)
	}
}

func TestLatticeRejectsBadInput(t *testing.T) {
	if _, err := NewLattice(nil, nil); err == nil {
		t.Error("empty class list must be rejected")
	}
	if _, err := NewLattice([]string{"A", "A"}, nil); err == nil {
		t.Error("duplicate class must be rejected")
	}
	if _, err := NewLattice([]string{"A", ""}, nil); err == nil {
		t.Error("empty class name must be rejected")
	}
	if _, err := NewLattice([]string{"A"}, [][2]string{{"A", "Z"}}); err == nil {
		t.Error("edge to unknown class must be rejected")
	}
	if _, err := NewLattice([]string{"A"}, [][2]string{{"Z", "A"}}); err == nil {
		t.Error("edge from unknown class must be rejected")
	}
}

func TestTagOfAndName(t *testing.T) {
	l := IFP2()
	hi, ok := l.TagOf(ClassHI)
	if !ok {
		t.Fatal("HI must exist in IFP2")
	}
	if l.Name(hi) != ClassHI {
		t.Errorf("Name(TagOf(HI)) = %q", l.Name(hi))
	}
	if _, ok := l.TagOf("NOPE"); ok {
		t.Error("unknown class must not resolve")
	}
	if got := l.Name(Tag(250)); !strings.Contains(got, "invalid") {
		t.Errorf("Name of invalid tag = %q", got)
	}
}

func TestMustTagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTag of unknown class must panic")
		}
	}()
	IFP1().MustTag("NOPE")
}

func TestPerByteKeyIntegrity(t *testing.T) {
	l, err := PerByteKeyIntegrity(4)
	if err != nil {
		t.Fatal(err)
	}
	hi, li := l.MustTag(ClassHI), l.MustTag(ClassLI)
	k0, k1 := l.MustTag("K0"), l.MustTag("K1")

	if l.AllowedFlow(k0, k1) || l.AllowedFlow(k1, k0) {
		t.Error("distinct key-byte classes must be incomparable (this is the entropy-attack fix)")
	}
	if !l.AllowedFlow(k0, hi) || !l.AllowedFlow(k0, li) {
		t.Error("key bytes are trusted: K0 -> HI -> LI must be allowed")
	}
	if l.AllowedFlow(hi, k0) || l.AllowedFlow(li, k0) {
		t.Error("nothing may flow into a key-byte class at runtime")
	}
	if got := l.LUB(k0, k1); got != hi {
		t.Errorf("LUB(K0, K1) = %s, want HI", l.Name(got))
	}
	if _, err := PerByteKeyIntegrity(0); err == nil {
		t.Error("zero-byte key must be rejected")
	}
}

func TestProductSizeLimit(t *testing.T) {
	classes := make([]string, 17)
	var edges [][2]string
	classes[16] = "TOP"
	for i := 0; i < 16; i++ {
		classes[i] = string(rune('a' + i))
		edges = append(edges, [2]string{classes[i], "TOP"})
	}
	// Chain them so joins exist: a->b->...->TOP.
	for i := 0; i+1 < 16; i++ {
		edges = append(edges, [2]string{classes[i], classes[i+1]})
	}
	l, err := NewLattice(classes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Product(l, l); err == nil {
		t.Error("product with > MaxClasses classes must be rejected")
	}
}

func TestLatticeString(t *testing.T) {
	s := IFP1().String()
	if !strings.Contains(s, "LC->HC") {
		t.Errorf("String() = %q, want it to mention LC->HC", s)
	}
	one := MustNewLattice([]string{"ONLY"}, nil)
	if !strings.Contains(one.String(), "(none)") {
		t.Errorf("String() of flowless lattice = %q", one.String())
	}
}

// latticesUnderTest returns a set of structurally different valid lattices
// for property tests.
func latticesUnderTest(t *testing.T) []*Lattice {
	t.Helper()
	perByte, err := PerByteKeyIntegrity(4)
	if err != nil {
		t.Fatal(err)
	}
	diamond := MustNewLattice(
		[]string{"BOT", "L", "R", "TOP"},
		[][2]string{{"BOT", "L"}, {"BOT", "R"}, {"L", "TOP"}, {"R", "TOP"}})
	chain := MustNewLattice(
		[]string{"C0", "C1", "C2", "C3", "C4"},
		[][2]string{{"C0", "C1"}, {"C1", "C2"}, {"C2", "C3"}, {"C3", "C4"}})
	return []*Lattice{IFP1(), IFP2(), IFP3(), perByte, diamond, chain}
}

// clamp maps an arbitrary byte into a valid tag of l.
func clamp(l *Lattice, raw uint8) Tag { return Tag(int(raw) % l.Size()) }

func TestPropertyLUBCommutative(t *testing.T) {
	for _, l := range latticesUnderTest(t) {
		f := func(a, b uint8) bool {
			x, y := clamp(l, a), clamp(l, b)
			return l.LUB(x, y) == l.LUB(y, x)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("lattice %s: LUB not commutative: %v", l, err)
		}
	}
}

func TestPropertyLUBAssociative(t *testing.T) {
	for _, l := range latticesUnderTest(t) {
		f := func(a, b, c uint8) bool {
			x, y, z := clamp(l, a), clamp(l, b), clamp(l, c)
			return l.LUB(l.LUB(x, y), z) == l.LUB(x, l.LUB(y, z))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("lattice %s: LUB not associative: %v", l, err)
		}
	}
}

func TestPropertyLUBIdempotentAndUpperBound(t *testing.T) {
	for _, l := range latticesUnderTest(t) {
		f := func(a, b uint8) bool {
			x, y := clamp(l, a), clamp(l, b)
			j := l.LUB(x, y)
			return l.LUB(x, x) == x && // idempotent
				l.AllowedFlow(x, j) && l.AllowedFlow(y, j) // upper bound
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("lattice %s: LUB upper-bound property failed: %v", l, err)
		}
	}
}

func TestPropertyLUBIsLeast(t *testing.T) {
	// For every upper bound u of {x, y}, LUB(x,y) -> u.
	for _, l := range latticesUnderTest(t) {
		n := l.Size()
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				j := l.LUB(Tag(x), Tag(y))
				for u := 0; u < n; u++ {
					if l.AllowedFlow(Tag(x), Tag(u)) && l.AllowedFlow(Tag(y), Tag(u)) &&
						!l.AllowedFlow(j, Tag(u)) {
						t.Errorf("lattice %s: LUB(%s,%s)=%s is not least (bound %s)",
							l, l.Name(Tag(x)), l.Name(Tag(y)), l.Name(j), l.Name(Tag(u)))
					}
				}
			}
		}
	}
}

func TestPropertyFlowTransitive(t *testing.T) {
	for _, l := range latticesUnderTest(t) {
		f := func(a, b, c uint8) bool {
			x, y, z := clamp(l, a), clamp(l, b), clamp(l, c)
			if l.AllowedFlow(x, y) && l.AllowedFlow(y, z) {
				return l.AllowedFlow(x, z)
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("lattice %s: flow relation not transitive: %v", l, err)
		}
	}
}

func TestPropertyFlowMonotoneUnderLUB(t *testing.T) {
	// If x -> t and y -> t then LUB(x,y) -> t: joining data never makes a
	// previously-forbidden flow allowed, and vice versa joining cannot lose a
	// clearance both inputs had.
	for _, l := range latticesUnderTest(t) {
		f := func(a, b, c uint8) bool {
			x, y, sink := clamp(l, a), clamp(l, b), clamp(l, c)
			j := l.LUB(x, y)
			if l.AllowedFlow(x, sink) && l.AllowedFlow(y, sink) {
				return l.AllowedFlow(j, sink)
			}
			// If either input may not flow to the sink, the join may not
			// either (the join is above both inputs).
			return !l.AllowedFlow(j, sink) || (l.AllowedFlow(x, sink) && l.AllowedFlow(y, sink))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("lattice %s: LUB/flow monotonicity failed: %v", l, err)
		}
	}
}

func TestLatticeDOT(t *testing.T) {
	dot := IFP1().DOT("IFP-1")
	for _, want := range []string{`digraph "IFP-1"`, `"LC" -> "HC"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// IFP-3's DOT must contain only covering edges: the diagonal
	// (LC,HI) -> (HC,LI) is implied via intermediates and must be absent.
	dot3 := IFP3().DOT("IFP-3")
	if strings.Contains(dot3, `"(LC,HI)" -> "(HC,LI)"`) {
		t.Error("DOT must show the transitive reduction only")
	}
	for _, want := range []string{
		`"(LC,HI)" -> "(HC,HI)"`,
		`"(LC,HI)" -> "(LC,LI)"`,
		`"(HC,HI)" -> "(HC,LI)"`,
		`"(LC,LI)" -> "(HC,LI)"`,
	} {
		if !strings.Contains(dot3, want) {
			t.Errorf("DOT missing covering edge %q", want)
		}
	}
}
