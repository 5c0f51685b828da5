package main

import (
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/soc"
)

// -taintmap prints the same census every time for the same run: the
// classes come out in name order, not in map-iteration order.
func TestTaintMapOrderIsFixed(t *testing.T) {
	img, err := guest.Program("main:\n\tli a0, 0\n\tret\n\t.data\nsecret:\n\t.word 42\n")
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := img.Symbol("secret")
	if !ok {
		t.Fatal("no secret symbol")
	}
	l := core.IFP1()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLC)).WithRegion(core.RegionRule{
		Name: "secret", Start: addr, End: addr + 4, Classify: true, Class: l.MustTag(core.ClassHC),
	})
	pl, err := soc.New(soc.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	if n := len(pl.TaintSummary()); n != 2 {
		t.Fatalf("census has %d classes, want 2: %v", n, pl.TaintSummary())
	}
	var first string
	for i := 0; i < 20; i++ {
		var b strings.Builder
		writeTaintMap(&b, pl)
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i, b.String(), first)
		}
	}
	if !strings.Contains(first, "  HC") || strings.Index(first, "  HC") > strings.Index(first, "  LC") {
		t.Errorf("census not in class-name order:\n%s", first)
	}
}
