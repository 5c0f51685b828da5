package immo

import (
	"bytes"
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/soc"
)

// TestPolicyAuditFlagsDeadRules reproduces the policy-validation workflow:
// run the legitimate authentication under a deliberately over-broad policy
// and let the audit report the rules that were never exercised. The extra
// rule protects a region the firmware never stores to, so the audit must
// flag it — this is exactly how a policy developer spots rules that either
// guard nothing or were never tested.
func TestPolicyAuditFlagsDeadRules(t *testing.T) {
	img := Firmware(VariantFixed)
	pol := BasePolicy(img)
	hcHI := pol.L.MustTag("(HC,HI)")
	scratch := img.MustSymbol("immo_pin") + 16
	pol.WithRegion(core.RegionRule{
		Name: "overbroad-scratch", Start: scratch, End: scratch + 4,
		CheckStore: true, Clearance: hcHI,
	})

	cov := &cover.Cover{Audit: cover.NewAudit()}
	pl, err := soc.New(soc.Config{Policy: pol, Cover: cov})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	e := &ECU{Platform: pl, Image: img}
	challenge := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	resp, err := e.Authenticate(challenge)
	if err != nil {
		t.Fatal(err)
	}
	if resp != Expected(challenge) {
		t.Fatal("authentication failed under the over-broad policy")
	}

	dead := cov.Audit.DeadRules()
	if len(dead) == 0 {
		t.Fatal("audit reports no dead rules on an over-broad policy")
	}
	found := false
	for _, d := range dead {
		if strings.Contains(d, "overbroad-scratch") {
			found = true
		}
	}
	if !found {
		t.Errorf("dead rules %q do not flag the over-broad region rule", dead)
	}

	// The exercised side of the audit must show activity: branch and
	// mem-addr clearances are enabled and checked on every branch and
	// memory access.
	points := cov.Audit.Points()
	if points["exec:branch"].Checks == 0 || points["exec:mem-addr"].Checks == 0 {
		t.Errorf("enabled clearance points show no checks: branch=%d memaddr=%d",
			points["exec:branch"].Checks, points["exec:mem-addr"].Checks)
	}

	// Both renderings must carry the dead rule.
	var report, js bytes.Buffer
	if err := cov.Audit.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	if err := cov.Audit.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{report.String(), js.String()} {
		if !strings.Contains(out, "overbroad-scratch") {
			t.Errorf("rendering does not mention the dead rule:\n%s", out)
		}
	}
}

// TestPolicyAuditViolationAttribution checks that a terminal violation is
// attributed to its clearance point: the 'o' attack (override the PIN with
// external data) must land on the pin region's store rule.
func TestPolicyAuditViolationAttribution(t *testing.T) {
	cov := &cover.Cover{Audit: cover.NewAudit()}
	e, err := NewECUWithConfig(VariantFixed, PolicyBase, ECUConfig{Cover: cov})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	wantViolation(t, e.Command('o', 0x42), core.KindStoreClearance)

	var js bytes.Buffer
	if err := cov.Audit.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"violations": 1`) {
		t.Errorf("audit JSON records no violation:\n%s", js.String())
	}
}
