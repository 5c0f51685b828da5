package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/cover"
)

// syntheticSnapshot builds a deterministic per-cell coverage snapshot
// through the real capture path: a guest view with one shared block and one
// cell-unique edge, plus a policy audit whose output rule is exercised only
// for even-length workload names — so dead-rule intersections have content.
func syntheticSnapshot(workload, policy string) *cover.Snapshot {
	c := cover.New()
	c.Guest.Configure(0x80000000, 0x1000)
	var sum uint32
	for _, b := range []byte(workload + "|" + policy) {
		sum = sum*31 + uint32(b)
	}
	pc := 0x80000100 + (sum%64)*8
	c.Guest.OnRetire(0x80000000, 0, 0x80000004) // shared straight-line hit
	c.Guest.OnRetire(pc, 0, pc+8)               // cell-unique edge

	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	pol := core.NewPolicy(l, li).WithFetchClearance(hi).WithOutput("uart0.tx", li)
	enf := pol.Count()
	c.Audit.Configure(pol, l.Count(), enf)
	l.LUB(hi, li)
	enf.Fetch.Checks++
	if len(workload)%2 == 0 {
		enf.Port("uart0.tx").Checks++
	}
	return cover.Capture(c,
		cover.RunID{Workload: workload, Policy: policy, Image: "stub", PolicyID: "stub-pol"},
		&cover.Verdict{Workload: workload, Policy: policy, Exited: true})
}

// fetchCellSnapshots pulls every cell result and returns the snapshots in
// index order.
func fetchCellSnapshots(t *testing.T, base, id string, want int) []*cover.Snapshot {
	t.Helper()
	r := doJSON(t, http.MethodGet, base+"/api/v1/campaigns/"+id+"/results?limit=1000", nil)
	if r.status != http.StatusOK {
		t.Fatalf("results: status = %d (%+v)", r.status, r.Error)
	}
	var page struct {
		Cells []CellInfo `json:"cells"`
	}
	if err := json.Unmarshal(r.Data, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(page.Cells), want)
	}
	snaps := make([]*cover.Snapshot, 0, want)
	for _, cell := range page.Cells {
		if cell.Result == nil || cell.Result.Cover == nil {
			t.Fatalf("cell %d has no coverage snapshot", cell.Index)
		}
		snaps = append(snaps, cell.Result.Cover)
	}
	return snaps
}

func TestCampaignCoverageRollup(t *testing.T) {
	f := newGateFactory()
	sv := NewServer(WithFactory(f), WithWorkers(4))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/campaigns", CampaignSpec{
		ID:        "cov",
		Policies:  []string{"p1", "p2"},
		Workloads: []string{"wa", "wbx"}, // wa exercises the output rule, wbx leaves it dead
		Cover:     true,
	})
	if r.status != http.StatusCreated {
		t.Fatalf("create: status = %d (%+v)", r.status, r.Error)
	}
	waitCampaignDone(t, ts.URL, "cov", 4)

	// The rollup's merged snapshot must be bit-identical to the offline
	// fold of the per-cell snapshots in index order.
	snaps := fetchCellSnapshots(t, ts.URL, "cov", 4)
	offline, err := cover.MergeAll(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/cov/coverage?format=snapshot")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coverage snapshot: status = %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Equal(raw, offline.JSON()) {
		t.Errorf("served merge differs from offline merge:\n--- served ---\n%s\n--- offline ---\n%s", raw, offline.JSON())
	}

	// The enveloped rollup: every cell covered, the dead-rule intersection
	// a subset of every cell's own dead rules, and per-cell frontiers with
	// the first cell contributing everything it has.
	rr := doJSON(t, http.MethodGet, ts.URL+"/api/v1/campaigns/cov/coverage", nil)
	if rr.status != http.StatusOK {
		t.Fatalf("coverage: status = %d (%+v)", rr.status, rr.Error)
	}
	var cc campaignCoverage
	if err := json.Unmarshal(rr.Data, &cc); err != nil {
		t.Fatal(err)
	}
	if cc.CoveredCells != 4 || len(cc.Frontier) != 4 || len(cc.MergeErrors) != 0 {
		t.Fatalf("rollup = covered %d, frontier %d, errors %v", cc.CoveredCells, len(cc.Frontier), cc.MergeErrors)
	}
	for _, dead := range cc.DeadRules {
		for i, s := range snaps {
			found := false
			for _, d := range s.Audit.DeadRules {
				if d == dead {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("merged dead rule %q not dead in cell %d", dead, i)
			}
		}
	}
	// "wa" cells exercised the output rule, so it must NOT survive the
	// intersection even though "wbx" cells left it dead.
	if joined := strings.Join(cc.DeadRules, "\n"); strings.Contains(joined, "uart0.tx") {
		t.Errorf("intersection kept a rule exercised in half the cells: %v", cc.DeadRules)
	}
	// Per-policy intersection: each policy row has one wa and one wbx cell,
	// so the output rule dies in neither row's intersection.
	for pol, dead := range cc.DeadRulesByPolicy {
		if joined := strings.Join(dead, "\n"); strings.Contains(joined, "uart0.tx") {
			t.Errorf("policy %s intersection kept exercised rule: %v", pol, dead)
		}
	}
	if f0 := cc.Frontier[0]; !f0.Frontier.Contributes() || f0.Frontier.NewEdges != snaps[0].EdgeCount() {
		t.Errorf("first cell frontier = %+v, want all %d edges new", f0.Frontier, snaps[0].EdgeCount())
	}

	// Rollup gauges on /metrics, labeled by campaign.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`vpdift_campaign_edges_total{campaign="cov"}`,
		`vpdift_campaign_frontier_cells{campaign="cov"}`,
		`vpdift_campaign_dead_rules{campaign="cov"}`,
		"# TYPE vpdift_campaign_edges_total gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

func TestCampaignCoverageDiff(t *testing.T) {
	f := newGateFactory()
	sv := NewServer(WithFactory(f), WithWorkers(4))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	mk := func(id string, workloads ...string) {
		r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/campaigns", CampaignSpec{
			ID: id, Policies: []string{"p1"}, Workloads: workloads, Cover: true,
		})
		if r.status != http.StatusCreated {
			t.Fatalf("create %s: status = %d (%+v)", id, r.status, r.Error)
		}
		waitCampaignDone(t, ts.URL, id, len(workloads))
	}
	mk("small", "wa")
	mk("big", "wa", "wbx")

	// big adds wbx's coverage over small: progress, not a regression.
	r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/campaigns/big/coverage/diff?against=small", nil)
	if r.status != http.StatusOK {
		t.Fatalf("diff: status = %d (%+v)", r.status, r.Error)
	}
	var d campaignCoverageDiff
	if err := json.Unmarshal(r.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Regression || len(d.Diff.NewEdges) == 0 || len(d.Diff.LostEdges) != 0 {
		t.Errorf("big vs small: %s", d.Diff.JSON())
	}

	// The reverse direction loses wbx's edge: a regression.
	r = doJSON(t, http.MethodGet, ts.URL+"/api/v1/campaigns/small/coverage/diff?against=big", nil)
	if r.status != http.StatusOK {
		t.Fatalf("reverse diff: status = %d (%+v)", r.status, r.Error)
	}
	if err := json.Unmarshal(r.Data, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Regression || len(d.Diff.LostEdges) == 0 {
		t.Errorf("small vs big not a regression: %s", d.Diff.JSON())
	}

	// Parameter validation.
	if r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/campaigns/big/coverage/diff", nil); r.status != http.StatusBadRequest {
		t.Errorf("missing against: status = %d", r.status)
	}
	if r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/campaigns/big/coverage/diff?against=nope", nil); r.status != http.StatusNotFound {
		t.Errorf("unknown against: status = %d", r.status)
	}
	if r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/campaigns/nope/coverage", nil); r.status != http.StatusNotFound {
		t.Errorf("unknown campaign coverage: status = %d", r.status)
	}
}

func TestCampaignCoverageWithoutCover(t *testing.T) {
	f := newGateFactory()
	sv := NewServer(WithFactory(f), WithWorkers(2))
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	r := doJSON(t, http.MethodPost, ts.URL+"/api/v1/campaigns", CampaignSpec{
		ID: "plain", Policies: []string{"p1"}, Workloads: []string{"wa"},
	})
	if r.status != http.StatusCreated {
		t.Fatalf("create: status = %d (%+v)", r.status, r.Error)
	}
	waitCampaignDone(t, ts.URL, "plain", 1)

	// The rollup exists but is empty; the raw-snapshot form is a 404.
	rr := doJSON(t, http.MethodGet, ts.URL+"/api/v1/campaigns/plain/coverage", nil)
	if rr.status != http.StatusOK {
		t.Fatalf("coverage: status = %d (%+v)", rr.status, rr.Error)
	}
	var cc campaignCoverage
	if err := json.Unmarshal(rr.Data, &cc); err != nil {
		t.Fatal(err)
	}
	if cc.CoveredCells != 0 || cc.Merged != nil {
		t.Errorf("uncovered campaign has coverage: %+v", cc)
	}
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/plain/coverage?format=snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("snapshot of uncovered campaign: status = %d, want 404", resp.StatusCode)
	}
}
