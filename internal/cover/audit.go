package cover

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"vpdift/internal/core"
)

// PointStat counts enforcement activity at one clearance point, as the
// enforcement counter set holds it and the audit's JSON and the coverage
// snapshot serialize it.
type PointStat = core.PointCounts

// exercised reports whether the point was touched at all.
func exercised(p PointStat) bool { return p.Checks != 0 || p.Violations != 0 }

// PolicyAudit reports which parts of a security policy a run exercised.
// It records nothing itself: it reads the platform's two counter sets, the
// lattice's per-edge LUB and AllowedFlow hit counts (core.Lattice.Count)
// and the policy's check and violation counts per clearance point
// (core.Policy.Count), which the core, the policy's store check and the
// peripherals count where they enforce. Its dead-rule report flags classes
// and rules no execution ever touched — the policy-completeness audit the
// survey literature asks for.
type PolicyAudit struct {
	lat *core.Lattice
	pol *core.Policy

	// lubPair/flowPair are the lattice counter set's matrices and enf the
	// enforcement counter set (Configure).
	lubPair, flowPair []uint64
	enf               *core.EnforcementCounts
}

// NewAudit returns an unconfigured policy audit; the platform binds it to
// the policy and its counter sets via Configure at wiring time.
func NewAudit() *PolicyAudit { return &PolicyAudit{} }

// Configure binds the audit to the platform's policy and to the counter
// sets installed on its lattice (pol.L.Count()) and on the policy
// (pol.Count()), which the audit reports.
func (a *PolicyAudit) Configure(pol *core.Policy, lattice *core.LatticeCounts, enf *core.EnforcementCounts) {
	a.pol = pol
	a.lat = pol.L
	a.lubPair, a.flowPair = lattice.LUB, lattice.Flow
	a.enf = enf
}

// Configured reports whether the audit was bound to a policy.
func (a *PolicyAudit) Configured() bool { return a.pol != nil }

// cpuPoint is one of the CPU's execution clearance points.
type cpuPoint struct {
	name    string
	enabled bool
	clear   core.Tag
	stat    PointStat
}

// execPoints lists the three execution clearance points in report order.
func (a *PolicyAudit) execPoints() [3]cpuPoint {
	e := a.pol.Exec
	return [3]cpuPoint{
		{"fetch", e.CheckFetch, e.Fetch, a.enf.Fetch},
		{"branch", e.CheckBranch, e.Branch, a.enf.Branch},
		{"mem-addr", e.CheckMemAddr, e.MemAddr, a.enf.MemAddr},
	}
}

// ports returns the port clearance points in name order.
func (a *PolicyAudit) ports() []*core.PortCounts {
	ports := append([]*core.PortCounts(nil), a.enf.Ports...)
	sort.Slice(ports, func(i, j int) bool { return ports[i].Name < ports[j].Name })
	return ports
}

// Points returns every clearance point's counts, keyed as in the coverage
// snapshot: "exec:fetch", "exec:branch" and "exec:mem-addr" when enabled
// or exercised, "output:<port>" for each port, and "region:<name>" for
// each region store rule.
func (a *PolicyAudit) Points() map[string]PointStat {
	points := map[string]PointStat{}
	for _, p := range a.execPoints() {
		if p.enabled || exercised(p.stat) {
			points["exec:"+p.name] = p.stat
		}
	}
	for _, p := range a.enf.Ports {
		points["output:"+p.Name] = p.PointCounts
	}
	for i := range a.pol.Regions {
		if r := &a.pol.Regions[i]; r.CheckStore {
			points["region:"+r.Name] = a.enf.Stores[i]
		}
	}
	return points
}

// pairs lists the nonzero cells of an n*n hit matrix as (from, to, count).
type pairHit struct {
	From, To string
	Count    uint64
}

func (a *PolicyAudit) nonzeroPairs(m []uint64) []pairHit {
	n := a.lat.Size()
	var out []pairHit
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c := m[i*n+j]; c != 0 {
				out = append(out, pairHit{a.lat.Name(core.Tag(i)), a.lat.Name(core.Tag(j)), c})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].From+out[i].To < out[j].From+out[j].To
	})
	return out
}

// classTouched reports whether class i appeared as an operand of any LUB or
// AllowedFlow query.
func (a *PolicyAudit) classTouched(i int) bool {
	n := a.lat.Size()
	for j := 0; j < n; j++ {
		if a.lubPair[i*n+j] != 0 || a.lubPair[j*n+i] != 0 ||
			a.flowPair[i*n+j] != 0 || a.flowPair[j*n+i] != 0 {
			return true
		}
	}
	return false
}

// DeadRules lists the policy elements this run never exercised: classes
// untouched by any lattice query, enabled clearance points never checked,
// region store rules never hit, and output clearances never queried.
func (a *PolicyAudit) DeadRules() []string {
	var dead []string
	for i := 0; i < a.lat.Size(); i++ {
		if !a.classTouched(i) {
			dead = append(dead, fmt.Sprintf("class %q never touched by any LUB or flow query", a.lat.Name(core.Tag(i))))
		}
	}
	for _, p := range a.execPoints() {
		if p.enabled && !exercised(p.stat) {
			dead = append(dead, fmt.Sprintf("%s clearance (%s) enabled but never checked", p.name, a.lat.Name(p.clear)))
		}
	}
	for i := range a.pol.Regions {
		r := &a.pol.Regions[i]
		if r.CheckStore && !exercised(a.enf.Stores[i]) {
			dead = append(dead, fmt.Sprintf("region %q store clearance (%s) never exercised", r.Name, a.lat.Name(r.Clearance)))
		}
	}
	for _, p := range a.enf.Ports {
		if !exercised(p.PointCounts) {
			dead = append(dead, fmt.Sprintf("output clearance on %q never checked", p.Name))
		}
	}
	// Globally sorted so every consumer — report, JSON export, snapshot
	// merge intersection — sees one canonical order regardless of how the
	// policy was assembled.
	sort.Strings(dead)
	return dead
}

// DeadRuleCount counts the rules DeadRules would list without rendering
// their descriptions — the allocation-free form the per-sample telemetry
// snapshot uses.
func (a *PolicyAudit) DeadRuleCount() int {
	n := 0
	for i := 0; i < a.lat.Size(); i++ {
		if !a.classTouched(i) {
			n++
		}
	}
	for _, p := range a.execPoints() {
		if p.enabled && !exercised(p.stat) {
			n++
		}
	}
	for i := range a.pol.Regions {
		if a.pol.Regions[i].CheckStore && !exercised(a.enf.Stores[i]) {
			n++
		}
	}
	for _, p := range a.enf.Ports {
		if !exercised(p.PointCounts) {
			n++
		}
	}
	return n
}

// auditJSON is the machine-readable export consumed by cmd/ifp-dot -cover
// and the CI artifact upload.
type auditJSON struct {
	Classes []string             `json:"classes"`
	LUB     [][]uint64           `json:"lub"`
	Flow    [][]uint64           `json:"flow"`
	Exec    map[string]execPoint `json:"exec"`
	Outputs map[string]PointStat `json:"outputs"`
	Regions []regionPoint        `json:"regions"`
	Dead    []string             `json:"dead_rules"`
}

type execPoint struct {
	Enabled   bool   `json:"enabled"`
	Clearance string `json:"clearance,omitempty"`
	PointStat
}

type regionPoint struct {
	Name      string `json:"name"`
	Start     uint32 `json:"start"`
	End       uint32 `json:"end"`
	Clearance string `json:"clearance,omitempty"`
	PointStat
}

func (a *PolicyAudit) export() auditJSON {
	n := a.lat.Size()
	matrix := func(m []uint64) [][]uint64 {
		out := make([][]uint64, n)
		for i := 0; i < n; i++ {
			out[i] = m[i*n : (i+1)*n : (i+1)*n]
		}
		return out
	}
	exec := make(map[string]execPoint, 3)
	for _, p := range a.execPoints() {
		x := execPoint{Enabled: p.enabled, PointStat: p.stat}
		if p.enabled {
			x.Clearance = a.lat.Name(p.clear)
		}
		exec[p.name] = x
	}
	outs := make(map[string]PointStat, len(a.enf.Ports))
	for _, p := range a.enf.Ports {
		outs[p.Name] = p.PointCounts
	}
	regs := make([]regionPoint, 0, len(a.pol.Regions))
	for i := range a.pol.Regions {
		r := &a.pol.Regions[i]
		if !r.CheckStore {
			continue
		}
		regs = append(regs, regionPoint{
			Name: r.Name, Start: r.Start, End: r.End,
			Clearance: a.lat.Name(r.Clearance), PointStat: a.enf.Stores[i],
		})
	}
	return auditJSON{
		Classes: a.lat.Classes(),
		LUB:     matrix(a.lubPair),
		Flow:    matrix(a.flowPair),
		Exec:    exec,
		Outputs: outs,
		Regions: regs,
		Dead:    a.DeadRules(),
	}
}

// WriteJSON emits the audit as indented JSON.
func (a *PolicyAudit) WriteJSON(w io.Writer) error {
	if a.pol == nil {
		return fmt.Errorf("cover: policy audit not configured")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a.export())
}

// WriteReport renders the human-readable policy-audit report.
func (a *PolicyAudit) WriteReport(w io.Writer) error {
	if a.pol == nil {
		_, err := fmt.Fprintln(w, "policy audit: not configured")
		return err
	}
	fmt.Fprintln(w, "policy audit")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "execution clearance points (checks / violations):")
	for _, p := range a.execPoints() {
		if !p.enabled {
			fmt.Fprintf(w, "  %-10s disabled\n", p.name)
			continue
		}
		fmt.Fprintf(w, "  %-10s clearance %-8s %10d / %d\n", p.name, a.lat.Name(p.clear), p.stat.Checks, p.stat.Violations)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "output sinks (checks / violations):")
	for _, p := range a.ports() {
		clear := ""
		if t, ok := a.pol.OutputClearance(p.Name); ok {
			clear = a.lat.Name(t)
		}
		fmt.Fprintf(w, "  %-16s clearance %-8s %10d / %d\n", p.Name, clear, p.Checks, p.Violations)
	}
	fmt.Fprintln(w)

	if len(a.pol.Regions) > 0 {
		fmt.Fprintln(w, "region store rules (checks / violations):")
		for i := range a.pol.Regions {
			r := &a.pol.Regions[i]
			if !r.CheckStore {
				continue
			}
			fmt.Fprintf(w, "  %-16s [0x%08x, 0x%08x) clearance %-8s %10d / %d\n",
				r.Name, r.Start, r.End, a.lat.Name(r.Clearance), a.enf.Stores[i].Checks, a.enf.Stores[i].Violations)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "lattice edge hits (LUB / flow queries):")
	lub := a.nonzeroPairs(a.lubPair)
	flow := a.nonzeroPairs(a.flowPair)
	if len(lub) == 0 && len(flow) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for _, p := range lub {
		fmt.Fprintf(w, "  LUB  %-8s ⊔ %-8s %10d\n", p.From, p.To, p.Count)
	}
	for _, p := range flow {
		verdict := "allowed"
		from, _ := a.lat.TagOf(p.From)
		to, _ := a.lat.TagOf(p.To)
		if !a.lat.PeekFlow(from, to) {
			verdict = "DENIED"
		}
		fmt.Fprintf(w, "  flow %-8s → %-8s %10d  %s\n", p.From, p.To, p.Count, verdict)
	}
	fmt.Fprintln(w)

	dead := a.DeadRules()
	if len(dead) == 0 {
		fmt.Fprintln(w, "dead rules: none — every class and rule was exercised")
	} else {
		fmt.Fprintf(w, "dead rules (%d):\n", len(dead))
		for _, d := range dead {
			fmt.Fprintf(w, "  ! %s\n", d)
		}
	}
	return nil
}
