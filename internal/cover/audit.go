package cover

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"vpdift/internal/core"
)

// PointStat counts enforcement activity at one clearance point.
type PointStat struct {
	Checks     uint64 `json:"checks"`
	Violations uint64 `json:"violations"`
}

// exercised reports whether the point was touched at all.
func (p PointStat) exercised() bool { return p.Checks != 0 || p.Violations != 0 }

// PolicyAudit records which parts of a security policy a run exercised:
// per-lattice-edge LUB and AllowedFlow hit counts (the lattice's counter
// set, see core.Lattice.Count), check/violation counts per execution
// clearance point and per output sink, and region store-rule hits. Its
// dead-rule report flags classes and rules no execution ever touched — the
// policy-completeness audit the survey literature asks for.
//
// Check counting is approximate at the edges: a retired instruction counts
// as one enforcement per enabled point (the cached fetch verdict counts as
// enforcement even when the LUB was memoized), while the final violating
// instruction never retires and is accounted through NoteViolation instead.
type PolicyAudit struct {
	lat *core.Lattice
	pol *core.Policy

	// lubPair/flowPair are the lattice counter set's matrices (Configure).
	lubPair, flowPair []uint64

	// Fetch/Branch/MemAddr are incremented directly by the VP+ core's cover
	// hook (exported to keep the enabled path a field increment).
	Fetch, Branch, MemAddr PointStat

	outputs map[string]*PointStat
	regions []PointStat // parallel to pol.Regions
}

// NewAudit returns an unconfigured policy audit; the platform binds it to
// the policy via Configure at wiring time.
func NewAudit() *PolicyAudit {
	return &PolicyAudit{outputs: make(map[string]*PointStat)}
}

// Configure binds the audit to the platform's policy and to the counter
// set installed on its lattice (pol.L.Count()), whose per-pair matrices the
// audit reports.
func (a *PolicyAudit) Configure(pol *core.Policy, counts *core.LatticeCounts) {
	a.pol = pol
	a.lat = pol.L
	a.lubPair, a.flowPair = counts.LUB, counts.Flow
	a.regions = make([]PointStat, len(pol.Regions))
	for port := range pol.Outputs {
		a.outputs[port] = &PointStat{}
	}
}

// Output returns (creating on demand) the stat cell for a named sink port.
// Peripherals call it at a port's first check and keep the pointer.
func (a *PolicyAudit) Output(port string) *PointStat {
	s, ok := a.outputs[port]
	if !ok {
		s = &PointStat{}
		a.outputs[port] = s
	}
	return s
}

// NoteStore counts region store-clearance rule hits for a retired store to
// addr. Mirrors Policy.CheckStore: every matching rule is enforced, so every
// matching rule counts a check.
func (a *PolicyAudit) NoteStore(addr uint32) {
	for i := range a.pol.Regions {
		r := &a.pol.Regions[i]
		if r.CheckStore && r.Contains(addr) {
			a.regions[i].Checks++
		}
	}
}

// Configured reports whether the audit was bound to a policy.
func (a *PolicyAudit) Configured() bool { return a.pol != nil }

// NoteViolation attributes a terminal violation to its clearance point. The
// violating instruction never retires (the core returns early), so the
// platform records it here when the run error carries a *core.Violation.
func (a *PolicyAudit) NoteViolation(v *core.Violation) {
	if a.pol == nil {
		return
	}
	switch v.Kind {
	case core.KindFetchClearance:
		a.Fetch.Violations++
	case core.KindBranchClearance:
		a.Branch.Violations++
	case core.KindMemAddrClearance:
		a.MemAddr.Violations++
	case core.KindStoreClearance:
		for i := range a.pol.Regions {
			r := &a.pol.Regions[i]
			if r.CheckStore && r.Contains(v.Addr) {
				a.regions[i].Violations++
			}
		}
	case core.KindOutputClearance:
		a.Output(v.Port).Violations++
	}
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
	e := a.pol.Exec
	if e.CheckFetch && !a.Fetch.exercised() {
		dead = append(dead, fmt.Sprintf("fetch clearance (%s) enabled but never checked", a.lat.Name(e.Fetch)))
	}
	if e.CheckBranch && !a.Branch.exercised() {
		dead = append(dead, fmt.Sprintf("branch clearance (%s) enabled but never checked", a.lat.Name(e.Branch)))
	}
	if e.CheckMemAddr && !a.MemAddr.exercised() {
		dead = append(dead, fmt.Sprintf("mem-addr clearance (%s) enabled but never checked", a.lat.Name(e.MemAddr)))
	}
	for i := range a.pol.Regions {
		r := &a.pol.Regions[i]
		if r.CheckStore && !a.regions[i].exercised() {
			dead = append(dead, fmt.Sprintf("region %q store clearance (%s) never exercised", r.Name, a.lat.Name(r.Clearance)))
		}
	}
	ports := make([]string, 0, len(a.outputs))
	for port := range a.outputs {
		ports = append(ports, port)
	}
	sort.Strings(ports)
	for _, port := range ports {
		if !a.outputs[port].exercised() {
			dead = append(dead, fmt.Sprintf("output clearance on %q never checked", port))
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
	e := a.pol.Exec
	if e.CheckFetch && !a.Fetch.exercised() {
		n++
	}
	if e.CheckBranch && !a.Branch.exercised() {
		n++
	}
	if e.CheckMemAddr && !a.MemAddr.exercised() {
		n++
	}
	for i := range a.pol.Regions {
		if a.pol.Regions[i].CheckStore && !a.regions[i].exercised() {
			n++
		}
	}
	for _, p := range a.outputs {
		if !p.exercised() {
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
	e := a.pol.Exec
	exec := map[string]execPoint{
		"fetch":    {Enabled: e.CheckFetch, PointStat: a.Fetch},
		"branch":   {Enabled: e.CheckBranch, PointStat: a.Branch},
		"mem-addr": {Enabled: e.CheckMemAddr, PointStat: a.MemAddr},
	}
	if e.CheckFetch {
		p := exec["fetch"]
		p.Clearance = a.lat.Name(e.Fetch)
		exec["fetch"] = p
	}
	if e.CheckBranch {
		p := exec["branch"]
		p.Clearance = a.lat.Name(e.Branch)
		exec["branch"] = p
	}
	if e.CheckMemAddr {
		p := exec["mem-addr"]
		p.Clearance = a.lat.Name(e.MemAddr)
		exec["mem-addr"] = p
	}
	outs := make(map[string]PointStat, len(a.outputs))
	for port, s := range a.outputs {
		outs[port] = *s
	}
	regs := make([]regionPoint, 0, len(a.pol.Regions))
	for i := range a.pol.Regions {
		r := &a.pol.Regions[i]
		if !r.CheckStore {
			continue
		}
		regs = append(regs, regionPoint{
			Name: r.Name, Start: r.Start, End: r.End,
			Clearance: a.lat.Name(r.Clearance), PointStat: a.regions[i],
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
	e := a.pol.Exec
	point := func(name string, enabled bool, clear core.Tag, s PointStat) {
		if !enabled {
			fmt.Fprintf(w, "  %-10s disabled\n", name)
			return
		}
		fmt.Fprintf(w, "  %-10s clearance %-8s %10d / %d\n", name, a.lat.Name(clear), s.Checks, s.Violations)
	}
	point("fetch", e.CheckFetch, e.Fetch, a.Fetch)
	point("branch", e.CheckBranch, e.Branch, a.Branch)
	point("mem-addr", e.CheckMemAddr, e.MemAddr, a.MemAddr)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "output sinks (checks / violations):")
	ports := make([]string, 0, len(a.outputs))
	for port := range a.outputs {
		ports = append(ports, port)
	}
	sort.Strings(ports)
	for _, port := range ports {
		s := a.outputs[port]
		clear := ""
		if t, ok := a.pol.OutputClearance(port); ok {
			clear = a.lat.Name(t)
		}
		fmt.Fprintf(w, "  %-16s clearance %-8s %10d / %d\n", port, clear, s.Checks, s.Violations)
	}
	fmt.Fprintln(w)

	if len(a.regions) > 0 {
		fmt.Fprintln(w, "region store rules (checks / violations):")
		for i := range a.pol.Regions {
			r := &a.pol.Regions[i]
			if !r.CheckStore {
				continue
			}
			fmt.Fprintf(w, "  %-16s [0x%08x, 0x%08x) clearance %-8s %10d / %d\n",
				r.Name, r.Start, r.End, a.lat.Name(r.Clearance), a.regions[i].Checks, a.regions[i].Violations)
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
