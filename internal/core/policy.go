package core

import (
	"fmt"
	"sort"
)

// ExecClearance configures the three execution-clearance points the paper
// identifies inside the CPU core (Section V-B2): branch execution,
// instruction fetch, and memory access. Each point can be enabled
// independently and is assigned its own clearance class, "to let the engineer
// select the most suitable configuration".
type ExecClearance struct {
	CheckFetch bool
	Fetch      Tag // instruction words must satisfy allowedFlow(class(insn), Fetch)

	CheckBranch bool
	Branch      Tag // branch conditions and trap-vector targets must satisfy allowedFlow(class(cond), Branch)

	CheckMemAddr bool
	MemAddr      Tag // load/store addresses must satisfy allowedFlow(class(addr), MemAddr)
}

// RegionRule attaches policy to a physical address range [Start, End).
// A rule can play two roles, separately or together:
//
//   - Classification: data loaded into the region at image-load time (and
//     data read from it before ever being written) carries Class. This
//     implements the paper's classification of e.g. "a secret key stored in
//     memory" or "the memory holding the program is classified as HI during
//     program loading".
//   - Store clearance: every store into the region must satisfy
//     allowedFlow(class(data), Clearance). This implements integrity
//     protection of sensitive data such as the immobilizer PIN.
type RegionRule struct {
	Name  string
	Start uint32 // inclusive
	End   uint32 // exclusive

	Classify bool
	Class    Tag

	CheckStore bool
	Clearance  Tag
}

// Contains reports whether addr falls inside the region.
func (r *RegionRule) Contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// Policy is a complete security policy in the sense of Section IV-A of the
// paper: an IFP (the lattice), a classification (region rules plus the
// peripherals' own input classification), and clearance assignments (output
// ports, memory regions, execution-clearance points).
type Policy struct {
	L *Lattice

	// Default is the class given to data with no other classification — the
	// "public/untrusted" bottom of most policies (e.g. LC in IFP-1, LI in
	// IFP-2). Registers and memory reset to Default.
	Default Tag

	// Exec configures the CPU execution-clearance checks.
	Exec ExecClearance

	// Outputs assigns clearance to named sink ports ("uart0.tx",
	// "can0.tx", and peripheral input clearances like "aes0.in"). A port
	// with no entry is unchecked.
	Outputs map[string]Tag

	// Inputs assigns classification to named data sources ("uart0.rx",
	// "can0.rx", "sensor0.data", and the declassified "aes0.out"). A source
	// with no entry produces Default-class data.
	Inputs map[string]Tag

	// Regions lists classification and store-clearance rules. Rules may
	// overlap; on classification the first matching rule wins, on store
	// checks every matching rule is enforced.
	Regions []RegionRule

	// counts, when non-nil, is the installed enforcement counter set (see
	// Count); CheckStore counts its region rules into it.
	counts *EnforcementCounts
}

// NewPolicy creates a policy over lattice l with the given default class and
// no checks enabled.
func NewPolicy(l *Lattice, defaultClass Tag) *Policy {
	return &Policy{
		L:       l,
		Default: defaultClass,
		Outputs: make(map[string]Tag),
		Inputs:  make(map[string]Tag),
	}
}

// WithOutput assigns clearance to a named output port and returns p for
// chaining.
func (p *Policy) WithOutput(port string, clearance Tag) *Policy {
	if p.Outputs == nil {
		p.Outputs = make(map[string]Tag)
	}
	p.Outputs[port] = clearance
	return p
}

// WithInput assigns a classification to a named input source and returns p
// for chaining.
func (p *Policy) WithInput(source string, class Tag) *Policy {
	if p.Inputs == nil {
		p.Inputs = make(map[string]Tag)
	}
	p.Inputs[source] = class
	return p
}

// InputClass looks up the classification of a named input source, falling
// back to the policy default.
func (p *Policy) InputClass(source string) Tag {
	if t, ok := p.Inputs[source]; ok {
		return t
	}
	return p.Default
}

// WithRegion appends a region rule and returns p for chaining.
func (p *Policy) WithRegion(r RegionRule) *Policy {
	p.Regions = append(p.Regions, r)
	return p
}

// WithFetchClearance enables the instruction-fetch check.
func (p *Policy) WithFetchClearance(t Tag) *Policy {
	p.Exec.CheckFetch = true
	p.Exec.Fetch = t
	return p
}

// WithBranchClearance enables the branch-condition check.
func (p *Policy) WithBranchClearance(t Tag) *Policy {
	p.Exec.CheckBranch = true
	p.Exec.Branch = t
	return p
}

// WithMemAddrClearance enables the memory-address check.
func (p *Policy) WithMemAddrClearance(t Tag) *Policy {
	p.Exec.CheckMemAddr = true
	p.Exec.MemAddr = t
	return p
}

// Validate checks that every tag referenced by the policy exists in the
// lattice and that region bounds are well-formed.
func (p *Policy) Validate() error {
	if p.L == nil {
		return fmt.Errorf("policy: no lattice")
	}
	n := Tag(p.L.Size() - 1)
	check := func(what string, t Tag) error {
		if t > n {
			return fmt.Errorf("policy: %s references tag %d, but the lattice has only %d classes", what, t, p.L.Size())
		}
		return nil
	}
	if err := check("default class", p.Default); err != nil {
		return err
	}
	if p.Exec.CheckFetch {
		if err := check("fetch clearance", p.Exec.Fetch); err != nil {
			return err
		}
	}
	if p.Exec.CheckBranch {
		if err := check("branch clearance", p.Exec.Branch); err != nil {
			return err
		}
	}
	if p.Exec.CheckMemAddr {
		if err := check("mem-addr clearance", p.Exec.MemAddr); err != nil {
			return err
		}
	}
	for port, t := range p.Outputs {
		if err := check("output "+port, t); err != nil {
			return err
		}
	}
	for src, t := range p.Inputs {
		if err := check("input "+src, t); err != nil {
			return err
		}
	}
	for i := range p.Regions {
		r := &p.Regions[i]
		if r.End <= r.Start {
			return fmt.Errorf("policy: region %q has empty or inverted range [0x%x, 0x%x)", r.Name, r.Start, r.End)
		}
		if r.Classify {
			if err := check("region "+r.Name+" class", r.Class); err != nil {
				return err
			}
		}
		if r.CheckStore {
			if err := check("region "+r.Name+" clearance", r.Clearance); err != nil {
				return err
			}
		}
	}
	return nil
}

// ClassifyAt returns the classification for an address, or the policy default
// when no classification rule matches. The first matching rule wins.
func (p *Policy) ClassifyAt(addr uint32) Tag {
	for i := range p.Regions {
		r := &p.Regions[i]
		if r.Classify && r.Contains(addr) {
			return r.Class
		}
	}
	return p.Default
}

// CheckStore enforces all store-clearance rules covering addr against a
// datum of class have, in rule order up to the first that fails, counting
// each rule it checks in the installed counter set. It returns nil when no
// rule matches or all flows are allowed.
func (p *Policy) CheckStore(addr uint32, have Tag) error {
	for i := range p.Regions {
		r := &p.Regions[i]
		if !r.CheckStore || !r.Contains(addr) {
			continue
		}
		ok := p.L.AllowedFlow(have, r.Clearance)
		if p.counts != nil {
			p.counts.Stores[i].Tally(ok)
		}
		if !ok {
			return NewViolation(p.L, KindStoreClearance, have, r.Clearance).WithAddr(addr)
		}
	}
	return nil
}

// OutputClearance looks up the clearance of a named output port.
func (p *Policy) OutputClearance(port string) (Tag, bool) {
	t, ok := p.Outputs[port]
	return t, ok
}

// PointCounts counts one clearance point's checks and the violations they
// raised.
type PointCounts struct {
	Checks     uint64 `json:"checks"`
	Violations uint64 `json:"violations"`
}

// Tally counts one check, and a violation when it failed.
func (p *PointCounts) Tally(ok bool) {
	p.Checks++
	if !ok {
		p.Violations++
	}
}

// PortCounts is a port clearance point's counts under its policy name.
type PortCounts struct {
	Name string
	PointCounts
}

// EnforcementCounts is a policy's enforcement counter set (Policy.Count):
// per clearance point, the checks run and the violations raised while it
// is installed, each counted where the point is enforced — the VP+ core's
// fetch, branch and memory-address checks, CheckStore's region rules, the
// peripherals' ports — plus the input ports' deliveries. A check and its
// violation count where the check runs, so a memoized verdict (the decode
// cache's fetch check) counts once. The platform's checks.*, violations.*
// and io.* metrics and the policy audit all read this set.
type EnforcementCounts struct {
	Fetch, Branch, MemAddr PointCounts
	Stores                 []PointCounts // parallel to the policy's Regions
	// Ports are the policy's Outputs in name order, then any other port a
	// peripheral checks (the sensor's data_tag cast) from its first check.
	Ports  []*PortCounts
	Inputs uint64 // input port deliveries
}

// Count installs a fresh enforcement counter set, replacing any installed
// before, and returns it. Like Lattice.Count it is installed once, on a
// complete policy before the simulation starts, for one platform.
func (p *Policy) Count() *EnforcementCounts {
	names := make([]string, 0, len(p.Outputs))
	for name := range p.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	c := &EnforcementCounts{Stores: make([]PointCounts, len(p.Regions))}
	for _, name := range names {
		c.Ports = append(c.Ports, &PortCounts{Name: name})
	}
	p.counts = c
	return c
}

// Port returns the named port's counts, adding the port at its first check
// when the policy gives it no clearance.
func (c *EnforcementCounts) Port(name string) *PointCounts {
	for _, p := range c.Ports {
		if p.Name == name {
			return &p.PointCounts
		}
	}
	p := &PortCounts{Name: name}
	c.Ports = append(c.Ports, p)
	return &p.PointCounts
}

// Kind sums the counts of the points whose violations are of kind k.
func (c *EnforcementCounts) Kind(k ViolationKind) (s PointCounts) {
	switch k {
	case KindFetchClearance:
		return c.Fetch
	case KindBranchClearance:
		return c.Branch
	case KindMemAddrClearance:
		return c.MemAddr
	case KindStoreClearance:
		for _, p := range c.Stores {
			s.Checks, s.Violations = s.Checks+p.Checks, s.Violations+p.Violations
		}
	case KindOutputClearance:
		for _, p := range c.Ports {
			s.Checks, s.Violations = s.Checks+p.Checks, s.Violations+p.Violations
		}
	}
	return s
}
