package core

import (
	"fmt"
	"strings"
)

// Lattice is an Information Flow Policy (IFP): a finite join-semilattice of
// security classes. Following the paper (Section IV-A), an IFP describes the
// allowed information flow in the system. An edge X -> Y means data of class
// X may flow to a place (output interface, memory region, execution unit)
// with clearance Y. Clearance checks use the reflexive-transitive closure of
// the edges (AllowedFlow); combining data uses the least upper bound (LUB).
//
// A Lattice is immutable after construction. LUB and AllowedFlow are
// precomputed tables, so both operations are O(1) — this is the hot path of
// the DIFT engine.
type Lattice struct {
	names   []string
	allowed []bool // n*n closure matrix: allowed[x*n+y] == AllowedFlow(x, y)
	lub     []Tag  // n*n join table: lub[x*n+y] == LUB(x, y)

	// lubHits/flowHits, when non-nil, are the installed counter set's
	// per-pair matrices (see Count). Installed once at wiring time and nil
	// in normal operation, so the hot path pays one predictable not-taken
	// branch per query.
	lubHits  []uint64
	flowHits []uint64
}

// NewLattice builds an IFP from named security classes and directed flow
// edges. Edges are given as pairs of class names (from, to). The relation is
// closed reflexively and transitively. NewLattice returns an error when
//
//   - a class name is duplicated or an edge mentions an unknown class,
//   - the flow relation has a cycle between distinct classes (the order must
//     be a partial order), or
//   - some pair of classes has no unique least upper bound (the order must be
//     a join-semilattice so that combining data always yields a well-defined
//     class).
func NewLattice(classes []string, edges [][2]string) (*Lattice, error) {
	n := len(classes)
	if n == 0 {
		return nil, fmt.Errorf("lattice: no security classes")
	}
	if n > MaxClasses {
		return nil, fmt.Errorf("lattice: %d classes exceeds the maximum of %d", n, MaxClasses)
	}
	index := make(map[string]int, n)
	for i, name := range classes {
		if name == "" {
			return nil, fmt.Errorf("lattice: class %d has an empty name", i)
		}
		if _, dup := index[name]; dup {
			return nil, fmt.Errorf("lattice: duplicate class %q", name)
		}
		index[name] = i
	}

	allowed := make([]bool, n*n)
	for i := 0; i < n; i++ {
		allowed[i*n+i] = true
	}
	for _, e := range edges {
		from, ok := index[e[0]]
		if !ok {
			return nil, fmt.Errorf("lattice: edge references unknown class %q", e[0])
		}
		to, ok := index[e[1]]
		if !ok {
			return nil, fmt.Errorf("lattice: edge references unknown class %q", e[1])
		}
		allowed[from*n+to] = true
	}
	// Warshall transitive closure.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !allowed[i*n+k] {
				continue
			}
			for j := 0; j < n; j++ {
				if allowed[k*n+j] {
					allowed[i*n+j] = true
				}
			}
		}
	}
	// Antisymmetry: a cycle between distinct classes makes them equivalent,
	// which almost certainly indicates a policy specification bug.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if allowed[i*n+j] && allowed[j*n+i] {
				return nil, fmt.Errorf("lattice: classes %q and %q flow to each other; merge them into one class",
					classes[i], classes[j])
			}
		}
	}

	// Precompute joins and verify the join-semilattice property.
	lub := make([]Tag, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			join, err := computeJoin(allowed, n, i, j, classes)
			if err != nil {
				return nil, err
			}
			lub[i*n+j] = Tag(join)
		}
	}

	l := &Lattice{
		names:   append([]string(nil), classes...),
		allowed: allowed,
		lub:     lub,
	}
	return l, nil
}

// computeJoin finds the unique least upper bound of classes i and j, or
// reports an error when none exists or it is ambiguous.
func computeJoin(allowed []bool, n, i, j int, names []string) (int, error) {
	// Scan the upper bounds (classes u with i->u and j->u), keeping the
	// lowest comparable one; uniqueness is verified below.
	best := -1
	for u := 0; u < n; u++ {
		if !(allowed[i*n+u] && allowed[j*n+u]) {
			continue
		}
		if best == -1 || allowed[u*n+best] {
			best = u
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("lattice: classes %q and %q have no common upper bound; add a top class", names[i], names[j])
	}
	// best must be below every other upper bound, otherwise the LUB is
	// ambiguous.
	for u := 0; u < n; u++ {
		if allowed[i*n+u] && allowed[j*n+u] && !allowed[best*n+u] {
			return 0, fmt.Errorf("lattice: classes %q and %q have no unique least upper bound (%q and %q are incomparable bounds)",
				names[i], names[j], names[best], names[u])
		}
	}
	return best, nil
}

// MustNewLattice is NewLattice that panics on error. It is intended for
// statically-known policies (the IFP-1/2/3 constructors and tests).
func MustNewLattice(classes []string, edges [][2]string) *Lattice {
	l, err := NewLattice(classes, edges)
	if err != nil {
		panic(err)
	}
	return l
}

// Size returns the number of security classes.
func (l *Lattice) Size() int { return len(l.names) }

// Name returns the name of the class identified by t.
func (l *Lattice) Name(t Tag) string {
	if int(t) >= len(l.names) {
		return fmt.Sprintf("<invalid tag %d>", t)
	}
	return l.names[t]
}

// TagOf looks up a class by name.
func (l *Lattice) TagOf(name string) (Tag, bool) {
	for i, n := range l.names {
		if n == name {
			return Tag(i), true
		}
	}
	return 0, false
}

// MustTag is TagOf that panics when the class does not exist.
func (l *Lattice) MustTag(name string) Tag {
	t, ok := l.TagOf(name)
	if !ok {
		panic(fmt.Sprintf("lattice: unknown class %q (have %s)", name, strings.Join(l.names, ", ")))
	}
	return t
}

// LUB returns the least upper bound of two security classes: the class of
// data produced by combining data of classes a and b (paper Section IV-A).
func (l *Lattice) LUB(a, b Tag) Tag {
	i := int(a)*len(l.names) + int(b)
	if l.lubHits != nil {
		l.lubHits[i]++
	}
	return l.lub[i]
}

// AllowedFlow reports whether data of class from may flow to a sink with
// clearance to — the paper's allowedFlow(X, Y) predicate. It holds iff there
// is a (possibly empty) directed path from `from` to `to` in the IFP.
func (l *Lattice) AllowedFlow(from, to Tag) bool {
	i := int(from)*len(l.names) + int(to)
	if l.flowHits != nil {
		l.flowHits[i]++
	}
	return l.allowed[i]
}

// PeekLUB is LUB without counting: the join for bookkeeping that is not
// the DIFT engine's own (an observer's record of a join already made, a
// report), so attaching it leaves the counts alone.
func (l *Lattice) PeekLUB(a, b Tag) Tag { return l.lub[int(a)*len(l.names)+int(b)] }

// PeekFlow is AllowedFlow without counting; see PeekLUB.
func (l *Lattice) PeekFlow(from, to Tag) bool {
	return l.allowed[int(from)*len(l.names)+int(to)]
}

// LatticeCounts is a lattice's counter set: per ordered class pair, how
// many LUB calls (LUB[a*n+b]) and AllowedFlow queries (Flow[from*n+to]) the
// lattice answered while the set was installed.
type LatticeCounts struct {
	LUB, Flow []uint64
}

// Joins returns the number of LUB calls counted, the sum of the join
// matrix.
func (c *LatticeCounts) Joins() uint64 {
	var n uint64
	for _, v := range c.LUB {
		n += v
	}
	return n
}

// Count installs a fresh counter set, replacing any installed before, and
// returns it. Install it before the simulation starts and after the
// wiring-time queries (Top, clearance lookups), so set-up does not count;
// it is the only permitted post-construction mutation of a Lattice.
func (l *Lattice) Count() *LatticeCounts {
	n := len(l.names)
	c := &LatticeCounts{LUB: make([]uint64, n*n), Flow: make([]uint64, n*n)}
	l.lubHits, l.flowHits = c.LUB, c.Flow
	return c
}

// Top returns the greatest class — the one every class may flow to — if the
// lattice has one. A sink with the top as clearance admits all data; trusted
// peripherals like the immobilizer's AES engine use it as input clearance.
func (l *Lattice) Top() (Tag, bool) {
	t := Tag(0)
	for i := 1; i < len(l.names); i++ {
		t = l.LUB(t, Tag(i))
	}
	for i := 0; i < len(l.names); i++ {
		if !l.AllowedFlow(Tag(i), t) {
			return 0, false
		}
	}
	return t, true
}

// Classes returns the class names in tag order.
func (l *Lattice) Classes() []string {
	return append([]string(nil), l.names...)
}

// String renders the lattice as its classes and direct flow relation; used
// in logs and the policy dumps of cmd/vp-run.
func (l *Lattice) String() string {
	var b strings.Builder
	b.WriteString("classes: ")
	b.WriteString(strings.Join(l.names, ", "))
	b.WriteString("; flows:")
	n := len(l.names)
	first := true
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && l.allowed[i*n+j] {
				if !first {
					b.WriteString(",")
				}
				first = false
				fmt.Fprintf(&b, " %s->%s", l.names[i], l.names[j])
			}
		}
	}
	if first {
		b.WriteString(" (none)")
	}
	return b.String()
}

// DOT renders the IFP as a Graphviz digraph of its covering relation (the
// transitive reduction of the flow relation) — the notation of the paper's
// Fig. 1. Pipe the output of cmd/ifp-dot through `dot -Tsvg` to draw it.
func (l *Lattice) DOT(name string) string {
	n := len(l.names)
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=BT;\n  node [shape=box];\n", name)
	for _, c := range l.names {
		fmt.Fprintf(&b, "  %q;\n", c)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !l.allowed[i*n+j] {
				continue
			}
			// Covering edge: no intermediate k with i->k->j.
			covering := true
			for k := 0; k < n && covering; k++ {
				if k != i && k != j && l.allowed[i*n+k] && l.allowed[k*n+j] {
					covering = false
				}
			}
			if covering {
				fmt.Fprintf(&b, "  %q -> %q;\n", l.names[i], l.names[j])
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Standard class names used by the IFP constructors below, matching Fig. 1 of
// the paper. For the product lattice IFP-3 the combined names are of the form
// "(HC,LI)".
const (
	ClassLC = "LC" // Low-Confidentiality
	ClassHC = "HC" // High-Confidentiality
	ClassHI = "HI" // High-Integrity
	ClassLI = "LI" // Low-Integrity
)

// IFP1 returns the confidentiality lattice of Fig. 1 (left): classes LC and
// HC with the single flow LC -> HC. Confidential (HC) data may not flow to an
// LC sink.
func IFP1() *Lattice {
	return MustNewLattice(
		[]string{ClassLC, ClassHC},
		[][2]string{{ClassLC, ClassHC}},
	)
}

// IFP2 returns the integrity lattice of Fig. 1 (middle): classes HI and LI
// with the single flow HI -> LI. Untrusted (LI) data may not flow to an HI
// sink.
func IFP2() *Lattice {
	return MustNewLattice(
		[]string{ClassHI, ClassLI},
		[][2]string{{ClassHI, ClassLI}},
	)
}

// IFP3 returns the combined confidentiality+integrity lattice of Fig. 1
// (right): the product of IFP1 and IFP2 with four classes. A flow is allowed
// iff it is allowed in both component lattices. The paper's LUB example
// holds: LUB((LC,LI), (HC,HI)) == (HC,LI).
func IFP3() *Lattice {
	l, err := Product(IFP1(), IFP2())
	if err != nil {
		panic(err) // product of two valid lattices is always valid
	}
	return l
}

// Product combines two IFPs into their product lattice: classes are pairs
// "(a,b)", and a flow (a1,b1) -> (a2,b2) is allowed iff a1 -> a2 in the first
// lattice and b1 -> b2 in the second. This is the paper's "natural
// combination" used to build IFP-3 from IFP-1 and IFP-2.
func Product(a, b *Lattice) (*Lattice, error) {
	na, nb := a.Size(), b.Size()
	if na*nb > MaxClasses {
		return nil, fmt.Errorf("lattice: product would have %d classes (max %d)", na*nb, MaxClasses)
	}
	classes := make([]string, 0, na*nb)
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			classes = append(classes, "("+a.names[i]+","+b.names[j]+")")
		}
	}
	var edges [][2]string
	for i1 := 0; i1 < na; i1++ {
		for j1 := 0; j1 < nb; j1++ {
			for i2 := 0; i2 < na; i2++ {
				for j2 := 0; j2 < nb; j2++ {
					if i1 == i2 && j1 == j2 {
						continue
					}
					if a.allowed[i1*na+i2] && b.allowed[j1*nb+j2] {
						edges = append(edges, [2]string{classes[i1*nb+j1], classes[i2*nb+j2]})
					}
				}
			}
		}
	}
	return NewLattice(classes, edges)
}

// PerByteKeyIntegrity returns an integrity lattice with per-key-byte classes,
// the fix applied at the end of the paper's immobilizer case study
// (Section VI-A): each byte i of the secret PIN gets its own class "K<i>"
// so that one key byte cannot overwrite another (which would reduce the
// encryption entropy and enable a byte-by-byte brute-force attack).
//
// Flows: K<i> -> HI -> LI. The K classes are pairwise incomparable, and no
// class flows *into* a K class: PIN bytes are only ever classified at
// provisioning time, never written at runtime.
func PerByteKeyIntegrity(keyBytes int) (*Lattice, error) {
	if keyBytes < 1 {
		return nil, fmt.Errorf("lattice: key must have at least 1 byte, got %d", keyBytes)
	}
	classes := []string{ClassHI, ClassLI}
	edges := [][2]string{{ClassHI, ClassLI}}
	for i := 0; i < keyBytes; i++ {
		k := fmt.Sprintf("K%d", i)
		classes = append(classes, k)
		edges = append(edges, [2]string{k, ClassHI})
	}
	return NewLattice(classes, edges)
}
