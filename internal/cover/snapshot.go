package cover

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vpdift/internal/core"
)

// SnapshotSchema versions the serialized coverage snapshot. Bump it on any
// change to the snapshot shape; ParseSnapshot rejects other schemas so a
// stale baseline fails loudly instead of diffing garbage.
const SnapshotSchema = "vpdift.cover/v1"

// RunID identifies one captured run inside a snapshot: what ran (image and
// policy content hashes), under which labels, and a content digest of the
// run's own coverage. The digest is what makes Merge idempotent — merging a
// snapshot whose runs are already present is a no-op, so merge(S, S) == S.
type RunID struct {
	Digest   string `json:"digest,omitempty"`
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Image    string `json:"image_sha256,omitempty"`
	PolicyID string `json:"policy_sha256,omitempty"`
}

// Verdict records a run's detection outcome so diffs can flag verdict flips
// (a workload/policy pair that used to be detected and no longer is, or vice
// versa).
type Verdict struct {
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Detected bool   `json:"detected"`
	Kind     string `json:"kind,omitempty"` // violation kind when detected
	PC       string `json:"pc,omitempty"`   // violating pc when detected
	Exited   bool   `json:"exited,omitempty"`
	ExitCode uint32 `json:"exit_code,omitempty"`
	Error    string `json:"error,omitempty"` // non-violation run error
}

// outcome renders the comparable detection outcome (location-independent:
// the violating pc may legitimately move without being a flip).
func (v Verdict) outcome() string {
	switch {
	case v.Detected:
		return "detected (" + v.Kind + ")"
	case v.Error != "":
		return "error"
	case v.Exited:
		return "clean (exit " + strconv.FormatUint(uint64(v.ExitCode), 10) + ")"
	default:
		return "clean"
	}
}

// GuestSnap serializes guest code coverage: nonzero per-instruction hit
// counts and the dynamic control-flow edge set, both keyed by hex addresses
// so encoding/json's sorted map keys make the export byte-deterministic.
type GuestSnap struct {
	Base  string            `json:"base"`
	Hits  map[string]uint64 `json:"hits,omitempty"`  // "0xPC" -> execution count
	Edges map[string]uint64 `json:"edges,omitempty"` // "0xPC->0xNEXT" -> traversals
}

// TaintSnap serializes taint coverage: the ever-tainted bitmap as sorted
// half-open address ranges, lifetime per-class tainted-write counts, and
// register-file taint occupancy.
type TaintSnap struct {
	Ever        []string          `json:"ever,omitempty"` // "0xLO-0xHI" half-open
	ClassWrites map[string]uint64 `json:"class_writes,omitempty"`
	RegOcc      []uint64          `json:"reg_occupancy,omitempty"` // 32 entries
	Retires     uint64            `json:"retires"`
	Churn       uint64            `json:"churn"`
}

// AuditSnap serializes the policy audit: per-edge LUB/flow hit counts,
// check/violation counts per clearance point, and the run's dead-rule list.
// Points is keyed "exec:fetch" / "exec:branch" / "exec:mem-addr" /
// "output:<port>" / "region:<name>".
type AuditSnap struct {
	Classes   []string             `json:"classes,omitempty"`
	LUB       map[string]uint64    `json:"lub,omitempty"`  // "A->B" -> count
	Flow      map[string]uint64    `json:"flow,omitempty"` // "A->B" -> count
	Points    map[string]PointStat `json:"points,omitempty"`
	DeadRules []string             `json:"dead_rules"`
}

// Snapshot is the versioned, byte-deterministic cross-run coverage record:
// everything the three cover views accumulated in one run (or, after Merge,
// across many), plus run identity and detection verdicts. It is the exchange
// format between campaign cells, the rollup endpoint, wk-suite exports, and
// the vp-diff regression guard.
type Snapshot struct {
	Schema   string     `json:"schema"`
	Runs     []RunID    `json:"runs"`
	Guest    *GuestSnap `json:"guest,omitempty"`
	Taint    *TaintSnap `json:"taint,omitempty"`
	Audit    *AuditSnap `json:"audit,omitempty"`
	Verdicts []Verdict  `json:"verdicts,omitempty"`
}

func hexAddr(a uint32) string { return fmt.Sprintf("0x%08x", a) }

func edgeKey(e uint64) string {
	return hexAddr(uint32(e>>32)) + "->" + hexAddr(uint32(e))
}

// Capture freezes the current state of a Cover into a snapshot. Views the
// platform never configured (the Taint and Audit views on a baseline VP) are
// omitted. verdict may be nil for runs with no meaningful outcome. The
// returned snapshot carries run's content digest, so later Merges can
// recognize it.
func Capture(c *Cover, run RunID, verdict *Verdict) *Snapshot {
	s := &Snapshot{Schema: SnapshotSchema}
	if c != nil {
		if g := c.Guest; g != nil && g.configured() {
			gs := &GuestSnap{Base: hexAddr(g.base), Hits: map[string]uint64{}, Edges: map[string]uint64{}}
			g.eachPC(func(pc uint32, n uint64) { gs.Hits[hexAddr(pc)] = n })
			g.eachEdge(func(e, n uint64) { gs.Edges[edgeKey(e)] = n })
			s.Guest = gs
		}
		if t := c.Taint; t != nil && t.pages != nil {
			occ := t.regOccupancy()
			ts := &TaintSnap{
				ClassWrites: map[string]uint64{},
				RegOcc:      occ[:],
				Retires:     t.retires,
				Churn:       t.ChurnTotal(),
			}
			for _, r := range t.taintedRanges() {
				ts.Ever = append(ts.Ever, hexAddr(t.base+r.start)+"-"+hexAddr(t.base+r.end))
			}
			for i, n := range t.classWrites {
				if n != 0 {
					ts.ClassWrites[t.lat.Name(core.Tag(i))] = n
				}
			}
			s.Taint = ts
		}
		if a := c.Audit; a != nil && a.Configured() {
			s.Audit = captureAudit(a)
		}
	}
	if verdict != nil {
		s.Verdicts = []Verdict{*verdict}
	}
	run.Digest = s.fingerprint()
	s.Runs = []RunID{run}
	s.normalize()
	return s
}

func captureAudit(a *PolicyAudit) *AuditSnap {
	as := &AuditSnap{
		Classes:   append([]string(nil), a.lat.Classes()...),
		LUB:       map[string]uint64{},
		Flow:      map[string]uint64{},
		Points:    a.Points(),
		DeadRules: append([]string{}, a.DeadRules()...),
	}
	n := a.lat.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			key := a.lat.Name(core.Tag(i)) + "->" + a.lat.Name(core.Tag(j))
			if c := a.lubPair[i*n+j]; c != 0 {
				as.LUB[key] = c
			}
			if c := a.flowPair[i*n+j]; c != 0 {
				as.Flow[key] = c
			}
		}
	}
	return as
}

// normalize brings the snapshot into canonical order so that export is
// byte-deterministic: maps serialize sorted by encoding/json already, and
// every slice is sorted here.
func (s *Snapshot) normalize() {
	sort.Slice(s.Runs, func(i, j int) bool {
		a, b := s.Runs[i], s.Runs[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Digest < b.Digest
	})
	if s.Taint != nil {
		sort.Strings(s.Taint.Ever)
	}
	if s.Audit != nil {
		sort.Strings(s.Audit.Classes)
		sort.Strings(s.Audit.DeadRules)
		if s.Audit.DeadRules == nil {
			s.Audit.DeadRules = []string{}
		}
	}
	sort.Slice(s.Verdicts, func(i, j int) bool {
		a, b := s.Verdicts[i], s.Verdicts[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.outcome() < b.outcome()
	})
}

// fingerprint computes the run content digest: sha256 over the canonical
// JSON with all run digests cleared (so the digest does not depend on
// itself).
func (s *Snapshot) fingerprint() string {
	c := s.Clone()
	for i := range c.Runs {
		c.Runs[i].Digest = ""
	}
	sum := sha256.Sum256(c.JSON())
	return hex.EncodeToString(sum[:16])
}

// Clone deep-copies the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{Schema: s.Schema}
	c.Runs = append([]RunID(nil), s.Runs...)
	c.Verdicts = append([]Verdict(nil), s.Verdicts...)
	if s.Guest != nil {
		c.Guest = &GuestSnap{Base: s.Guest.Base, Hits: cloneCounts(s.Guest.Hits), Edges: cloneCounts(s.Guest.Edges)}
	}
	if s.Taint != nil {
		t := *s.Taint
		t.Ever = append([]string(nil), s.Taint.Ever...)
		t.ClassWrites = cloneCounts(s.Taint.ClassWrites)
		t.RegOcc = append([]uint64(nil), s.Taint.RegOcc...)
		c.Taint = &t
	}
	if s.Audit != nil {
		a := *s.Audit
		a.Classes = append([]string(nil), s.Audit.Classes...)
		a.LUB = cloneCounts(s.Audit.LUB)
		a.Flow = cloneCounts(s.Audit.Flow)
		a.Points = make(map[string]PointStat, len(s.Audit.Points))
		for k, v := range s.Audit.Points {
			a.Points[k] = v
		}
		a.DeadRules = append([]string{}, s.Audit.DeadRules...)
		c.Audit = &a
	}
	return c
}

func cloneCounts(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// JSON renders the canonical byte-deterministic export: two identical
// snapshots always serialize to identical bytes.
func (s *Snapshot) JSON() []byte {
	c := s.Clone()
	c.normalize()
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil { // only on unrepresentable values; the schema has none
		panic("cover: snapshot marshal: " + err.Error())
	}
	return append(b, '\n')
}

// WriteJSON writes the canonical export to w.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	_, err := w.Write(s.JSON())
	return err
}

// ParseSnapshot decodes and validates a serialized snapshot, normalizing it
// so that re-export reproduces the canonical bytes.
func ParseSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("cover: parse snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("cover: snapshot schema %q, want %q", s.Schema, SnapshotSchema)
	}
	if s.Guest != nil {
		if _, err := parseAddr(s.Guest.Base); err != nil {
			return nil, fmt.Errorf("cover: snapshot guest base: %w", err)
		}
	}
	if s.Taint != nil {
		for _, r := range s.Taint.Ever {
			if _, _, err := parseSpan(r); err != nil {
				return nil, fmt.Errorf("cover: snapshot taint range: %w", err)
			}
		}
	}
	s.normalize()
	return &s, nil
}

// EdgeCount returns the number of distinct dynamic control-flow edges.
// Nil-safe, like the other count accessors: an absent snapshot counts zero.
func (s *Snapshot) EdgeCount() int {
	if s == nil || s.Guest == nil {
		return 0
	}
	return len(s.Guest.Edges)
}

// BlockCount returns the number of distinct executed instruction addresses.
func (s *Snapshot) BlockCount() int {
	if s == nil || s.Guest == nil {
		return 0
	}
	return len(s.Guest.Hits)
}

// TaintBytes returns the total ever-tainted byte count across all ranges.
func (s *Snapshot) TaintBytes() uint64 {
	if s == nil || s.Taint == nil {
		return 0
	}
	return spanBytes(parseSpans(s.Taint.Ever))
}

func parseAddr(s string) (uint64, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad address %q", s)
	}
	return v, nil
}

func parseSpan(s string) (lo, hi uint64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("bad range %q", s)
	}
	if lo, err = parseAddr(a); err != nil {
		return 0, 0, err
	}
	if hi, err = parseAddr(b); err != nil {
		return 0, 0, err
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("inverted range %q", s)
	}
	return lo, hi, nil
}

// span is a half-open [lo, hi) address interval used for taint-bitmap set
// algebra in Merge and Diff.
type span struct{ lo, hi uint64 }

// parseSpans decodes range strings, dropping malformed ones (ParseSnapshot
// already validated external input), and normalizes: sorted, coalesced,
// non-overlapping.
func parseSpans(rs []string) []span {
	var out []span
	for _, r := range rs {
		lo, hi, err := parseSpan(r)
		if err != nil || lo == hi {
			continue
		}
		out = append(out, span{lo, hi})
	}
	return normalizeSpans(out)
}

func normalizeSpans(in []span) []span {
	sort.Slice(in, func(i, j int) bool { return in[i].lo < in[j].lo })
	var out []span
	for _, s := range in {
		if n := len(out); n > 0 && s.lo <= out[n-1].hi {
			if s.hi > out[n-1].hi {
				out[n-1].hi = s.hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// subtractSpans returns the parts of a not covered by b.
func subtractSpans(a, b []span) []span {
	var out []span
	j := 0
	for _, s := range a {
		lo := s.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		k := j
		for k < len(b) && b[k].lo < s.hi {
			if b[k].lo > lo {
				out = append(out, span{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
			k++
		}
		if lo < s.hi {
			out = append(out, span{lo, s.hi})
		}
	}
	return out
}

func spanBytes(ss []span) uint64 {
	var n uint64
	for _, s := range ss {
		n += s.hi - s.lo
	}
	return n
}

func formatSpans(ss []span) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = hexAddr(uint32(s.lo)) + "-" + hexAddr(uint32(s.hi))
	}
	return out
}
