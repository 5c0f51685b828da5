package cover

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"vpdift/internal/asm"
	"vpdift/internal/flight"
)

// GuestCov records guest code coverage from the flight recorder's stream
// (OnRecords): a per-word execution count (like the trace profiler's
// histogram) plus a dynamic control-flow edge set. Basic blocks and their
// totals are derived at report time by a static scan of the image text, so
// a retire costs an update of its word's slot: the execution count and, for
// a control transfer, an edge count. The platform feeds it the recorder's
// block records, which it counts without expanding them.
//
// The word slots cover the loaded image, where a guest's code and stack
// live. Each holds the word's fall-through edge and its first other
// successor; the edge map takes only an image word's further successors
// (the targets of a jalr that goes several places), a misaligned pc's
// edges and edges out of pcs outside the image. A retire elsewhere in the
// RAM window (code injected past the image) is counted in a map, so
// reports still show it.
type GuestCov struct {
	base, size uint32            // RAM window
	lo         uint32            // pc of words[0]: the image base
	words      []wordCov         // per word over the image
	far        map[uint32]uint64 // word pc -> count in the window outside words
	edges      map[uint64]uint64 // pc<<32|next -> traversals no word slot holds
	img        *asm.Image
	cfg        *staticCFG // lazily built from img; the image is fixed after load
}

// wordCov is one image word's coverage: its execution count and the edges
// out of it, pc -> pc+4 (a branch not taken, or taken to pc+4) and the
// first other successor seen.
type wordCov struct {
	n     uint64 // executions
	fall  uint64 // traversals of pc -> pc+4
	other uint64 // traversals of pc -> next; 0 while next is unset
	next  uint32
}

// NewGuest returns an unconfigured guest-coverage view; the platform sizes
// it via Configure at wiring time.
func NewGuest() *GuestCov {
	return &GuestCov{edges: make(map[uint64]uint64)}
}

// Configure binds the view to the RAM window: only pcs inside it are
// counted.
func (g *GuestCov) Configure(base, size uint32) {
	g.base, g.size = base, size
	g.far = make(map[uint32]uint64)
}

// configured reports whether a platform configured the view.
func (g *GuestCov) configured() bool { return g.far != nil }

// SetImage attaches the loaded program so reports can attribute coverage to
// functions and annotate disassembly, and sizes the word slots to it. Call
// it before the first retire.
func (g *GuestCov) SetImage(img *asm.Image) {
	g.img = img
	g.cfg = nil
	g.lo = img.Base &^ 3
	g.words = make([]wordCov, (img.End()-g.lo+3)/4)
}

// staticCFG returns the image's control-flow graph, built once: Stats runs
// on every telemetry sample, and the CFG depends only on the static text.
func (g *GuestCov) staticCFG() *staticCFG {
	if g.cfg == nil {
		g.cfg = buildCFG(g.img)
	}
	return g.cfg
}

// OnRecords is the flight recorder's block subscriber
// (flight.Recorder.SubscribeBlocks): it records the batch's block records
// and skips the platform marks.
func (g *GuestCov) OnRecords(recs []flight.Rec) {
	for i := range recs {
		if r := &recs[i]; r.Kind == flight.KindBlock {
			g.onBlock(r.PC, uint32(r.Aux), r.Insn, r.Addr)
		}
	}
}

// onBlock records a block of n retires from pc: n-1 that fell through to
// the next word, which count their words and nothing else, then the last,
// word last, continuing at next (see flight.Rec).
func (g *GuestCov) onBlock(pc, n, last, next uint32) {
	end := pc + 4*(n-1)
	if idx := (pc - g.lo) >> 2; pc >= g.lo && end >= pc && uint64(idx)+uint64(n-1) <= uint64(len(g.words)) {
		for k := idx; k < idx+n-1; k++ {
			g.words[k].n++
		}
	} else {
		for p := pc; p != end; p += 4 {
			g.OnRetire(p, 0, p+4)
		}
	}
	g.OnRetire(end, last, next)
}

// OnRetire records one retired instruction and, when the successor is not
// the fall-through (or the instruction is a conditional branch, whose
// not-taken edge matters for edge coverage), the control-flow edge: in the
// word's slots when they hold it or have room, in the edge map otherwise.
func (g *GuestCov) OnRetire(pc, insn, next uint32) {
	var w *wordCov
	if idx := (pc - g.lo) >> 2; int(idx) < len(g.words) {
		w = &g.words[idx]
		w.n++
	} else if pc-g.base < g.size {
		g.far[pc&^3]++
	}
	if next == pc+4 && insn&0x7f != opBranch {
		return
	}
	switch {
	case w == nil || pc&3 != 0:
	case next == pc+4:
		w.fall++
		return
	case w.other == 0 || w.next == next:
		w.next = next
		w.other++
		return
	}
	g.edges[uint64(pc)<<32|uint64(next)]++
}

// Count returns the execution count recorded for pc.
func (g *GuestCov) Count(pc uint32) uint64 {
	if idx := (pc - g.lo) >> 2; int(idx) < len(g.words) {
		return g.words[idx].n
	}
	return g.far[pc&^3]
}

// eachPC visits every word with a nonzero execution count, word slots
// first, then the map in no particular order.
func (g *GuestCov) eachPC(f func(pc uint32, n uint64)) {
	for idx := range g.words {
		if n := g.words[idx].n; n != 0 {
			f(g.lo+uint32(idx)*4, n)
		}
	}
	for pc, n := range g.far {
		f(pc, n)
	}
}

// eachEdge visits every traversed edge, keyed pc<<32|next: the word slots
// first, then the map in no particular order.
func (g *GuestCov) eachEdge(f func(e, n uint64)) {
	for idx := range g.words {
		w := &g.words[idx]
		pc := g.lo + uint32(idx)*4
		if w.fall != 0 {
			f(uint64(pc)<<32|uint64(pc+4), w.fall)
		}
		if w.other != 0 {
			f(uint64(pc)<<32|uint64(w.next), w.other)
		}
	}
	for e, n := range g.edges {
		f(e, n)
	}
}

// EdgeCount returns the traversal count of the control-flow edge from -> to.
func (g *GuestCov) EdgeCount(from, to uint32) uint64 {
	if idx := (from - g.lo) >> 2; from&3 == 0 && int(idx) < len(g.words) {
		w := &g.words[idx]
		switch {
		case to == from+4:
			return w.fall
		case w.other != 0 && w.next == to:
			return w.other
		}
	}
	return g.edges[uint64(from)<<32|uint64(to)]
}

// Raw RISC-V opcode fields; cover decodes control flow from raw bits (the
// profiler's technique) so it does not depend on internal/rv32.
const (
	opBranch = 0x63
	opJAL    = 0x6f
	opJALR   = 0x67
	opSystem = 0x73
)

// bImm extracts the sign-extended B-type branch offset.
func bImm(w uint32) int32 {
	imm := (w>>31&1)<<12 | (w>>7&1)<<11 | (w>>25&0x3f)<<5 | (w>>8&0xf)<<1
	return int32(imm<<19) >> 19
}

// jImm extracts the sign-extended J-type jump offset.
func jImm(w uint32) int32 {
	imm := (w>>31&1)<<20 | (w>>12&0xff)<<12 | (w>>20&1)<<11 | (w>>21&0x3ff)<<1
	return int32(imm<<11) >> 11
}

// textWord returns the instruction word at pc from the image text.
func textWord(img *asm.Image, pc uint32) uint32 {
	off := pc - img.Base
	return uint32(img.Text[off]) | uint32(img.Text[off+1])<<8 |
		uint32(img.Text[off+2])<<16 | uint32(img.Text[off+3])<<24
}

// fn is a function resolved from the image symbol table: label-like symbols
// inside .text, each extending to the next symbol or the end of text.
type fn struct {
	name       string
	start, end uint32
}

// functions lists the image's text functions in address order.
func functions(img *asm.Image) []fn {
	textEnd := img.Base + uint32(len(img.Text))
	var fns []fn
	for name, addr := range img.Symbols {
		if addr < img.Base || addr >= textEnd || isConstSym(name) {
			continue
		}
		fns = append(fns, fn{name: name, start: addr})
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].start != fns[j].start {
			return fns[i].start < fns[j].start
		}
		return fns[i].name < fns[j].name
	})
	// Collapse same-address aliases (keep the first by name) and close ranges.
	out := fns[:0]
	for _, f := range fns {
		if len(out) > 0 && out[len(out)-1].start == f.start {
			continue
		}
		out = append(out, f)
	}
	for i := range out {
		if i+1 < len(out) {
			out[i].end = out[i+1].start
		} else {
			out[i].end = textEnd
		}
	}
	return out
}

// isConstSym mirrors the image's ALL_CAPS-constant heuristic.
func isConstSym(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'a' && c <= 'z' {
			return false
		}
	}
	return true
}

// staticCFG is the statically-derivable control-flow structure of the image
// text: basic-block leaders and the edge set of direct branches and jumps.
// Indirect transfers (jalr, mret, traps) contribute dynamic edges only.
type staticCFG struct {
	leaders map[uint32]bool
	edges   map[uint64]bool // pc<<32|target for branch taken/fall-through and jal
}

func buildCFG(img *asm.Image) *staticCFG {
	cfg := &staticCFG{leaders: make(map[uint32]bool), edges: make(map[uint64]bool)}
	textEnd := img.Base + uint32(len(img.Text))
	inText := func(a uint32) bool { return a >= img.Base && a < textEnd }
	cfg.leaders[img.Entry] = true
	for _, f := range functions(img) {
		cfg.leaders[f.start] = true
	}
	for pc := img.Base; pc+4 <= textEnd; pc += 4 {
		w := textWord(img, pc)
		switch w & 0x7f {
		case opBranch:
			t := pc + uint32(bImm(w))
			if inText(t) {
				cfg.leaders[t] = true
				cfg.edges[uint64(pc)<<32|uint64(t)] = true
			}
			cfg.leaders[pc+4] = true
			cfg.edges[uint64(pc)<<32|uint64(pc+4)] = true
		case opJAL:
			t := pc + uint32(jImm(w))
			if inText(t) {
				cfg.leaders[t] = true
				cfg.edges[uint64(pc)<<32|uint64(t)] = true
			}
			cfg.leaders[pc+4] = true
		case opJALR, opSystem:
			cfg.leaders[pc+4] = true
		}
	}
	delete(cfg.leaders, textEnd)
	return cfg
}

// GuestStats summarizes guest coverage for the metrics registry and report
// headers.
type GuestStats struct {
	Insns, InsnsCovered   int
	Blocks, BlocksCovered int
	Edges, EdgesCovered   int
	DynOnlyEdges          int // executed edges outside the static set (indirect)
}

func pct(cov, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(cov) / float64(total)
}

// Stats computes coverage totals against the attached image; zero without
// one.
func (g *GuestCov) Stats() GuestStats {
	var s GuestStats
	if g.img == nil {
		return s
	}
	textEnd := g.img.Base + uint32(len(g.img.Text))
	for pc := g.img.Base; pc+4 <= textEnd; pc += 4 {
		s.Insns++
		if g.Count(pc) > 0 {
			s.InsnsCovered++
		}
	}
	cfg := g.staticCFG()
	for leader := range cfg.leaders {
		s.Blocks++
		if g.Count(leader) > 0 {
			s.BlocksCovered++
		}
	}
	for e := range cfg.edges {
		s.Edges++
		if g.EdgeCount(uint32(e>>32), uint32(e)) > 0 {
			s.EdgesCovered++
		}
	}
	g.eachEdge(func(e, _ uint64) {
		if !cfg.edges[e] {
			s.DynOnlyEdges++
		}
	})
	return s
}

// WriteLcov emits coverage in the lcov .info format (one DA record per
// instruction word, FN/FNDA records per function), mapping instruction words
// to lines as (pc-base)/4+1 — the convention genhtml and IDE gutters accept
// for flat assembly listings. srcName names the SF record.
func (g *GuestCov) WriteLcov(w io.Writer, srcName string) error {
	if g.img == nil {
		return fmt.Errorf("cover: no image attached; cannot export lcov")
	}
	img := g.img
	line := func(pc uint32) uint32 { return (pc-img.Base)/4 + 1 }
	if _, err := fmt.Fprintf(w, "TN:\nSF:%s\n", srcName); err != nil {
		return err
	}
	fns := functions(img)
	hit := 0
	for _, f := range fns {
		fmt.Fprintf(w, "FN:%d,%s\n", line(f.start), f.name)
	}
	for _, f := range fns {
		c := g.Count(f.start)
		if c > 0 {
			hit++
		}
		fmt.Fprintf(w, "FNDA:%d,%s\n", c, f.name)
	}
	fmt.Fprintf(w, "FNF:%d\nFNH:%d\n", len(fns), hit)
	textEnd := img.Base + uint32(len(img.Text))
	lf, lh := 0, 0
	for pc := img.Base; pc+4 <= textEnd; pc += 4 {
		c := g.Count(pc)
		lf++
		if c > 0 {
			lh++
		}
		fmt.Fprintf(w, "DA:%d,%d\n", line(pc), c)
	}
	_, err := fmt.Fprintf(w, "LF:%d\nLH:%d\nend_of_record\n", lf, lh)
	return err
}

// WriteReport renders the human-readable coverage report: overall and
// per-function percentages, an annotated disassembly of the image text
// (execution count per instruction, uncovered lines marked), and any
// executed address ranges outside the image — injected code a WK attack
// managed to run shows up here. disasm may be nil; when non-nil it renders
// each instruction word (callers pass rv32.Disassemble).
func (g *GuestCov) WriteReport(w io.Writer, disasm func(insn, pc uint32) string) error {
	if g.img == nil {
		_, err := fmt.Fprintln(w, "guest coverage: no image attached")
		return err
	}
	img := g.img
	s := g.Stats()
	fmt.Fprintf(w, "guest coverage: %d/%d instructions (%.1f%%), %d/%d blocks (%.1f%%), %d/%d edges (%.1f%%)",
		s.InsnsCovered, s.Insns, pct(s.InsnsCovered, s.Insns),
		s.BlocksCovered, s.Blocks, pct(s.BlocksCovered, s.Blocks),
		s.EdgesCovered, s.Edges, pct(s.EdgesCovered, s.Edges))
	if s.DynOnlyEdges > 0 {
		fmt.Fprintf(w, " (+%d indirect edges)", s.DynOnlyEdges)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "per-function coverage:")
	for _, f := range functions(img) {
		total, cov := 0, 0
		var execs uint64
		for pc := f.start; pc+4 <= f.end; pc += 4 {
			total++
			if c := g.Count(pc); c > 0 {
				cov++
				execs += c
			}
		}
		fmt.Fprintf(w, "  %-24s %3d/%3d insns %6.1f%%  %10d executions\n",
			f.name, cov, total, pct(cov, total), execs)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "annotated disassembly (count | pc | insn):")
	textEnd := img.Base + uint32(len(img.Text))
	cfg := buildCFG(img)
	for pc := img.Base; pc+4 <= textEnd; pc += 4 {
		if cfg.leaders[pc] {
			if name, off, ok := img.SymbolAt(pc); ok && off == 0 && !isConstSym(name) {
				fmt.Fprintf(w, "%s:\n", name)
			}
		}
		insn := textWord(img, pc)
		c := g.Count(pc)
		mark := fmt.Sprintf("%10d", c)
		if c == 0 {
			mark = "         -"
		}
		dis := fmt.Sprintf(".word 0x%08x", insn)
		if disasm != nil {
			dis = disasm(insn, pc)
		}
		fmt.Fprintf(w, "  %s  0x%08x  %s\n", mark, pc, dis)
	}

	if ranges := g.executedOutside(); len(ranges) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "executed outside the image (injected or stale code):")
		for _, r := range ranges {
			fmt.Fprintf(w, "  [0x%08x, 0x%08x)  %d executions\n", r.start, r.end, r.execs)
		}
	}
	return nil
}

type execRange struct {
	start, end uint32
	execs      uint64
}

// executedOutside lists contiguous executed ranges not covered by the image
// text.
func (g *GuestCov) executedOutside() []execRange {
	textEnd := g.img.Base + uint32(len(g.img.Text))
	var pcs []uint32
	g.eachPC(func(pc uint32, _ uint64) {
		if pc < g.img.Base || pc >= textEnd {
			pcs = append(pcs, pc)
		}
	})
	slices.Sort(pcs)
	var out []execRange
	for _, pc := range pcs {
		c := g.Count(pc)
		if n := len(out); n > 0 && out[n-1].end == pc {
			out[n-1].end = pc + 4
			out[n-1].execs += c
		} else {
			out = append(out, execRange{start: pc, end: pc + 4, execs: c})
		}
	}
	return out
}

// Summary returns a one-line coverage summary for log output.
func (g *GuestCov) Summary() string {
	s := g.Stats()
	return strings.TrimSpace(fmt.Sprintf("insns %.1f%% blocks %.1f%% edges %.1f%%",
		pct(s.InsnsCovered, s.Insns), pct(s.BlocksCovered, s.Blocks), pct(s.EdgesCovered, s.Edges)))
}
