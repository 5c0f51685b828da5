package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"vpdift/internal/asm"
	"vpdift/internal/flight"
)

// profFrame is one entry of the profiler's shadow call stack.
type profFrame struct {
	entry     uint32 // callee entry pc (first retired pc after the call)
	startTot  uint64 // retire count when the frame was entered
	recursive bool   // entry already appears lower on the stack
}

// profNode is a node of the call tree: the stack of its parent node plus
// one frame entered at entry. Node 0 is the root, the empty stack.
type profNode struct {
	parent uint32
	entry  uint32
}

// Profiler is the guest hot-path profiler: it subscribes to the flight
// recorder's block records (OnRecords) and buckets retired instructions
// ("cycles" at the paper's one instruction per 10 ns clock) by pc. Every
// retire is in a block, so the flat histogram is an exact cycle
// attribution, not a statistical sample. Instructions that never retire —
// a violating, faulting or trapping one — are not counted.
//
// Call and return edges are tracked architecturally: a jal/jalr writing the
// link register (x1/x5) marks a pending call, a jalr through the link
// register with rd=x0 marks a pending return, and the *next* retired pc
// resolves the edge — the callee entry for a call, the resume point for a
// return. That deferred resolution is what makes indirect calls (jalr
// through a function pointer) attribute correctly without decoding operand
// values. The shadow stack yields self-vs-cumulative counts and folded
// stacks for flamegraph tools.
//
// Symbolization is deferred to report time via asm.Image.SymbolAt, so the
// per-retire cost is a couple of array writes.
type Profiler struct {
	img *asm.Image

	// Flat histogram: counts[i] covers pc lo+4*i, over the part of the
	// image inside the window [base, base+size); far catches every other
	// retire (code run outside the image).
	base, size uint32
	lo         uint32
	counts     []uint64
	far        map[uint32]uint64
	total      uint64

	// Call tracking state. Every stack the run reached is a node of the
	// call tree, interned by (parent node, entry); folded counts the
	// retires at each node's stack, and the folded-stack lines are built
	// from the tree when the report is written.
	pendingCall bool
	pendingRet  bool
	stack       []profFrame
	cum         map[uint32]uint64 // callee entry -> cumulative retires
	nodes       []profNode        // by node id
	nodeID      map[uint64]uint32 // parent<<32|entry -> node id
	folded      []uint64          // node id -> retires
	cur         uint32            // node of the current stack
	lastFlush   uint64
}

// NewProfiler creates a profiler for the pc window [base, base+size), size
// in bytes. It allocates no histogram: SetImage sizes the flat counters to
// the part of the loaded image inside the window, and every other retire
// falls back to a map.
func NewProfiler(base, size uint32) *Profiler {
	return &Profiler{
		base:   base,
		size:   size,
		far:    make(map[uint32]uint64),
		cum:    make(map[uint32]uint64),
		nodes:  []profNode{{}},
		nodeID: make(map[uint64]uint32),
		folded: []uint64{0},
	}
}

// SetImage attaches the loaded guest image for report-time symbolization
// and sizes the flat histogram to it. Call it before the first retire.
func (p *Profiler) SetImage(img *asm.Image) {
	p.img = img
	lo := max(img.Base, p.base) &^ 3
	hi := min(uint64(img.End()), uint64(p.base)+uint64(p.size))
	p.lo, p.counts = lo, nil
	if uint64(lo) < hi {
		p.counts = make([]uint64, (hi-uint64(lo)+3)/4)
	}
}

// OnRecords is the flight recorder's block subscriber
// (flight.Recorder.SubscribeBlocks): it profiles the batch's block records
// and skips the platform marks.
func (p *Profiler) OnRecords(recs []flight.Rec) {
	for i := range recs {
		if r := &recs[i]; r.Kind == flight.KindBlock {
			p.onBlock(r.PC, uint32(r.Aux), r.Insn)
		}
	}
}

// OnRetire profiles one retired instruction. pc is its address, insn its
// encoding.
func (p *Profiler) OnRetire(pc, insn uint32) { p.onBlock(pc, 1, insn) }

// onBlock profiles a block of n retires from pc, the last one's encoding
// insn (see flight.Rec). Only the last can be a call or a return: a jal or
// jalr ends its block.
func (p *Profiler) onBlock(pc, n, insn uint32) {
	// Resolve the edge opened by the previous instruction: the current pc is
	// the callee entry (call) or the caller resume point (return).
	if p.pendingCall {
		p.pendingCall = false
		p.flushFolded()
		rec := false
		for i := range p.stack {
			if p.stack[i].entry == pc {
				rec = true
				break
			}
		}
		p.stack = append(p.stack, profFrame{entry: pc, startTot: p.total, recursive: rec})
		p.cur = p.child(p.cur, pc)
	} else if p.pendingRet {
		p.pendingRet = false
		if n := len(p.stack); n > 0 {
			p.flushFolded()
			f := p.stack[n-1]
			p.stack = p.stack[:n-1]
			if !f.recursive {
				p.cum[f.entry] += p.total - f.startTot
			}
			p.cur = p.nodes[p.cur].parent
		}
	}

	p.total += uint64(n)
	if i := (pc - p.lo) >> 2; pc >= p.lo && uint64(i)+uint64(n) <= uint64(len(p.counts)) {
		for k := i; k < i+n; k++ {
			p.counts[k]++
		}
	} else {
		for k := uint32(0); k < n; k++ {
			if i := (pc + 4*k - p.lo) >> 2; uint64(i) < uint64(len(p.counts)) && pc+4*k >= p.lo {
				p.counts[i]++
			} else {
				p.far[pc+4*k]++
			}
		}
	}

	// Classify this instruction for the next retire. RISC-V convention:
	// writing x1/x5 is a call, jalr x0, 0(x1|x5) is a return.
	switch insn & 0x7f {
	case 0x6f: // jal
		rd := insn >> 7 & 31
		p.pendingCall = rd == 1 || rd == 5
	case 0x67: // jalr
		rd := insn >> 7 & 31
		rs1 := insn >> 15 & 31
		if rd == 1 || rd == 5 {
			p.pendingCall = true
		} else if rd == 0 && (rs1 == 1 || rs1 == 5) {
			p.pendingRet = true
		}
	}
}

// flushFolded charges the retires since the last stack change to the
// current stack's node.
func (p *Profiler) flushFolded() {
	if p.total > p.lastFlush {
		p.folded[p.cur] += p.total - p.lastFlush
		p.lastFlush = p.total
	}
}

// child returns the node for the stack of node parent plus a frame
// entered at entry, interning it on first use.
func (p *Profiler) child(parent, entry uint32) uint32 {
	key := uint64(parent)<<32 | uint64(entry)
	id, ok := p.nodeID[key]
	if !ok {
		id = uint32(len(p.nodes))
		p.nodes = append(p.nodes, profNode{parent: parent, entry: entry})
		p.folded = append(p.folded, 0)
		p.nodeID[key] = id
	}
	return id
}

// Total returns the number of retired instructions observed.
func (p *Profiler) Total() uint64 { return p.total }

// finalize flushes the folded accumulator and credits still-open frames
// with the retires up to now, returning a cumulative map that includes
// them. The live state is not consumed; finalize may be called repeatedly.
func (p *Profiler) finalize() map[uint32]uint64 {
	p.flushFolded()
	cum := make(map[uint32]uint64, len(p.cum))
	for k, v := range p.cum {
		cum[k] = v
	}
	for _, f := range p.stack {
		if !f.recursive {
			cum[f.entry] += p.total - f.startTot
		}
	}
	return cum
}

// symbolize names an address via the attached image: "main", "delay+0x8",
// or "0x80000123" without an image or symbol.
func (p *Profiler) symbolize(addr uint32) string {
	if p.img != nil {
		if name, off, ok := p.img.SymbolAt(addr); ok {
			if off == 0 {
				return name
			}
			return fmt.Sprintf("%s+0x%x", name, off)
		}
	}
	return fmt.Sprintf("0x%08x", addr)
}

// funcOf maps a pc to its containing symbol name (offset dropped), or a hex
// literal when unknown.
func (p *Profiler) funcOf(pc uint32) (string, bool) {
	if p.img != nil {
		if name, _, ok := p.img.SymbolAt(pc); ok {
			return name, true
		}
	}
	return fmt.Sprintf("0x%08x", pc), false
}

// eachPC visits every nonzero flat bucket.
func (p *Profiler) eachPC(f func(pc uint32, n uint64)) {
	for i, n := range p.counts {
		if n != 0 {
			f(p.lo+uint32(i)<<2, n)
		}
	}
	for pc, n := range p.far {
		f(pc, n)
	}
}

// Attributed returns the fraction of retired instructions whose pc resolves
// to a named symbol in the attached image (0 when nothing retired).
func (p *Profiler) Attributed() float64 {
	if p.total == 0 {
		return 0
	}
	var named uint64
	p.eachPC(func(pc uint32, n uint64) {
		if _, ok := p.funcOf(pc); ok {
			named += n
		}
	})
	return float64(named) / float64(p.total)
}

// FuncStat is one row of the top table.
type FuncStat struct {
	Name string
	Flat uint64 // retires at pcs inside the function
	Cum  uint64 // retires while the function was on the call stack
}

// Stats aggregates per-function flat and cumulative counts, sorted by flat
// count descending (ties by name).
func (p *Profiler) Stats() []FuncStat {
	flat := make(map[string]uint64)
	p.eachPC(func(pc uint32, n uint64) {
		name, _ := p.funcOf(pc)
		flat[name] += n
	})
	cum := make(map[string]uint64)
	for entry, n := range p.finalize() {
		name, _ := p.funcOf(entry)
		if n > cum[name] {
			cum[name] = n // recursion-adjacent entries: keep the widest span
		}
	}
	out := make([]FuncStat, 0, len(flat))
	for name, n := range flat {
		c := cum[name]
		if c < n {
			c = n // a function covers at least its own retires
		}
		out = append(out, FuncStat{Name: name, Flat: n, Cum: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flat != out[j].Flat {
			return out[i].Flat > out[j].Flat
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Hottest returns the function with the most flat retires.
func (p *Profiler) Hottest() (name string, flat uint64) {
	st := p.Stats()
	if len(st) == 0 {
		return "", 0
	}
	return st[0].Name, st[0].Flat
}

// WriteTop writes a pprof-style top table of at most n functions (n <= 0
// means all).
func (p *Profiler) WriteTop(w io.Writer, n int) error {
	st := p.Stats()
	if n > 0 && len(st) > n {
		st = st[:n]
	}
	total := p.total
	if total == 0 {
		total = 1
	}
	if _, err := fmt.Fprintf(w, "%12s %7s %12s %7s  %s\n", "flat", "flat%", "cum", "cum%", "function"); err != nil {
		return err
	}
	for _, s := range st {
		_, err := fmt.Fprintf(w, "%12d %6.2f%% %12d %6.2f%%  %s\n",
			s.Flat, 100*float64(s.Flat)/float64(total),
			s.Cum, 100*float64(s.Cum)/float64(total), s.Name)
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%12d retired instructions total\n", p.total)
	return err
}

// WriteFolded writes the collapsed call stacks in the "folded" format
// flamegraph tools consume: "root;funcA;funcB count" per line, sorted for
// determinism. The implicit root frame covers retires before the first call
// (crt0 and top-level code).
func (p *Profiler) WriteFolded(w io.Writer) error {
	// Also charge the open tail of the run to the current stack.
	p.flushFolded()
	lines := make(map[string]uint64)
	for id, v := range p.folded {
		if v != 0 {
			lines[p.stackLine(uint32(id))] += v
		}
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, lines[k]); err != nil {
			return err
		}
	}
	return nil
}

// stackLine renders node id's stack as a semicolon-joined symbol path
// rooted at "(root)".
func (p *Profiler) stackLine(id uint32) string {
	var entries []uint32
	for ; id != 0; id = p.nodes[id].parent {
		entries = append(entries, p.nodes[id].entry)
	}
	var b strings.Builder
	b.WriteString("(root)")
	for i := len(entries) - 1; i >= 0; i-- {
		b.WriteByte(';')
		b.WriteString(p.symbolize(entries[i]))
	}
	return b.String()
}
