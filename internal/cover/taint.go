package cover

import (
	"fmt"
	"io"
	"math/bits"

	"vpdift/internal/core"
)

// TaintCov records where taint went: a per-byte ever-tainted bitmap and
// churn counter over the RAM window, per-class tainted-write counts, and
// per-register taint-occupancy statistics. It is fed from three sites that
// together see every tag the platform writes: the VP+ core's store fast
// path (OnStore), the tainted memory's write hook for bus-initiated writes
// (OnMemWrite — DMA and TLM transactions bypass the core), and the
// load-time classification seeding (InitFromRAM).
//
// The per-byte state lives in 4 KiB pages, allocated when a non-default
// tag first reaches one: a page nobody tainted holds the default tag in
// every byte, was never tainted and never churned, so it needs no storage,
// and the reports walk only allocated pages. A run pays for the RAM its
// taint touched, not for the RAM window.
type TaintCov struct {
	base uint32
	size uint32
	def  core.Tag
	lat  *core.Lattice

	pages       []*taintPage // by offset>>pageShift; nil until tainted
	classWrites []uint64     // per-class tainted byte-write counts

	// Register occupancy is kept as spans: bit r of regOpen is set while
	// register r holds a non-default tag, since regSince[r]; regOcc[r] sums
	// the closed spans. A retire can change only its rd, so each retire
	// updates one register (OnRetire), and SyncRegs catches writes made
	// between runs.
	regOcc   [32]uint64
	regSince [32]uint64
	regOpen  uint32
	retires  uint64
}

// Page geometry of the per-byte state.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// taintPage is the per-byte state of one 4 KiB page of the RAM window.
type taintPage struct {
	shadow [pageSize]core.Tag    // last observed tag per byte, for churn detection
	ever   [pageSize / 64]uint64 // 1 bit per byte: ever held a non-default tag
	churn  [pageSize / 4]uint32  // per-word count of byte tag changes
}

// NewTaint returns an unconfigured taint-coverage view; the platform sizes
// it via Configure at wiring time.
func NewTaint() *TaintCov { return &TaintCov{} }

// Configure sizes the page table to the RAM window and binds the policy's
// lattice and default class.
func (t *TaintCov) Configure(base, size uint32, lat *core.Lattice, def core.Tag) {
	t.base, t.size, t.lat, t.def = base, size, lat, def
	t.pages = make([]*taintPage, (uint64(size)+pageSize-1)>>pageShift)
	t.classWrites = make([]uint64, lat.Size())
}

// page returns the page holding RAM offset off, allocating it when tag is
// the first non-default tag to reach it; nil means the page is untouched
// and tag is the default, which changes nothing.
func (t *TaintCov) page(off uint32, tag core.Tag) *taintPage {
	p := t.pages[off>>pageShift]
	if p == nil && tag != t.def {
		p = new(taintPage)
		for i := range p.shadow {
			p.shadow[i] = t.def
		}
		t.pages[off>>pageShift] = p
	}
	return p
}

// pageLen is the number of RAM bytes page i covers (the last page of a
// window that is not a whole number of pages is short).
func (t *TaintCov) pageLen(i int) int {
	return int(min(uint64(t.size)-uint64(i)<<pageShift, pageSize))
}

// noteByte records one tag written to RAM offset off.
func (t *TaintCov) noteByte(off uint32, tag core.Tag) {
	if off >= t.size {
		return
	}
	p := t.page(off, tag)
	if p == nil {
		return
	}
	o := off & (pageSize - 1)
	if tag != t.def {
		p.ever[o>>6] |= 1 << (o & 63)
		if int(tag) < len(t.classWrites) {
			t.classWrites[tag]++
		}
	}
	if p.shadow[o] != tag {
		p.churn[o>>2]++
		p.shadow[o] = tag
	}
}

// OnStore records a CPU store of size bytes carrying tag at addr. Called
// from the VP+ core's post-retire cover hook (the direct-RAM store path does
// not pass through the memory's write hooks).
func (t *TaintCov) OnStore(addr, size uint32, tag core.Tag) {
	for j := uint32(0); j < size; j++ {
		t.noteByte(addr+j-t.base, tag)
	}
}

// OnMemWrite records a bus-initiated write (DMA descriptor fill, TLM
// transaction): data holds the bytes just written starting at RAM offset
// startOff, tags included.
func (t *TaintCov) OnMemWrite(data []core.TByte, startOff uint32) {
	for j, b := range data {
		t.noteByte(startOff+uint32(j), b.T)
	}
}

// InitFromRAM seeds the shadow tags of the freshly loaded and classified
// RAM bytes in data, which start at RAM offset startOff: classification
// roots (the immobilizer PIN region, HI text) count as ever-tainted, but
// seeding does not count as churn. The platform seeds only the ranges Load
// tags (the image and the classification regions); every other byte holds
// the default tag, which an untouched page already records.
func (t *TaintCov) InitFromRAM(data []core.TByte, startOff uint32) {
	for j, b := range data {
		off := startOff + uint32(j)
		if off >= t.size {
			return
		}
		p := t.page(off, b.T)
		if p == nil {
			continue
		}
		o := off & (pageSize - 1)
		p.shadow[o] = b.T
		if b.T != t.def {
			p.ever[o>>6] |= 1 << (o & 63)
		}
	}
}

// OnRetire samples register-file taint occupancy at one retired
// instruction that left tag in its destination register rd (0 when it has
// none): the only register a retire can change.
func (t *TaintCov) OnRetire(rd uint8, tag core.Tag) {
	t.noteReg(rd, tag, t.retires)
	t.retires++
}

// SyncRegs brings the occupancy spans in line with the register file, for
// writes made outside a retire (a caller poking registers between runs).
// The VP+ core calls it at the start of every Run.
func (t *TaintCov) SyncRegs(regs *[32]core.Word) {
	for r := 1; r < 32; r++ {
		t.noteReg(uint8(r), regs[r].T, t.retires)
	}
}

// noteReg opens or closes register r's span when its tag crosses between
// the default and a non-default class. A span opened at retire count at
// covers every later retire; closing it at at counts the retires up to at.
func (t *TaintCov) noteReg(r uint8, tag core.Tag, at uint64) {
	if r == 0 || (tag != t.def) == (t.regOpen>>r&1 != 0) {
		return
	}
	if tag != t.def {
		t.regOpen |= 1 << r
		t.regSince[r] = at
	} else {
		t.regOpen &^= 1 << r
		t.regOcc[r] += at - t.regSince[r]
	}
}

// regOccupancy returns, per register, the retires during which it held a
// non-default tag, with still-open spans counted up to now.
func (t *TaintCov) regOccupancy() [32]uint64 {
	occ := t.regOcc
	for r := 1; r < 32; r++ {
		if t.regOpen>>r&1 != 0 {
			occ[r] += t.retires - t.regSince[r]
		}
	}
	return occ
}

// EverTainted counts RAM bytes that ever held a non-default tag.
func (t *TaintCov) EverTainted() uint64 {
	var n uint64
	for _, p := range t.pages {
		if p == nil {
			continue
		}
		for _, w := range p.ever {
			n += uint64(bits.OnesCount64(w))
		}
	}
	return n
}

// ChurnTotal sums all per-word tag-change counts.
func (t *TaintCov) ChurnTotal() uint64 {
	var n uint64
	for _, p := range t.pages {
		if p == nil {
			continue
		}
		for _, c := range p.churn {
			n += uint64(c)
		}
	}
	return n
}

// residency counts bytes currently holding each class, from the shadow
// tags; untouched pages hold the default class.
func (t *TaintCov) residency() []uint64 {
	out := make([]uint64, len(t.classWrites))
	untouched := uint64(t.size)
	for i, p := range t.pages {
		if p == nil {
			continue
		}
		n := t.pageLen(i)
		for _, tag := range p.shadow[:n] {
			if int(tag) < len(out) {
				out[tag]++
			}
		}
		untouched -= uint64(n)
	}
	if int(t.def) < len(out) {
		out[t.def] += untouched
	}
	return out
}

type taintRange struct {
	start, end uint32 // offsets
	churn      uint64
}

// taintedRanges walks the allocated pages' ever-tainted bitmaps into
// contiguous byte ranges.
func (t *TaintCov) taintedRanges() []taintRange {
	var out []taintRange
	for i, p := range t.pages {
		if p == nil {
			continue
		}
		pageOff := uint32(i) << pageShift
		for o := uint32(0); o < uint32(t.pageLen(i)); o++ {
			if p.ever[o>>6]&(1<<(o&63)) == 0 {
				continue
			}
			off := pageOff + o
			if n := len(out); n > 0 && out[n-1].end == off {
				out[n-1].end = off + 1
			} else {
				out = append(out, taintRange{start: off, end: off + 1})
			}
		}
	}
	for i := range out {
		for w := out[i].start &^ 3; w < out[i].end; w += 4 {
			// Every byte of a range was tainted, so its words' pages exist.
			out[i].churn += uint64(t.pages[w>>pageShift].churn[w&(pageSize-1)>>2])
		}
	}
	return out
}

// heatBar renders churn-per-byte as a coarse five-step heat scale.
func heatBar(churn uint64, bytes uint32) string {
	if bytes == 0 {
		return ""
	}
	per := float64(churn) / float64(bytes)
	switch {
	case per == 0:
		return "."
	case per < 1:
		return "▁"
	case per < 4:
		return "▃"
	case per < 16:
		return "▅"
	default:
		return "█"
	}
}

// WriteHeat renders the compact address-range heat report: ever-tainted
// ranges with churn heat, per-class residency, and register taint
// occupancy. symAt may be nil; when non-nil it annotates range starts
// (callers pass a closure over the image's SymbolAt).
func (t *TaintCov) WriteHeat(w io.Writer, symAt func(addr uint32) string) error {
	if t.pages == nil {
		_, err := fmt.Fprintln(w, "taint coverage: not configured")
		return err
	}
	fmt.Fprintf(w, "taint heatmap: %d bytes ever tainted, %d tag changes over %d retires\n\n",
		t.EverTainted(), t.ChurnTotal(), t.retires)

	fmt.Fprintln(w, "tainted address ranges (heat = tag changes per byte):")
	for _, r := range t.taintedRanges() {
		start, end := t.base+r.start, t.base+r.end
		sym := ""
		if symAt != nil {
			if s := symAt(start); s != "" {
				sym = "  <" + s + ">"
			}
		}
		fmt.Fprintf(w, "  %s [0x%08x, 0x%08x) %6d bytes  churn %-8d%s\n",
			heatBar(r.churn, r.end-r.start), start, end, r.end-r.start, r.churn, sym)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "per-class residency (current) and tainted writes (lifetime):")
	res := t.residency()
	for i, n := range res {
		if core.Tag(i) == t.def && t.classWrites[i] == 0 {
			continue // the default class covers everything else; skip unless written
		}
		fmt.Fprintf(w, "  %-12s %10d bytes resident  %10d bytes written\n",
			t.lat.Name(core.Tag(i)), n, t.classWrites[i])
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "register taint occupancy (fraction of retires with a non-default tag):")
	any := false
	occ := t.regOccupancy()
	for i := 1; i < 32; i++ {
		if occ[i] == 0 {
			continue
		}
		any = true
		fmt.Fprintf(w, "  x%-3d %6.2f%%  (%d/%d retires)\n",
			i, 100*float64(occ[i])/float64(t.retires), occ[i], t.retires)
	}
	if !any {
		fmt.Fprintln(w, "  (no register ever held tainted data)")
	}
	return nil
}
