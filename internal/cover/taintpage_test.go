package cover

import (
	"math/rand"
	"testing"

	"vpdift/internal/core"
)

// denseTaint is the reference for TaintCov's paged storage: the per-byte
// shadow, ever-tainted and churn state over the whole RAM window, updated
// the way the paged view must behave.
type denseTaint struct {
	def         core.Tag
	shadow      []core.Tag
	ever        []bool
	churn       []uint32 // per word
	classWrites []uint64
}

func newDense(size uint32, def core.Tag, classes int) *denseTaint {
	d := &denseTaint{def: def, shadow: make([]core.Tag, size), ever: make([]bool, size),
		churn: make([]uint32, (size+3)/4), classWrites: make([]uint64, classes)}
	for i := range d.shadow {
		d.shadow[i] = def
	}
	return d
}

func (d *denseTaint) note(off uint32, tag core.Tag) {
	if int(off) >= len(d.shadow) {
		return
	}
	if tag != d.def {
		d.ever[off] = true
		d.classWrites[tag]++
	}
	if d.shadow[off] != tag {
		d.churn[off/4]++
		d.shadow[off] = tag
	}
}

func (d *denseTaint) seed(data []core.TByte, start uint32) {
	for j, b := range data {
		if off := start + uint32(j); int(off) < len(d.shadow) {
			d.shadow[off] = b.T
			d.ever[off] = d.ever[off] || b.T != d.def
		}
	}
}

// check compares every byte's state and every derived total.
func (d *denseTaint) check(t *testing.T, tc *TaintCov, when string) {
	t.Helper()
	var ever, churn uint64
	res := make([]uint64, len(d.classWrites))
	var ranges []taintRange
	for off := range d.shadow {
		o := uint32(off)
		p := tc.pages[o>>pageShift]
		shadow, isEver, c := tc.def, false, uint32(0)
		if p != nil {
			po := o & (pageSize - 1)
			shadow, isEver, c = p.shadow[po], p.ever[po>>6]>>(po&63)&1 != 0, p.churn[po>>2]
		}
		if shadow != d.shadow[o] || isEver != d.ever[o] || c != d.churn[o/4] {
			t.Fatalf("%s: offset %#x: pages shadow=%d ever=%v churn=%d, dense %d %v %d",
				when, o, shadow, isEver, c, d.shadow[o], d.ever[o], d.churn[o/4])
		}
		res[d.shadow[o]]++
		if d.ever[o] {
			ever++
			if n := len(ranges); n > 0 && ranges[n-1].end == o {
				ranges[n-1].end = o + 1
			} else {
				ranges = append(ranges, taintRange{start: o, end: o + 1})
			}
		}
	}
	for _, c := range d.churn {
		churn += uint64(c)
	}
	for i := range ranges {
		for w := ranges[i].start &^ 3; w < ranges[i].end; w += 4 {
			ranges[i].churn += uint64(d.churn[w/4])
		}
	}
	if got := tc.EverTainted(); got != ever {
		t.Errorf("%s: EverTainted %d, dense %d", when, got, ever)
	}
	if got := tc.ChurnTotal(); got != churn {
		t.Errorf("%s: ChurnTotal %d, dense %d", when, got, churn)
	}
	if got := tc.residency(); !equalCounts(got, res) {
		t.Errorf("%s: residency %v, dense %v", when, got, res)
	}
	if !equalCounts(tc.classWrites, d.classWrites) {
		t.Errorf("%s: class writes %v, dense %v", when, tc.classWrites, d.classWrites)
	}
	got := tc.taintedRanges()
	if len(got) != len(ranges) {
		t.Fatalf("%s: %d tainted ranges, dense %d", when, len(got), len(ranges))
	}
	for i := range got {
		if got[i] != ranges[i] {
			t.Errorf("%s: range %d = %+v, dense %+v", when, i, got[i], ranges[i])
		}
	}
}

func equalCounts(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func defBytes(n int, def core.Tag) []core.TByte {
	b := make([]core.TByte, n)
	for i := range b {
		b[i].T = def
	}
	return b
}

func allocatedPages(tc *TaintCov) int {
	n := 0
	for _, p := range tc.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestTaintPagesMatchDense holds the paged TaintCov against the dense
// reference over seeded loads, random CPU stores and DMA writes, on RAM
// sizes with and without a partial last page.
func TestTaintPagesMatchDense(t *testing.T) {
	// IFP-3 has four classes; a nonzero default checks that fresh pages
	// start at the default tag, not at zero.
	l := core.IFP3()
	def := core.Tag(1)
	tags := []core.Tag{def, def, 0, 2, 3}
	for _, size := range []uint32{3*pageSize + 1808, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(size)))
		tc := NewTaint()
		tc.Configure(base, size, l, def)
		d := newDense(size, def, l.Size())

		// Load-time seeding: a classified image range straddling a page
		// boundary and a default-tagged range, which allocates nothing.
		img := make([]core.TByte, 6000)
		for i := range img {
			img[i].T = tags[2+i%3]
		}
		tc.InitFromRAM(img, 100)
		d.seed(img, 100)
		plain := defBytes(5000, def)
		tc.InitFromRAM(plain, 2*pageSize)
		d.seed(plain, 2*pageSize)
		d.check(t, tc, "after seeding")
		if got := allocatedPages(tc); got != 2 {
			t.Fatalf("seeding allocated %d pages, want 2", got)
		}

		// Default-tag stores and DMA writes into untouched pages allocate
		// nothing.
		tc.OnStore(base+size-4, 4, def)
		tc.OnMemWrite(defBytes(3*pageSize/2, def), 2*pageSize-1)
		for j := uint32(0); j < 4; j++ {
			d.note(size-4+j, def)
		}
		for j := uint32(0); j < 3*pageSize/2; j++ {
			d.note(2*pageSize-1+j, def)
		}
		if got := allocatedPages(tc); got != 2 {
			t.Fatalf("default-tag writes allocated pages: %d, want 2", got)
		}
		d.check(t, tc, "after default writes")

		// A store straddling a page boundary allocates both pages.
		tc.OnStore(base+3*pageSize-2, 4, tags[2])
		for j := uint32(0); j < 4; j++ {
			d.note(3*pageSize-2+j, tags[2])
		}
		d.check(t, tc, "after straddling store")

		for i := 0; i < 4000; i++ {
			tag := tags[rng.Intn(len(tags))]
			if i%8 == 0 {
				// DMA: a run of bytes with mixed tags, possibly past the
				// end of RAM.
				n := 1 + rng.Intn(300)
				start := uint32(rng.Intn(int(size)))
				data := make([]core.TByte, n)
				for j := range data {
					data[j].T = tags[rng.Intn(len(tags))]
				}
				tc.OnMemWrite(data, start)
				for j, b := range data {
					d.note(start+uint32(j), b.T)
				}
				continue
			}
			width := uint32(1) << rng.Intn(3)
			var off uint32
			if i%5 == 0 {
				// Near a page boundary.
				off = uint32(rng.Intn(int(size/pageSize)+1))*pageSize - width/2
			} else {
				off = uint32(rng.Intn(int(size)))
			}
			tc.OnStore(base+off, width, tag)
			for j := uint32(0); j < width; j++ {
				d.note(off+j, tag)
			}
		}
		d.check(t, tc, "after random writes")
	}
}
