package cover

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/flight"
)

const (
	beqP4 = 0x00000263 // beq x0, x0, +4: taken or not, the successor is pc+4
	jalr  = 0x00008067 // jalr x0, 0(ra)
)

// fuzzImage is seven words of text, then 64 bytes of BSS: image words that
// hold no code but can still execute (injected code on a stack, say).
//
//	0x00 main: nop
//	0x04       beq +8   -> 0x0c
//	0x08       beq +4   -> 0x0c, the fall-through
//	0x0c       jalr x0, 0(ra)
//	0x10 tail: jal +8   -> 0x18
//	0x14       nop
//	0x18       nop
func fuzzImage() *asm.Image {
	words := []uint32{nop, beqP8, beqP4, jalr, jalP8, nop, nop}
	text := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(text[4*i:], w)
	}
	end := base + uint32(len(text))
	return &asm.Image{
		Base: base, Text: text, Entry: base,
		DataAddr: end, BSSAddr: end, BSSSize: 64,
		Symbols: map[string]uint32{"main": base, "tail": base + 0x10},
	}
}

// decodeRetire turns three fuzz bytes into one retire (pc, insn, next).
//
//   - a < 0xc0 puts pc at base+a: the image's words, the RAM window past
//     the image, and misaligned pcs among both. Otherwise pc is far: outside
//     the window, below the image, or at the top of the address space.
//   - b picks the word that retired: the image's word at pc (so a text word
//     can be rewritten by any other choice), a nop, either branch, the jal
//     or the jalr.
//   - c < 0x40 falls through to pc+4; c < 0x80 is a pc-relative successor
//     of -64..+62 bytes (+4 at 0x62, +8 at 0x64); the rest are absolute
//     targets base+0..base+0x7f, the jalr's many destinations.
func decodeRetire(img *asm.Image, a, b, c byte) (pc, insn, next uint32) {
	pc = base + uint32(a)
	if a >= 0xc0 {
		pc = [...]uint32{0x1000_0000, base - 4, 0xffff_fffc, base + ramLen}[a%4]
	}
	insn = [...]uint32{0, nop, beqP8, beqP4, jalP8, jalr}[b%6]
	if b%6 == 0 && pc%4 == 0 && pc-img.Base < uint32(len(img.Text)) {
		insn = textWord(img, pc)
	}
	switch {
	case c < 0x40:
		next = pc + 4
	case c < 0x80:
		next = pc + uint32((int32(c)-0x60)*2)
	default:
		next = base + uint32(c&0x7f)
	}
	return pc, insn, next
}

// mapGuest is the reference recorder: every count and every edge in a map,
// by the rules GuestCov documents.
type mapGuest struct {
	img   *asm.Image
	hits  map[uint32]uint64 // word pc -> executions
	edges map[uint64]uint64 // pc<<32|next -> traversals
}

func (m *mapGuest) retire(pc, insn, next uint32) {
	inImage := pc >= m.img.Base&^3 && pc < m.img.End()
	if inImage || pc-base < ramLen {
		m.hits[pc&^3]++
	}
	if next != pc+4 || insn&0x7f == opBranch {
		m.edges[uint64(pc)<<32|uint64(next)]++
	}
}

// snapshot renders the reference recorder's guest view the way Capture
// renders a GuestCov's.
func (m *mapGuest) snapshot(run RunID) []byte {
	gs := &GuestSnap{Base: hexAddr(base), Hits: map[string]uint64{}, Edges: map[string]uint64{}}
	for pc, n := range m.hits {
		gs.Hits[hexAddr(pc)] = n
	}
	for e, n := range m.edges {
		gs.Edges[edgeKey(e)] = n
	}
	s := &Snapshot{Schema: SnapshotSchema, Guest: gs}
	run.Digest = s.fingerprint()
	s.Runs = []RunID{run}
	return s.JSON()
}

func (m *mapGuest) stats() GuestStats {
	var s GuestStats
	cfg := buildCFG(m.img)
	for pc := m.img.Base; pc+4 <= m.img.Base+uint32(len(m.img.Text)); pc += 4 {
		s.Insns++
		if m.hits[pc] > 0 {
			s.InsnsCovered++
		}
	}
	for leader := range cfg.leaders {
		s.Blocks++
		if m.hits[leader] > 0 {
			s.BlocksCovered++
		}
	}
	for e := range cfg.edges {
		s.Edges++
		if m.edges[e] > 0 {
			s.EdgesCovered++
		}
	}
	for e := range m.edges {
		if !cfg.edges[e] {
			s.DynOnlyEdges++
		}
	}
	return s
}

// blocks groups a retire stream into the flight recorder's block records
// of at most limit retires: a retire that falls through (next == pc+4, not a
// branch) to the next one's pc continues its block; any other ends it. A
// block that ends at a control transfer holds its word and successor under
// FlagBranch; one that ends at a fall-through is cut, the way a mark or
// the end of a Run call cuts one, with Insn 0 and no flags.
func blocks(retires [][3]uint32, limit int) []flight.Rec {
	var out []flight.Rec
	for k := 0; k < len(retires); {
		first := k
		for k+1 < len(retires) && k+1-first < limit {
			pc, insn, next := retires[k][0], retires[k][1], retires[k][2]
			if next != pc+4 || insn&0x7f == opBranch || retires[k+1][0] != next {
				break
			}
			k++
		}
		last := retires[k]
		r := flight.Rec{
			Time: uint64(first), PC: retires[first][0], Insn: last[1], Addr: last[2],
			Aux: uint16(k + 1 - first), Kind: flight.KindBlock, Flags: flight.FlagBranch,
		}
		if last[2] == last[0]+4 && last[1]&0x7f != opBranch {
			r.Insn, r.Flags = 0, 0
		}
		out = append(out, r)
		k++
	}
	return out
}

// FuzzGuestCovEdges feeds generated retire streams to GuestCov, one retire
// at a time, as block records and as blocks of at most two retires, and to
// the map-only reference recorder: the per-word edge slots and the block
// path must change nothing a reader sees, in the snapshot JSON, in Stats or
// in EdgeCount.
func FuzzGuestCovEdges(f *testing.F) {
	for _, seed := range [][]byte{
		// The image's own path: beq taken, beq +4, jalr back, jal.
		{0x00, 0, 0x00, 0x04, 0, 0x8c, 0x0c, 0, 0x90, 0x10, 0, 0x98, 0x18, 0, 0x00},
		// In-image, window and far pcs, each jumping somewhere.
		{0x14, 1, 0x00, 0x80, 1, 0x00, 0xa0, 5, 0x80, 0xc0, 1, 0x90, 0xc1, 2, 0x00, 0xc2, 5, 0x80, 0xc3, 1, 0x00},
		// Misaligned pcs inside the image and past it.
		{0x01, 1, 0x00, 0x06, 2, 0x8c, 0x06, 2, 0x00, 0x0f, 5, 0x80, 0x83, 1, 0x84},
		// A branch word rewritten mid-run: taken, not taken, then a nop
		// that falls through, then one that jumps.
		{0x04, 0, 0x8c, 0x04, 0, 0x00, 0x04, 1, 0x00, 0x04, 1, 0x94, 0x04, 0, 0x8c},
		// One jalr to several targets, then back to the first.
		{0x0c, 0, 0x80, 0x0c, 0, 0x90, 0x0c, 0, 0x98, 0x0c, 0, 0xa0, 0x0c, 0, 0x80, 0x0c, 0, 0x90},
		// A branch to pc+4, taken (relative +4) and not taken, and a jump
		// to pc+4 from a non-branch.
		{0x08, 0, 0x62, 0x08, 0, 0x00, 0x08, 0, 0x8c, 0x14, 4, 0x62},
		// BSS words executing: injected code on the stack.
		{0x20, 1, 0x00, 0x24, 2, 0x64, 0x2c, 5, 0x80, 0x2c, 5, 0x88},
	} {
		f.Add(seed)
	}
	run := RunID{Workload: "fuzz", Policy: "none"}
	f.Fuzz(func(t *testing.T, data []byte) {
		img := fuzzImage()
		g, gb, gc := NewGuest(), NewGuest(), NewGuest()
		for _, g := range []*GuestCov{g, gb, gc} {
			g.Configure(base, ramLen)
			g.SetImage(img)
		}
		ref := &mapGuest{img: img, hits: map[uint32]uint64{}, edges: map[uint64]uint64{}}
		type edge struct{ from, to uint32 }
		var seen []edge
		var retires [][3]uint32
		for ; len(data) >= 3; data = data[3:] {
			pc, insn, next := decodeRetire(img, data[0], data[1], data[2])
			g.OnRetire(pc, insn, next)
			ref.retire(pc, insn, next)
			retires = append(retires, [3]uint32{pc, insn, next})
			seen = append(seen, edge{pc, next}, edge{pc, pc + 4})
		}
		gb.OnRecords(blocks(retires, 0xffff))
		gc.OnRecords(blocks(retires, 2))
		for path, g := range map[string]*GuestCov{"per retire": g, "blocks": gb, "short blocks": gc} {
			if got, want := Capture(&Cover{Guest: g}, run, nil).JSON(), ref.snapshot(run); !bytes.Equal(got, want) {
				t.Fatalf("%s: snapshot differs from the reference:\n%s\nwant\n%s", path, got, want)
			}
			if got, want := g.Stats(), ref.stats(); got != want {
				t.Errorf("%s: Stats() = %+v, want %+v", path, got, want)
			}
			for _, e := range seen {
				if got, want := g.EdgeCount(e.from, e.to), ref.edges[uint64(e.from)<<32|uint64(e.to)]; got != want {
					t.Errorf("%s: EdgeCount(%#x, %#x) = %d, want %d", path, e.from, e.to, got, want)
				}
			}
		}
	})
}
