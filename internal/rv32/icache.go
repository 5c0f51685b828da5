package rv32

import "vpdift/internal/core"

// This file implements the predecoded-instruction cache shared by both
// cores. Interpreting a guest spends a large share of its time re-decoding
// the same text words; real VPs (the original riscv-vp among them) eliminate
// that with an instruction cache over the DMI region, and this is the Go
// analog: a direct-mapped array with one entry per word-aligned RAM word,
// indexed by (pc - ramBase) >> 2. soc.Load sizes it to the loaded image,
// where every guest keeps its code and stack, so a platform pays for the
// words its guest can execute rather than the whole RAM window; a fetch
// past the end takes the uncached path.
//
// Correctness rests on write invalidation. Every path that can change RAM
// contents (or, on the VP+, RAM byte *tags*) drops the covered entries:
//
//   - the CPU's direct-path stores invalidate inline (Core.store,
//     TaintCore.store);
//   - bus-initiated writes — DMA transfers, TLM-routed data accesses when
//     soc.Config.TaintMemViaTLM is set, mem.Memory.Load/Classify — arrive
//     via the memory's write hooks, registered at core construction;
//   - FENCE.I is an explicit full-invalidate point, the architectural
//     "make stores visible to fetch" instruction.
//
// Both cores get the cache: if only the VP+ were accelerated, the Table II
// VP+/VP overhead factor would be flattered by a slow baseline.
//
// On the VP+ each entry additionally carries a fetch-tag summary — the LUB
// of the four instruction-byte tags and the result of the fetch-clearance
// check — so the per-fetch 3×LUB + AllowedFlow of a checked policy collapses
// to one cached comparison on a hit. Tag changes invalidate entries exactly
// like value changes, which keeps the summary honest (the code-injection
// detections of the WK suite depend on freshly written bytes being
// re-checked).

// icEntry is one direct-mapped cache slot. The plain core uses only inst
// and state; the taint core also fills the fetch-tag summary.
type icEntry struct {
	inst Inst
	// word is the raw little-endian instruction word inst was decoded from,
	// kept so hit-path consumers (flight recorder, tracer) need not
	// reassemble it from RAM bytes.
	word uint32
	// state is 0 when the entry is invalid, icValid when inst (and, on the
	// taint core, tag/allowed) describe the current RAM word.
	state uint8
	// tag is the LUB of the word's four byte tags (fetch-tag summary).
	tag core.Tag
	// allowed caches AllowedFlow(tag, fetchClear); always true when the
	// policy does not check fetches.
	allowed bool
}

const icValid uint8 = 1

// icache is the direct-mapped predecoded-instruction cache. lo/hi form a
// byte-offset watermark over the filled entries so the store fast path can
// skip invalidation with two compares when it writes outside any region
// that ever held cached instructions (the overwhelmingly common data
// store).
type icache struct {
	ents  []icEntry
	lo    uint32 // lowest filled byte offset (inclusive)
	hi    uint32 // highest filled byte offset (exclusive); 0 when empty
	fills uint64 // decode-cache miss count (each fill is one slow decode)
}

// newICache sizes the cache to cover the whole words in the first size
// bytes of RAM.
func newICache(size uint32) icache {
	return icache{ents: make([]icEntry, size/4), lo: ^uint32(0)}
}

// noteFill extends the watermark over the word at byte offset off.
func (ic *icache) noteFill(off uint32) {
	ic.fills++
	if off < ic.lo {
		ic.lo = off
	}
	if off+4 > ic.hi {
		ic.hi = off + 4
	}
}

// overlaps reports whether a write to byte offsets [start, end) can touch a
// filled entry. It is the cheap inline guard for the store hot path.
func (ic *icache) overlaps(start, end uint32) bool {
	return start < ic.hi && end > ic.lo
}

// invalidate drops the entries covering byte offsets [start, end).
func (ic *icache) invalidate(start, end uint32) {
	if !ic.overlaps(start, end) || start >= end {
		return
	}
	first := start >> 2
	last := (end - 1) >> 2
	if last >= uint32(len(ic.ents)) {
		last = uint32(len(ic.ents)) - 1
	}
	for i := first; i <= last; i++ {
		ic.ents[i].state = 0
	}
}

// invalidateAll drops every entry (FENCE.I). Only the watermarked region is
// cleared, then the watermark resets.
func (ic *icache) invalidateAll() {
	if ic.hi == 0 {
		return
	}
	first := ic.lo >> 2
	last := (ic.hi - 1) >> 2
	if last >= uint32(len(ic.ents)) {
		last = uint32(len(ic.ents)) - 1
	}
	clear(ic.ents[first : last+1])
	ic.lo = ^uint32(0)
	ic.hi = 0
}
