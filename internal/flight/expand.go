package flight

// Expansion turns the ring's block records back into one record per retire,
// the records a per-retire capture would have written. A block holds the
// first pc and instret, the length, and the word and successor of its last
// retire; the rest comes from the side rings and the program:
//
//   - the word of every other retire is the one now in memory at its pc,
//     unless a write replaced it since: then it is the first kept word for
//     that pc whose write came after the retire (Recorder.Keep);
//   - the flags are the word's static ones (Code.Flags), plus FlagTaken
//     when the successor is not pc+4 and FlagTaintRd when the VP+ pushed
//     the retire's instret (Recorder.TaintRd);
//   - Addr is the effective address the load or store pushed
//     (Recorder.Addr), or the successor PC.

// expand appends the records of ring entries [from, to) to out, one per
// retire, leaving out the first skip records. With emit non-nil, out is a
// reused batch: whenever it fills, emit takes it and it starts over, and
// emit takes the rest at the end.
func (r *Recorder) expand(from, to, skip uint64, out []Rec, emit func([]Rec)) []Rec {
	if from == to {
		return out
	}
	j := r.firstTaint(r.recs[from&r.mask].Time + skip)
	for i := from; i < to; i++ {
		e := r.recs[i&r.mask]
		if e.Kind != KindBlock {
			out = append(out, e)
		} else {
			for k := skip; k < uint64(e.Aux); k++ {
				pc, t := e.PC+4*uint32(k), e.Time+k
				next, w := pc+4, e.Insn
				if k == uint64(e.Aux)-1 {
					next = e.Addr
				}
				if k != uint64(e.Aux)-1 || e.Flags&FlagBranch == 0 {
					w = r.word(pc, t)
				}
				fl := r.code.Flags(w)
				if next != pc+4 {
					fl |= FlagTaken
				}
				addr := next
				if fl&(FlagLoad|FlagStore) != 0 {
					addr = r.addrs[t&r.mask]
				}
				for j < r.ntrd && r.trd[j&r.mask] < t {
					j++
				}
				if j < r.ntrd && r.trd[j&r.mask] == t {
					fl |= FlagTaintRd
				}
				out = append(out, Rec{Time: t, PC: pc, Insn: w, Addr: addr, Kind: KindRetire, Flags: fl})
				if emit != nil && len(out) == cap(out) {
					emit(out)
					out = out[:0]
				}
			}
		}
		skip = 0
		if emit != nil && len(out) == cap(out) {
			emit(out)
			out = out[:0]
		}
	}
	if emit != nil && len(out) > 0 {
		emit(out)
		out = out[:0]
	}
	return out
}

// firstTaint returns the index of the first tagged-rd instret at or after
// t among those the side ring still holds.
func (r *Recorder) firstTaint(t uint64) uint64 {
	lo, hi := uint64(0), r.ntrd
	if size := uint64(len(r.trd)); hi > size {
		lo = hi - size
	}
	for lo < hi {
		m := lo + (hi-lo)/2
		if r.trd[m&r.mask] < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// word returns the word the retire at instret t executed at pc: the first
// word kept for pc after t, or the one in memory now.
func (r *Recorder) word(pc uint32, t uint64) uint32 {
	lo, hi := 0, len(r.kept)
	for lo < hi {
		m := lo + (hi-lo)/2
		if r.kept[m].until > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	for _, e := range r.kept[lo:] {
		if e.pc == pc {
			return e.w
		}
	}
	return r.code.Word(pc)
}
