package sat

import (
	"math"

	"repro/internal/cnf"
)

// This file implements the flat clause arena, in the style of MiniSat 2.2's
// RegionAllocator/ClauseAllocator. Every clause — problem and learnt — lives
// inline in one []uint32 and is addressed by an integer CRef, so clause
// storage contains no Go pointers: the garbage collector never scans it, and
// the propagate loop walks contiguous memory instead of chasing heap
// objects.
//
// Deletion is lazy: removeClause only marks the header dead and accounts the
// words as wasted. Watchers of dead clauses are skipped (and dropped) by
// propagate, and once enough of the arena is wasted a compacting GC pass
// relocates the live clauses and remaps every stored CRef (watch lists,
// trail reasons, clause lists).

// CRef is an integer handle to a clause in the arena: the word offset of the
// clause header. CRefs are stable except across garbageCollect, which remaps
// every stored reference.
type CRef uint32

// CRefUndef is the null clause reference.
const CRefUndef CRef = ^CRef(0)

// Clause layout, starting at the word the CRef points to:
//
//	word 0   size<<3 | reloced<<2 | dead<<1 | learnt
//	word 1   float32 activity bits (forwarding CRef while reloced during GC)
//	word 2+  literals, one cnf.Lit per word
const (
	hdrLearnt    = 1 << 0
	hdrDead      = 1 << 1
	hdrReloced   = 1 << 2
	hdrSizeShift = 3
	hdrWords     = 2
)

type arena struct {
	data   []uint32
	wasted int // words held by dead clauses, reclaimable by a GC pass
}

// alloc appends a clause and returns its handle. The literals are copied.
func (a *arena) alloc(lits []cnf.Lit, learnt bool) CRef {
	need := hdrWords + len(lits)
	if uint64(len(a.data))+uint64(need) >= uint64(CRefUndef) {
		// A CRef is a uint32 word offset; past this point handles would wrap
		// and corrupt live clauses. 16 GiB of clauses means the instance is
		// hopeless anyway, so fail loudly like MiniSat's allocator.
		panic("sat: clause arena exceeds 2^32 words")
	}
	if len(a.data)+need > cap(a.data) {
		newCap := 2*cap(a.data) + need
		if newCap < 1024 {
			newCap = 1024
		}
		grown := make([]uint32, len(a.data), newCap)
		copy(grown, a.data)
		a.data = grown
	}
	cr := CRef(len(a.data))
	a.data = a.data[:len(a.data)+need]
	h := uint32(len(lits)) << hdrSizeShift
	if learnt {
		h |= hdrLearnt
	}
	a.data[cr] = h
	a.data[cr+1] = 0
	for i, l := range lits {
		a.data[int(cr)+hdrWords+i] = uint32(l)
	}
	return cr
}

func (a *arena) size(cr CRef) int    { return int(a.data[cr] >> hdrSizeShift) }
func (a *arena) learnt(cr CRef) bool { return a.data[cr]&hdrLearnt != 0 }
func (a *arena) dead(cr CRef) bool   { return a.data[cr]&hdrDead != 0 }

// lits returns the literal block of cr as raw words (each word is a cnf.Lit).
// The slice aliases the arena and is invalidated by alloc and GC.
func (a *arena) lits(cr CRef) []uint32 {
	base := int(cr) + hdrWords
	return a.data[base : base+a.size(cr)]
}

func (a *arena) lit(cr CRef, i int) cnf.Lit {
	return cnf.Lit(a.data[int(cr)+hdrWords+i])
}

func (a *arena) activity(cr CRef) float32 {
	return math.Float32frombits(a.data[cr+1])
}

func (a *arena) setActivity(cr CRef, act float32) {
	a.data[cr+1] = math.Float32bits(act)
}

// free marks cr dead. The words are reclaimed by the next GC pass; until
// then propagate skips (and drops) watchers that reference the clause.
func (a *arena) free(cr CRef) {
	a.data[cr] |= hdrDead
	a.wasted += hdrWords + a.size(cr)
}

// reloc copies cr into arena to (once — repeated calls return the same new
// handle via a forwarding reference left in the old header) and returns the
// new handle.
func (a *arena) reloc(cr CRef, to *arena) CRef {
	h := a.data[cr]
	if h&hdrReloced != 0 {
		return CRef(a.data[cr+1])
	}
	n := hdrWords + int(h>>hdrSizeShift)
	ncr := CRef(len(to.data))
	to.data = append(to.data, a.data[cr:int(cr)+n]...)
	a.data[cr] = h | hdrReloced
	a.data[cr+1] = uint32(ncr)
	return ncr
}
