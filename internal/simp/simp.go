// Package simp implements SatELite-style CNF preprocessing (Eén & Biere
// 2005), the simplification layer MiniSat-family solvers apply before
// search: level-0 unit propagation, clause subsumption, self-subsuming
// resolution (strengthening), and bounded variable elimination (BVE) with
// model reconstruction.
//
// Preprocessing is sound for plain satisfiability (cmd/sat -simp) and, with
// care, for MaxSAT: it must only ever see hard clauses, and any variable the
// caller keeps semantic claims about — soft-clause selectors, literals that
// will later be assumed, variables new clauses will be added over — must be
// listed in Options.Frozen so bounded variable elimination leaves it alone.
// The soft-aware preprocessing stage in internal/opt (opt.Preprocessed) uses
// exactly that contract: it attaches a fresh frozen selector to every soft
// clause, preprocesses the hard clauses plus selector shells here, and
// reconstructs models back to the original variables afterwards. Frozen variables may
// still be fixed by level-0 unit propagation (a forced value is a proved
// fact, not a rewrite); Result.Fixed exposes those values.
//
// A Preprocessor can be reused across calls: the occurrence index, touched
// queue, and clause table are retained between runs, so repeated
// preprocessing — one call per optimizer run in a harness sweep, or per
// portfolio launch — stays allocation-light. The package-level Preprocess
// helper remains for one-shot callers.
package simp

import (
	"sort"

	"repro/internal/cnf"
)

// maxOccurrences skips variable elimination for variables occurring more
// often than this in either polarity. An elimination is also aborted when
// it would add more clauses than it removes: BVE never grows the formula.
const maxOccurrences = 10

// Options selects the preprocessing passes and what they must preserve.
type Options struct {
	// DisableBVE turns off bounded variable elimination.
	DisableBVE bool
	// DisableSubsumption turns off subsumption and strengthening.
	DisableSubsumption bool
	// Frozen lists variables that must survive variable elimination: BVE
	// (including its pure-literal special case) never eliminates them, so
	// they still mean the same thing in the simplified formula. Callers
	// freeze every variable they will later assume, resolve on, or add
	// clauses over — MaxSAT soft-clause selectors above all. Frozen
	// variables may still be fixed by unit propagation; see Result.Fixed.
	Frozen []cnf.Var
	// Proof, when non-nil, receives every rewrite in DRAT form: derived
	// clauses (stripped, strengthened, BVE resolvents, discovered units,
	// and the empty clause on UNSAT) as additions logged before the
	// clauses that justify them are deleted, and every removal (satisfied,
	// subsumed, strengthened-away, eliminated) as a deletion. Appending
	// these records to a proof checked against the original formula makes
	// lemmas derived from the simplified formula check too — preprocessing
	// survives the checker. Clauses of the input formula itself are not
	// logged. proof.Recorder and proof.DRATWriter satisfy this interface.
	Proof ProofSink
}

// ProofSink is the subset of DRAT logging the preprocessor needs; literal
// slices are only valid for the duration of the call.
type ProofSink interface {
	Learn(lits []cnf.Lit)
	Delete(lits []cnf.Lit)
}

// Result carries the simplified formula and everything needed to lift a
// model of the simplified formula back to the original variables. A Result
// owns all of its data: it stays valid after the Preprocessor that produced
// it is reused for another formula.
type Result struct {
	// Formula is the simplified CNF over the same variable space (eliminated
	// and fixed variables simply no longer occur).
	Formula *cnf.Formula
	// Unsat reports that preprocessing derived the empty clause.
	Unsat bool

	fixed      []int8       // 0 unknown, 1 true, -1 false (level-0 units)
	elimStack  []elimRecord // reverse-order reconstruction data
	numVars    int
	eliminated []bool
}

type elimRecord struct {
	v       cnf.Var
	clauses []cnf.Clause // original clauses containing v or ¬v
}

// Eliminated reports whether v was removed by variable elimination.
func (r *Result) Eliminated(v cnf.Var) bool {
	return int(v) < len(r.eliminated) && r.eliminated[v]
}

// Fixed reports the value forced on v by level-0 unit propagation, and
// whether v was fixed at all. Frozen variables are never eliminated but may
// be fixed; MaxSAT callers use this to fold softs whose selector was forced
// (a selector forced false proves the soft clause unsatisfiable under the
// hard clauses, so its weight is always paid).
func (r *Result) Fixed(v cnf.Var) (value bool, fixed bool) {
	if int(v) >= len(r.fixed) || r.fixed[v] == 0 {
		return false, false
	}
	return r.fixed[v] == 1, true
}

// Reconstruct extends a model of the simplified formula to a model of the
// original formula: fixed variables take their forced values, eliminated
// variables are assigned in reverse elimination order so that their saved
// clauses are satisfied. The input is not modified.
func (r *Result) Reconstruct(model cnf.Assignment) cnf.Assignment {
	out := make(cnf.Assignment, r.numVars)
	copy(out, model)
	for v := 0; v < r.numVars && v < len(r.fixed); v++ {
		if r.fixed[v] == 1 {
			out[v] = true
		} else if r.fixed[v] == -1 {
			out[v] = false
		}
	}
	for i := len(r.elimStack) - 1; i >= 0; i-- {
		rec := r.elimStack[i]
		out[rec.v] = false
		for _, c := range rec.clauses {
			if !out.Satisfies(c) {
				// All other literals are false; the clause's v-literal
				// dictates the polarity.
				for _, l := range c {
					if l.Var() == rec.v {
						out[rec.v] = !l.Sign()
						break
					}
				}
			}
		}
	}
	return out
}

// Preprocessor holds the occurrence-indexed clause database plus the
// reusable scratch buffers (occurrence lists, touched queue, unit queue,
// frozen marks). The zero value is ready to use; reusing one instance
// across Preprocess calls avoids reallocating the per-literal index each
// time. A Preprocessor is not safe for concurrent use.
type Preprocessor struct {
	opts    Options
	clauses []cnf.Clause // nil entries are deleted
	occ     [][]int32    // per literal: clause indices (may contain stale ids)
	fixed   []int8       // per call; ownership passes to the Result
	frozen  []bool
	units   []cnf.Lit
	result  *Result

	touchedStamp []uint32 // touchedStamp[v] == stamp ⇔ v queued for BVE
	touchedList  []cnf.Var
	stamp        uint32

	occScratch []int32 // reused snapshot of an occurrence list under iteration
}

// NewPreprocessor returns an empty reusable preprocessor.
func NewPreprocessor() *Preprocessor { return &Preprocessor{} }

// Preprocess simplifies f (which is not modified) and returns the result.
// One-shot convenience over Preprocessor.Preprocess.
func Preprocess(f *cnf.Formula, opts Options) *Result {
	return NewPreprocessor().Preprocess(f, opts)
}

// Preprocess simplifies f (which is not modified) and returns the result.
// The returned Result owns its data and remains valid across further calls.
func (p *Preprocessor) Preprocess(f *cnf.Formula, opts Options) *Result {
	n := f.NumVars
	p.reset(n, opts)
	for _, c := range f.Clauses {
		norm, taut := c.Clone().Normalize()
		if taut {
			continue
		}
		switch len(norm) {
		case 0:
			p.result.Unsat = true
		case 1:
			p.units = append(p.units, norm[0])
		default:
			p.addClause(norm)
		}
	}
	if !p.result.Unsat {
		p.run()
	}
	out := cnf.NewFormula(n)
	if p.result.Unsat {
		out.Clauses = append(out.Clauses, cnf.Clause{})
	} else {
		for _, c := range p.clauses {
			if c != nil {
				// Clause backing arrays are allocated per call, so the
				// result can own them without copying.
				out.Clauses = append(out.Clauses, c)
			}
		}
	}
	p.result.Formula = out
	p.result.fixed = p.fixed
	p.fixed = nil // owned by the result now
	return p.result
}

// reset prepares the reusable buffers for a formula over n variables.
func (p *Preprocessor) reset(n int, opts Options) {
	p.opts = opts
	p.clauses = p.clauses[:0]
	p.units = p.units[:0]
	p.touchedList = p.touchedList[:0]
	p.stamp++
	if cap(p.occ) >= 2*n {
		p.occ = p.occ[:2*n]
		for i := range p.occ {
			p.occ[i] = p.occ[i][:0]
		}
	} else {
		old := p.occ[:cap(p.occ)]
		for i := range old {
			old[i] = old[i][:0]
		}
		p.occ = append(old, make([][]int32, 2*n-len(old))...)
	}
	if cap(p.touchedStamp) >= n {
		p.touchedStamp = p.touchedStamp[:n]
	} else {
		p.touchedStamp = make([]uint32, n)
		p.stamp = 1
	}
	if cap(p.frozen) >= n {
		p.frozen = p.frozen[:n]
		for i := range p.frozen {
			p.frozen[i] = false
		}
	} else {
		p.frozen = make([]bool, n)
	}
	for _, v := range opts.Frozen {
		if int(v) < n {
			p.frozen[v] = true
		}
	}
	p.fixed = make([]int8, n)
	p.result = &Result{
		numVars:    n,
		eliminated: make([]bool, n),
	}
}

func (p *Preprocessor) touch(v cnf.Var) {
	if p.touchedStamp[v] != p.stamp {
		p.touchedStamp[v] = p.stamp
		p.touchedList = append(p.touchedList, v)
	}
}

func (p *Preprocessor) addClause(c cnf.Clause) int32 {
	id := int32(len(p.clauses))
	p.clauses = append(p.clauses, c)
	for _, l := range c {
		p.occ[l] = append(p.occ[l], id)
		p.touch(l.Var())
	}
	return id
}

func (p *Preprocessor) removeClause(id int32) {
	p.clauses[id] = nil // occurrence lists are cleaned lazily
}

func (p *Preprocessor) proofLearn(c cnf.Clause) {
	if p.opts.Proof != nil {
		p.opts.Proof.Learn(c)
	}
}

// proofRemoveClause logs the deletion of a live clause and removes it.
func (p *Preprocessor) proofRemoveClause(id int32) {
	if p.opts.Proof != nil {
		p.opts.Proof.Delete(p.clauses[id])
	}
	p.removeClause(id)
}

// occsOf returns the live clause ids containing l, compacting the list.
// Clauses are immutable once added (strengthening and stripping create new
// ids), so a non-nil entry still contains l — no literal scan is needed.
func (p *Preprocessor) occsOf(l cnf.Lit) []int32 {
	list := p.occ[l]
	j := 0
	for _, id := range list {
		if p.clauses[id] != nil {
			list[j] = id
			j++
		}
	}
	p.occ[l] = list[:j]
	return p.occ[l]
}

func (p *Preprocessor) run() {
	for {
		if !p.propagateUnits() {
			return
		}
		changed := false
		if !p.opts.DisableSubsumption {
			if p.subsumptionPass() {
				changed = true
			}
			if p.result.Unsat || len(p.units) > 0 {
				continue
			}
		}
		if !p.opts.DisableBVE {
			if p.eliminationPass() {
				changed = true
			}
			if p.result.Unsat || len(p.units) > 0 {
				continue
			}
		}
		if !changed {
			return
		}
	}
}

// propagateUnits applies queued level-0 units; it reports false on UNSAT.
func (p *Preprocessor) propagateUnits() bool {
	for len(p.units) > 0 {
		l := p.units[len(p.units)-1]
		p.units = p.units[:len(p.units)-1]
		v := l.Var()
		want := int8(1)
		if l.Sign() {
			want = -1
		}
		switch p.fixed[v] {
		case want:
			continue
		case -want:
			p.result.Unsat = true
			p.proofLearn(nil) // complementary units are both on record
			return false
		}
		p.fixed[v] = want
		// Satisfied clauses disappear.
		for _, id := range p.occsOf(l) {
			p.proofRemoveClause(id)
		}
		// Falsified literals are stripped.
		for _, id := range p.occsOf(l.Neg()) {
			c := p.clauses[id]
			stripped := make(cnf.Clause, 0, len(c)-1)
			for _, x := range c {
				if x != l.Neg() {
					stripped = append(stripped, x)
				}
			}
			p.proofLearn(stripped)
			p.proofRemoveClause(id)
			switch len(stripped) {
			case 0:
				p.result.Unsat = true
				return false
			case 1:
				p.units = append(p.units, stripped[0])
			default:
				p.addClause(stripped)
			}
		}
	}
	return true
}

// subsumptionPass removes subsumed clauses and applies self-subsuming
// resolution; it reports whether anything changed.
func (p *Preprocessor) subsumptionPass() bool {
	changed := false
	for id := int32(0); id < int32(len(p.clauses)); id++ {
		c := p.clauses[id]
		if c == nil {
			continue
		}
		// Find candidates through the least-occurring literal of c.
		best := c[0]
		for _, l := range c[1:] {
			if len(p.occ[l]) < len(p.occ[best]) {
				best = l
			}
		}
		for _, did := range p.occSnapshot(best) {
			if did == id {
				continue
			}
			d := p.clauses[did]
			if d == nil || len(d) < len(c) {
				continue
			}
			if subsumes(c, d) {
				p.proofRemoveClause(did)
				changed = true
			}
		}
		// Self-subsuming resolution: for each literal l of c, if c with l
		// negated subsumes some d, then l.Neg() can be removed from d.
		for _, l := range c {
			for _, did := range p.occSnapshot(l.Neg()) {
				if did == id {
					continue
				}
				d := p.clauses[did]
				if d == nil || len(d) < len(c) || !subsumesExcept(c, d, l) {
					continue
				}
				strengthened := make(cnf.Clause, 0, len(d)-1)
				for _, x := range d {
					if x != l.Neg() {
						strengthened = append(strengthened, x)
					}
				}
				p.proofLearn(strengthened)
				p.proofRemoveClause(did)
				changed = true
				switch len(strengthened) {
				case 0:
					p.result.Unsat = true
					return true
				case 1:
					p.units = append(p.units, strengthened[0])
				default:
					p.addClause(strengthened)
				}
			}
		}
	}
	return changed
}

// occSnapshot copies the live occurrence list of l into a reused scratch
// buffer, so the caller can add and remove clauses (which mutate the
// underlying lists) while iterating.
func (p *Preprocessor) occSnapshot(l cnf.Lit) []int32 {
	p.occScratch = append(p.occScratch[:0], p.occsOf(l)...)
	return p.occScratch
}

// subsumes reports c ⊆ d for normalized (sorted) clauses.
func subsumes(c, d cnf.Clause) bool {
	if len(c) > len(d) {
		return false
	}
	i := 0
	for _, l := range d {
		if i < len(c) && c[i] == l {
			i++
		}
	}
	return i == len(c)
}

// subsumesExcept reports that c with its literal l flipped subsumes d, i.e.
// (c \ {l}) ⊆ d and l.Neg() ∈ d — the self-subsuming-resolution condition
// allowing l.Neg() to be stripped from d. Both clauses are normalized; the
// flipped literal is matched out of order so no clone/re-sort is needed.
func subsumesExcept(c, d cnf.Clause, l cnf.Lit) bool {
	if !d.Has(l.Neg()) {
		return false
	}
	i := 0
	for _, x := range d {
		if i < len(c) && c[i] == l {
			i++ // l is covered by l.Neg() ∈ d, not by matching in d
		}
		if i < len(c) && c[i] == x {
			i++
		}
	}
	if i < len(c) && c[i] == l {
		i++
	}
	return i == len(c)
}

// eliminationPass tries bounded variable elimination on low-occurrence
// variables; it reports whether anything changed. Frozen variables are
// never candidates.
func (p *Preprocessor) eliminationPass() bool {
	changed := false
	vars := append([]cnf.Var{}, p.touchedList...)
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	p.touchedList = p.touchedList[:0]
	p.stamp++
	for _, v := range vars {
		if p.fixed[v] != 0 || p.result.eliminated[v] || p.frozen[v] {
			continue
		}
		// Aliasing the live lists is safe: the commit below only marks
		// clauses dead (lazy deletion) and resolvents never contain v, so
		// neither list mutates while it is iterated.
		pos := p.occsOf(cnf.PosLit(v))
		neg := p.occsOf(cnf.NegLit(v))
		if len(pos) == 0 && len(neg) == 0 {
			continue
		}
		if len(pos) > maxOccurrences || len(neg) > maxOccurrences {
			continue
		}
		// A pure literal eliminates trivially (no resolvents).
		var resolvents []cnf.Clause
		ok := true
		if len(pos) > 0 && len(neg) > 0 {
			budget := len(pos) + len(neg)
			for _, pi := range pos {
				for _, ni := range neg {
					r, taut := resolve(p.clauses[pi], p.clauses[ni], v)
					if taut {
						continue
					}
					resolvents = append(resolvents, r)
					if len(resolvents) > budget {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
		}
		if !ok {
			continue
		}
		// Commit: save original clauses for reconstruction, swap in
		// resolvents. Resolvent additions are logged first — their RUP
		// checks resolve against the originals, which must still be
		// active when the record is replayed.
		for _, r := range resolvents {
			p.proofLearn(r)
		}
		rec := elimRecord{v: v}
		for _, id := range pos {
			rec.clauses = append(rec.clauses, p.clauses[id].Clone())
			p.proofRemoveClause(id)
		}
		for _, id := range neg {
			rec.clauses = append(rec.clauses, p.clauses[id].Clone())
			p.proofRemoveClause(id)
		}
		p.result.elimStack = append(p.result.elimStack, rec)
		p.result.eliminated[v] = true
		for _, r := range resolvents {
			switch len(r) {
			case 0:
				p.result.Unsat = true
				return true
			case 1:
				p.units = append(p.units, r[0])
			default:
				p.addClause(r)
			}
		}
		changed = true
		if len(p.units) > 0 {
			return true
		}
	}
	return changed
}

// resolve returns the resolvent of c (containing v) and d (containing ¬v),
// normalized, with a tautology flag.
func resolve(c, d cnf.Clause, v cnf.Var) (cnf.Clause, bool) {
	out := make(cnf.Clause, 0, len(c)+len(d)-2)
	for _, l := range c {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	for _, l := range d {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	return out.Normalize()
}
