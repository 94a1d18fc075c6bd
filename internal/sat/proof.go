package sat

import "repro/internal/cnf"

// Proof is a sink for DRAT-style clausal proof logging. The solver calls it
// synchronously from the search loop; implementations must copy the literal
// slices they are handed (they alias solver-owned scratch) and must not
// call back into the solver. internal/proof provides the two standard
// sinks: Recorder (in-memory trace) and DRATWriter (ASCII DRAT stream).
//
// What gets logged, and why it is sound:
//
//   - Learn: every learnt clause the search derives, and the empty clause
//     whenever the solver concludes top-level unsatisfiability. Learnt
//     clauses (and the empty clause) have the RUP property with respect to
//     the clauses active when they were derived.
//   - Delete: every clause removal — reduceDB, level-0 simplification —
//     logged before the arena slot is freed. Arena GC emits nothing: it
//     compacts storage for clauses whose deletion was already logged.
//   - Axiom: clauses the caller adds after logging starts (incremental
//     optimizers adding relaxation encodings mid-run). The checker in
//     internal/proof rejects them.
//
// Clauses added before SetProof are not logged: they are the formula the
// proof is relative to, and the checker is given them separately.
//
// Logging is opt-in; with no sink attached the solver pays one nil check
// per logging site.
type Proof interface {
	Learn(lits []cnf.Lit)
	Delete(lits []cnf.Lit)
	Axiom(lits []cnf.Lit)
}

// SetProof attaches a proof sink (nil detaches). Attach it after loading
// the base formula: clauses added while a sink is attached are logged as
// axioms, which the checker rejects.
func (s *Solver) SetProof(p Proof) { s.proof = p }

func (s *Solver) proofLearn(lits []cnf.Lit) {
	if s.proof != nil {
		s.proof.Learn(lits)
	}
}

func (s *Solver) proofAxiom(lits []cnf.Lit) {
	if s.proof != nil {
		s.proof.Axiom(lits)
	}
}

// proofDelete logs the deletion of the clause stored at cr, converting the
// arena's raw words through a reused scratch buffer.
func (s *Solver) proofDelete(cr CRef) {
	if s.proof == nil {
		return
	}
	buf := s.proofBuf[:0]
	for _, lw := range s.ca.lits(cr) {
		buf = append(buf, cnf.Lit(lw))
	}
	s.proofBuf = buf
	s.proof.Delete(buf)
}
