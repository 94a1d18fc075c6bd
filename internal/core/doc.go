// Package core implements the core-guided MaxSAT algorithm family centred
// on msu4, the contribution of Marques-Silva & Planes, "Algorithms for
// Maximum Satisfiability using Unsatisfiable Cores", DATE 2008.
//
// All algorithms share one mechanism: a CDCL SAT solver is called on a
// working formula in which every not-yet-relaxed soft clause ωᵢ carries a
// selector literal (the clause is added as ωᵢ ∨ ¬sᵢ and sᵢ is passed as an
// assumption). An unsatisfiable outcome yields, through the solver's
// final-conflict analysis, the subset of selectors — hence of soft clauses —
// forming an unsatisfiable core. Relaxing a clause is then free: the
// negated selector ¬sᵢ already sits in the clause and simply changes role
// from "disabled" to "blocking variable bᵢ"; the algorithm stops assuming sᵢ
// and starts counting bᵢ in cardinality constraints.
//
// The paper's MiniSat 1.14 extracted cores from resolution traces; the
// assumption-based mechanism used here is the standard modern replacement
// (RC2, Open-WBO, EvalMaxSAT) and produces the same algorithmic object.
// See DESIGN.md §3 for the substitution notes.
//
// Algorithms provided:
//
//   - MSU4 — the paper's Algorithm 1. Alternates: UNSAT outcomes relax the
//     initial clauses of the reported core (optionally adding the paper's
//     line-19 "at least one blocking variable true" constraint); SAT
//     outcomes refine the upper bound and add "fewer blocking variables
//     than the best model" cardinality constraints (line 30). Terminates
//     when a core contains no initial clause, or when bounds meet.
//     NewMSU4V2 keeps the line-30 bound as one incremental totalizer;
//     ReencodeBounds re-encodes it per bound with the chosen Encoding: BDD
//     (paper's v1) or sorting networks (paper's v2), plus sequential
//     counter and totalizer as ablations.
//
//   - MSU1 — Fu & Malik's original core-guided algorithm, the paper's
//     reference point [11]: every UNSAT core gets a fresh relaxation
//     variable per clause plus an exactly-one constraint; clauses may
//     accumulate several relaxation variables.
//
//   - MSU2, MSU3 — the intermediate algorithms of the companion report
//     (Marques-Silva & Planes, arXiv:0712.0097): at most one blocking
//     variable per clause and an UNSAT-driven lower-bound search. MSU3
//     maintains the bound incrementally over a growing totalizer, imposed
//     from the first core on (the report's optional phase of unbounded
//     disjoint cores is not implemented), in the Inc engine that also keeps
//     serving sessions warm: a one-shot MSU3 solve is a session with no
//     deltas. MSU2 re-encodes the cardinality constraint
//     (sequential/linear encoding) in a fresh solver each round, as solvers
//     did before incremental encodings.
//
// All algorithms handle partial MaxSAT (hard clauses) and require
// unit-weight soft clauses; weighted instances must be routed to the PBO
// optimizer by the caller (the public facade does this).
package core
