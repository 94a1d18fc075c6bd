// Package maxsat is the public API of this repository: a from-scratch Go
// implementation of core-guided Maximum Satisfiability centred on the msu4
// algorithm of Marques-Silva & Planes, "Algorithms for Maximum
// Satisfiability using Unsatisfiable Cores" (DATE 2008), together with the
// baselines the paper evaluates against (branch-and-bound "maxsatz"-style
// search and the PBO blocking-variable formulation) and the related
// core-guided algorithms msu1, msu2 and msu3.
//
// # Quick start
//
//	f := maxsat.NewFormula(0)
//	f.AddClause(maxsat.FromDIMACS(1))
//	f.AddClause(maxsat.FromDIMACS(-1))
//	res, err := maxsat.SolveFormula(f, maxsat.Options{})
//	// res.Cost == 1: one of the two unit clauses must be falsified.
//
// Plain MaxSAT instances are *Formula values (every clause soft, weight 1,
// the paper's setting); weighted partial MaxSAT instances are *WCNF values
// with hard clauses and positive soft weights. DIMACS .cnf and .wcnf files
// round-trip through ParseDIMACS / ParseWCNF / WriteDIMACS / WriteWCNF;
// ParseWCNF also reads the headerless MaxSAT Evaluation 2022 dialect,
// which WriteWCNF2022 writes.
//
// Algorithms are selected by Options.Algorithm. The default, AlgoAuto,
// routes unweighted instances to msu4-v2, which keeps the paper's line-30
// bound as one incremental totalizer tightened through assumptions, and
// weighted instances to the PBO optimizer.
// AlgoOLL is the strongest weighted engine: an OLL-style core-guided
// optimizer with stratification, hardening and core exhaustion.
// AlgoPortfolio races a line-up of the algorithms in parallel goroutines
// with shared bound exchange (Options.Parallelism caps the racers); use
// SolveContext for external cancellation and deadlines, and
// Options.OnImprove to observe bound improvements as they happen.
//
// # Serving
//
// Beyond the one-shot Solve entry points, Server runs the same stack as a
// service: jobs on a bounded worker pool with per-job deadlines, identical
// in-flight submissions deduplicated, verified results cached by a
// canonical formula fingerprint, and anytime bound improvements streamed
// through Job.Updates. cmd/maxsatd exposes a Server over HTTP. See
// ARCHITECTURE.md for how the layers fit together.
package maxsat

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/bnb"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/pbo"
	"repro/internal/portfolio"
	"repro/internal/proof"
)

// Re-exported formula types. The substrate lives in internal/cnf; these
// aliases are the supported public names.
type (
	// Var is a 0-based propositional variable.
	Var = cnf.Var
	// Lit is a literal (variable plus sign).
	Lit = cnf.Lit
	// Clause is a disjunction of literals.
	Clause = cnf.Clause
	// Formula is a plain CNF formula (read as unit-weight soft clauses).
	Formula = cnf.Formula
	// WCNF is a weighted partial MaxSAT formula.
	WCNF = cnf.WCNF
	// Weight is a soft-clause weight.
	Weight = cnf.Weight
	// Assignment is a total truth assignment.
	Assignment = cnf.Assignment
)

// HardWeight marks hard clauses in a WCNF.
const HardWeight = cnf.HardWeight

// Re-exported constructors and I/O.
var (
	NewFormula      = cnf.NewFormula
	NewWCNF         = cnf.NewWCNF
	FromFormula     = cnf.FromFormula
	FromDIMACS      = cnf.FromDIMACS
	NewLit          = cnf.NewLit
	PosLit          = cnf.PosLit
	NegLit          = cnf.NegLit
	ParseDIMACS     = cnf.ParseDIMACS
	ParseWCNF       = cnf.ParseWCNF
	ParseDIMACSFile = cnf.ParseDIMACSFile
	ParseWCNFFile   = cnf.ParseWCNFFile
	WriteDIMACS     = cnf.WriteDIMACS
	WriteWCNF       = cnf.WriteWCNF
	WriteWCNF2022   = cnf.WriteWCNF2022
)

// Algorithm selects a MaxSAT algorithm.
type Algorithm string

// Available algorithms.
const (
	// AlgoAuto picks msu4-v2 for unweighted instances and PBO for weighted
	// ones.
	AlgoAuto Algorithm = ""
	// AlgoMSU4V2 is the paper's msu4 (Algorithm 1) with its line-30 bound
	// kept as one incremental totalizer and tightened through assumptions,
	// instead of the paper's per-bound BDD (v1) or sorting-network (v2)
	// re-encoding.
	AlgoMSU4V2 Algorithm = "msu4-v2"
	// AlgoMSU1 is Fu & Malik's algorithm.
	AlgoMSU1 Algorithm = "msu1"
	// AlgoMSU2 is the report's non-incremental lower-bound search.
	AlgoMSU2 Algorithm = "msu2"
	// AlgoMSU3 is the incremental lower-bound search.
	AlgoMSU3 Algorithm = "msu3"
	// AlgoWMSU1 is the weighted extension of Fu & Malik's algorithm
	// (clause splitting; handles weighted partial MaxSAT).
	AlgoWMSU1 Algorithm = "wmsu1"
	// AlgoWMSU4 is msu4 lifted to weighted partial MaxSAT: the line-30
	// cardinality constraint becomes a pseudo-Boolean constraint.
	AlgoWMSU4 Algorithm = "wmsu4"
	// AlgoOLL is the OLL-style soft-cardinality core-guided optimizer
	// (the RC2/EvalMaxSAT lineage): per-core incremental totalizers whose
	// sum outputs become new soft literals, plus stratified weight levels,
	// hardening and core exhaustion. Handles weighted and unweighted
	// instances.
	AlgoOLL Algorithm = "oll"
	// AlgoPBO is the minisat+-style linear SAT-UNSAT optimizer on the
	// blocking-variable formulation (handles weights).
	AlgoPBO Algorithm = "pbo"
	// AlgoPBOBin is the binary-search PBO variant.
	AlgoPBOBin Algorithm = "pbo-bin"
	// AlgoBnB is the maxsatz-style branch and bound (handles weights).
	AlgoBnB Algorithm = "maxsatz"
	// AlgoPortfolio races a line-up of the algorithms above in parallel
	// goroutines, exchanging bounds through a shared channel; the first
	// proved optimum wins. Options.Parallelism caps the number of racers.
	// Handles weights (the line-up adapts to the instance kind).
	AlgoPortfolio Algorithm = "portfolio"
)

// Algorithms lists every selectable algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgoMSU4V2, AlgoMSU1, AlgoMSU2, AlgoMSU3,
		AlgoWMSU1, AlgoWMSU4, AlgoOLL, AlgoPBO, AlgoPBOBin, AlgoBnB,
		AlgoPortfolio,
	}
}

// Options configures a Solve call. The zero value asks for automatic
// algorithm selection with no resource bounds. A Server journals a served
// job's options as their JSON and keys in-flight coalescing on it, so the
// JSON field names are a persisted format that journals on disk rely on.
type Options struct {
	// Algorithm selects the optimizer; AlgoAuto routes by instance kind.
	Algorithm Algorithm `json:"alg"`
	// Timeout bounds the optimization; zero means unbounded.
	Timeout time.Duration `json:"to,omitempty"`
	// MemoryBudget, when positive, caps the clause storage of the
	// underlying CDCL solver(s) in bytes. A solve whose learnt clauses
	// outgrow the cap stops with Status Unknown and the best bounds proved
	// so far instead of exhausting the process's memory — the serving stack
	// relies on this to survive pathological instances. AlgoPortfolio
	// divides the cap evenly across its racing members; algorithms that do
	// not run a CDCL engine (AlgoBnB) ignore it. Zero means unbounded.
	MemoryBudget int64 `json:"mem,omitempty"`
	// Preprocess runs the solve behind soft-aware SatELite preprocessing
	// (opt.Preprocessed): the hard clauses (plus a frozen selector shell per
	// soft clause, or the soft clauses' own variables frozen for maxsatz and
	// the PBO algorithms) are simplified once — unit propagation,
	// subsumption, self-subsuming resolution, bounded variable elimination —
	// before the optimizer starts, and every model is reconstructed back to
	// the original variables. The optimizer searches the rewritten formula
	// alone: OnImprove and a served job's bounds see its improvements in
	// original terms, and observing them leaves the search as it is. The
	// portfolio preprocesses once and races its members on the rewritten
	// formula.
	Preprocess bool `json:"pre,omitempty"`
	// Parallelism caps the number of solvers AlgoPortfolio races
	// concurrently; 0 races the full line-up. Other algorithms ignore it.
	Parallelism int `json:"par,omitempty"`
	// OnImprove, when non-nil, receives every anytime bound improvement of
	// a Solve/SolveContext run as it is proved: lower bounds published by
	// the core-guided algorithms after every core (AlgoOLL publishes one
	// per core, AlgoPortfolio the best of all members) and upper bounds
	// from every improved model. The callback runs on the solving
	// goroutine(s) and must return quickly; improvements are monotone per
	// bound but under AlgoPortfolio may arrive from concurrent members.
	// Server.Submit ignores it — use Job.Updates for served jobs.
	OnImprove func(BoundUpdate) `json:"-"`
	// Certify makes OPTIMAL and UNSATISFIABLE results carry a serialized
	// proof certificate (Result.Certificate), checkable against the
	// instance with CheckCertificate by an independent in-tree RUP checker
	// — no solver code involved. Certification runs as a post-solve pass:
	// a fresh proof-logged solver refutes "some assignment satisfies the
	// hards at cost ≤ optimum−1", so it works uniformly for every
	// algorithm, including preprocessed and portfolio runs. It roughly
	// doubles the UNSAT work of a solve; off by default. If the result
	// cannot be certified (for example the context expires mid-pass),
	// SolveContext returns an error.
	Certify bool `json:"cert,omitempty"`
}

// Status is the outcome class of a Solve call.
type Status int8

// Solve outcomes.
const (
	// Unknown: resource budget exhausted before proving an optimum.
	Unknown Status = iota
	// Optimal: Cost is the proved optimum, witnessed by Model.
	Optimal
	// Unsatisfiable: the hard clauses conflict (partial MaxSAT only).
	Unsatisfiable
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "OPTIMAL"
	case Unsatisfiable:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}

// Result reports a MaxSAT optimization outcome.
type Result struct {
	Status Status
	// Cost is the minimum total weight of falsified soft clauses (the
	// proved optimum when Status == Optimal; the best upper bound found
	// otherwise, or -1 if no feasible assignment was seen).
	Cost Weight
	// LowerBound is the best proved lower bound on Cost.
	LowerBound Weight
	// Model is an assignment achieving Cost over the instance's variables,
	// when one was found.
	Model Assignment
	// Algorithm is the algorithm that produced the result; for a Server
	// cache hit, the one that proved it, also after a restart (a record
	// stored by an older binary reports the resubmission's algorithm).
	Algorithm Algorithm
	// Winner names the member that decided an AlgoPortfolio race; empty
	// for single-algorithm runs (and for portfolio runs that timed out).
	Winner string
	// Cached reports that the result was served from a Server's
	// verified-result cache instead of a fresh solve; always false for the
	// direct Solve entry points.
	Cached bool
	// Reused reports that a Session's warm (retained) solver answered this
	// delta re-solve; always false for one-shot solves and submissions.
	Reused bool
	// Certificate is the serialized proof certificate of an OPTIMAL or
	// UNSATISFIABLE result when Options.Certify was set: validate it with
	// CheckCertificate. Nil otherwise.
	Certificate []byte
	// Iterations, SatCalls, UnsatCalls, Conflicts and Elapsed expose the
	// algorithm's work profile. For AlgoPortfolio they aggregate over every
	// raced member.
	Iterations int
	SatCalls   int
	UnsatCalls int
	Conflicts  int64
	Elapsed    time.Duration
}

// MaxSatisfied converts the cost into the paper's "MaxSAT solution" — the
// number of satisfied clauses — for a plain instance with the given total
// clause count.
func (r Result) MaxSatisfied(totalClauses int) int {
	return totalClauses - int(r.Cost)
}

// String renders the result in the repository's shared one-line format.
func (r Result) String() string {
	inner := opt.Result{
		Cost:       r.Cost,
		LowerBound: r.LowerBound,
		Solver:     r.Winner,
		Iterations: r.Iterations,
		SatCalls:   r.SatCalls,
		UnsatCalls: r.UnsatCalls,
		Conflicts:  r.Conflicts,
		Elapsed:    r.Elapsed,
	}
	switch r.Status {
	case Optimal:
		inner.Status = opt.StatusOptimal
	case Unsatisfiable:
		inner.Status = opt.StatusUnsat
	}
	return inner.String()
}

// ErrWeighted is returned when a unit-weight-only algorithm is asked to
// solve a weighted instance.
var ErrWeighted = errors.New("maxsat: algorithm requires unit-weight soft clauses (use AlgoPBO, AlgoBnB, or AlgoAuto)")

// Solve optimizes a weighted partial MaxSAT instance. Options.Timeout is
// the only resource bound; use SolveContext for external cancellation.
func Solve(w *WCNF, o Options) (Result, error) {
	return SolveContext(context.Background(), w, o)
}

// SolveContext optimizes a weighted partial MaxSAT instance under ctx:
// cancelling the context (or exceeding Options.Timeout, whichever fires
// first) stops the optimization and yields the best result proved so far
// with Status Unknown.
func SolveContext(ctx context.Context, w *WCNF, o Options) (Result, error) {
	solver, algo, err := buildSolver(w, o)
	if err != nil {
		return Result{}, err
	}
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	var shared *opt.Bounds
	if o.OnImprove != nil {
		shared = opt.NewBounds()
		shared.SetObserver(o.OnImprove)
	}
	r := solver.Solve(ctx, w, shared)
	if o.Certify && (r.Status == opt.StatusOptimal || r.Status == opt.StatusUnsat) {
		cert, err := opt.Certify(ctx, w, r, opt.Options{MemBytes: o.MemoryBudget})
		if err != nil {
			return Result{}, err
		}
		r.Certificate = cert
	}
	return fromInternal(r, algo), nil
}

// CheckCertificate validates a serialized certificate (Result.Certificate)
// against the instance it claims to solve, using the independent checker in
// internal/proof: the model must satisfy the hard clauses at exactly the
// certified cost, and the certificate's DRAT refutation of "cost ≤ optimum−1
// is achievable" must pass backward RUP checking against a bound encoding
// the checker rebuilds itself. A nil error means the verdict is
// machine-checked — trusting it does not require trusting the solver that
// produced it, the preprocessor, or any cache it passed through.
func CheckCertificate(w *WCNF, cert []byte) error {
	return proof.CheckBytes(w, cert)
}

// SolveFormula optimizes a plain MaxSAT instance (every clause soft,
// weight 1 — the DATE 2008 setting).
func SolveFormula(f *Formula, o Options) (Result, error) {
	return Solve(cnf.FromFormula(f), o)
}

// SolveReader parses a DIMACS .cnf or .wcnf stream and optimizes it.
func SolveReader(rd io.Reader, o Options) (Result, error) {
	w, err := cnf.ParseWCNF(rd)
	if err != nil {
		return Result{}, err
	}
	return Solve(w, o)
}

// SolveFile parses a DIMACS .cnf or .wcnf file and optimizes it.
func SolveFile(path string, o Options) (Result, error) {
	w, err := cnf.ParseWCNFFile(path)
	if err != nil {
		return Result{}, err
	}
	return Solve(w, o)
}

func buildSolver(w *WCNF, o Options) (opt.Solver, Algorithm, error) {
	io_ := opt.Options{MemBytes: o.MemoryBudget}
	algo := o.Algorithm
	if algo == AlgoAuto {
		if w.Weighted() {
			algo = AlgoPBO
		} else {
			algo = AlgoMSU4V2
		}
	}
	var solver opt.Solver
	switch algo {
	case AlgoMSU4V2:
		solver = core.NewMSU4V2(io_)
	case AlgoMSU1:
		solver = core.NewMSU1(io_)
	case AlgoMSU2:
		solver = core.NewMSU2(io_)
	case AlgoMSU3:
		solver = core.NewMSU3(io_)
	case AlgoWMSU1:
		solver = core.NewWMSU1(io_)
	case AlgoWMSU4:
		solver = core.NewWMSU4(io_)
	case AlgoOLL:
		solver = core.NewOLL(io_)
	case AlgoPBO:
		solver = &pbo.Linear{Opts: io_}
	case AlgoPBOBin:
		solver = &pbo.BinarySearch{Opts: io_}
	case AlgoBnB:
		solver = bnb.New()
	case AlgoPortfolio:
		solver = portfolio.New(io_, o.Parallelism)
	default:
		return nil, algo, fmt.Errorf("maxsat: unknown algorithm %q", algo)
	}
	if algoRequiresUnitWeights(algo) && w.Weighted() {
		return nil, algo, ErrWeighted
	}
	if o.Preprocess {
		solver = opt.Preprocessed(solver)
	}
	return solver, algo, nil
}

func fromInternal(r opt.Result, algo Algorithm) Result {
	out := Result{
		Cost:        r.Cost,
		LowerBound:  r.LowerBound,
		Model:       r.Model,
		Algorithm:   algo,
		Winner:      r.Solver,
		Certificate: r.Certificate,
		Iterations:  r.Iterations,
		SatCalls:    r.SatCalls,
		UnsatCalls:  r.UnsatCalls,
		Conflicts:   r.Conflicts,
		Elapsed:     r.Elapsed,
	}
	switch r.Status {
	case opt.StatusOptimal:
		out.Status = Optimal
	case opt.StatusUnsat:
		out.Status = Unsatisfiable
	default:
		out.Status = Unknown
	}
	return out
}
