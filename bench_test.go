package maxsat

// Benchmark harness regenerating every table and figure of the DATE 2008
// paper (see DESIGN.md §2 for the experiment index):
//
//	BenchmarkTable1    — aborted-instance counts, industrial-style suite:
//	                     maxsatz, pbo, the paper's msu4 v1 and v2 (msu4-bdd,
//	                     msu4-sorter) and the served msu4-v2
//	BenchmarkTable2    — aborted counts, 29 design-debugging instances
//	BenchmarkFigure1   — scatter maxsatz vs msu4-v2
//	BenchmarkFigure2   — scatter pbo vs msu4-v2
//	BenchmarkFigure3   — scatter msu4-bdd vs msu4-sorter (paper v1 vs v2)
//	BenchmarkCardEncodings — A1 ablation: encoding sizes and solve impact
//	BenchmarkMSU4AtLeast1  — A2 ablation: the optional line-19 constraint
//	BenchmarkMSU1Variants  — A3 ablation: AMO encodings inside msu1
//	BenchmarkSolvers       — per-algorithm end-to-end on a fixed miter
//	BenchmarkCheckCert     — the independent certificate checker alone
//
// Benchmarks use a scaled-down per-instance timeout so the whole suite
// regenerates quickly; cmd/experiments runs the same artifacts with the
// default 5 s timeout. Abort counts and diagonal splits are emitted as
// benchmark metrics (aborts_<solver>, x_faster, ...).

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/bnb"
	"repro/internal/card"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/opt"
	"repro/internal/portfolio"
	"repro/internal/proof"
	"repro/internal/sat"
)

const benchTimeout = 300 * time.Millisecond

func reportAborts(b *testing.B, rep *harness.Report) {
	counts := rep.AbortCounts()
	for _, s := range rep.Solvers {
		b.ReportMetric(float64(counts[s]), "aborts_"+s)
	}
	b.ReportMetric(float64(len(rep.Instances)), "instances")
	if problems := rep.CheckAgreement(); len(problems) > 0 {
		b.Fatalf("solver disagreement: %v", problems)
	}
}

// BenchmarkTable1 regenerates Table 1: aborted instances per solver on the
// industrial-style suite.
func BenchmarkTable1(b *testing.B) {
	insts := gen.Suite(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := harness.Run(insts, harness.Config{Timeout: benchTimeout})
		b.StopTimer()
		reportAborts(b, rep)
		b.StartTimer()
	}
}

// BenchmarkTable1Pre doubles the Table 1 line-up with preprocessing-enabled
// twins ("+pre" columns): the soft-aware preprocessing pipeline applied to
// every algorithm family, on the same suite and timeout as BenchmarkTable1.
// The built-in agreement check makes this a differential benchmark — a
// preprocessed column disagreeing with its raw twin fails the run. CI runs
// it at -benchtime=1x and archives the output as the BENCH_pre artifact, so
// the preprocessing perf trajectory accumulates across commits.
func BenchmarkTable1Pre(b *testing.B) {
	insts := gen.Suite(42)
	cfg := harness.Config{
		Timeout: benchTimeout,
		Solvers: harness.ComparePreprocessing(harness.DefaultSolvers()),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := harness.Run(insts, cfg)
		b.StopTimer()
		reportAborts(b, rep)
		b.StartTimer()
	}
}

// BenchmarkTable1Cert measures certification overhead on the Table 1 suite:
// each instance is solved twice through the public API — once plain, once
// with Options.Certify — and the aggregate extra time of the proof-logged
// certification pass is reported as cert_overhead_ms. With logging off the
// solve path is byte-for-byte the plain one (BenchmarkTable1 itself is the
// logging-off baseline); this benchmark prices what turning it on costs. CI
// archives the output as the BENCH_cert artifact.
func BenchmarkTable1Cert(b *testing.B) {
	insts := gen.Suite(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var plain, certified time.Duration
		solved, certs := 0, 0
		for _, in := range insts {
			t0 := time.Now()
			r1, err := Solve(in.W, Options{Timeout: benchTimeout})
			if err != nil {
				b.Fatal(err)
			}
			plain += time.Since(t0)
			t0 = time.Now()
			r2, err := Solve(in.W, Options{Timeout: benchTimeout, Certify: true})
			if err != nil {
				b.Fatal(err)
			}
			certified += time.Since(t0)
			if r1.Status != Unknown {
				solved++
			}
			if r2.Certificate != nil {
				certs++
				if err := CheckCertificate(in.W, r2.Certificate); err != nil {
					b.Fatalf("%s: certificate rejected: %v", in.Name, err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(insts)), "instances")
		b.ReportMetric(float64(solved), "solved")
		b.ReportMetric(float64(certs), "certified")
		b.ReportMetric(float64((certified - plain).Milliseconds()), "cert_overhead_ms")
		b.StartTimer()
	}
}

// certSuite is a set of certificates with the instances they certify.
type certSuite struct {
	ws      []*cnf.WCNF
	certs   [][]byte
	records int // trace records over all certificates
}

// certSuites builds each suite of BenchmarkCheckCert once per process.
var certSuites = map[string]func() (certSuite, error){
	"table1":   sync.OnceValues(func() (certSuite, error) { return buildCertSuite(gen.Suite(42), AlgoMSU4V2) }),
	"weighted": sync.OnceValues(func() (certSuite, error) { return buildCertSuite(gen.WeightedSuite(1), AlgoOLL) }),
}

func buildCertSuite(insts []gen.Instance, algo Algorithm) (certSuite, error) {
	var cs certSuite
	for _, in := range insts {
		r, err := Solve(in.W, Options{Algorithm: algo, Certify: true, Timeout: 30 * time.Second})
		if err != nil {
			return cs, err
		}
		if r.Certificate == nil {
			continue
		}
		cert, err := proof.Decode(r.Certificate)
		if err != nil {
			return cs, err
		}
		for _, st := range cert.Steps {
			cs.records += len(st.Trace.Records)
		}
		cs.ws = append(cs.ws, in.W)
		cs.certs = append(cs.certs, r.Certificate)
	}
	return cs, nil
}

// BenchmarkCheckCert times the independent checker alone: one op re-checks
// every certificate of a suite with CheckCertificate, the work of a
// verified cache hit and of the records a durable daemon re-proves at
// start-up. The certificates are built once, outside the timer: table1
// holds msu4-v2 certificates of the Table 1 suite, weighted holds OLL
// certificates of the weighted suite that maxsatbench's durable-weighted
// workload stores. certs and records (trace records over all certificates)
// size the work.
func BenchmarkCheckCert(b *testing.B) {
	for _, name := range []string{"table1", "weighted"} {
		b.Run(name, func(b *testing.B) {
			cs, err := certSuites[name]()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, c := range cs.certs {
					if err := CheckCertificate(cs.ws[j], c); err != nil {
						b.Fatalf("certificate %d rejected: %v", j, err)
					}
				}
			}
			b.ReportMetric(float64(len(cs.certs)), "certs")
			b.ReportMetric(float64(cs.records), "records")
		})
	}
}

// BenchmarkTable2 regenerates Table 2: the 29 design-debugging instances.
func BenchmarkTable2(b *testing.B) {
	insts := gen.DebugSuite(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := harness.Run(insts, harness.Config{Timeout: benchTimeout})
		b.StopTimer()
		reportAborts(b, rep)
		b.StartTimer()
	}
}

func scatterBench(b *testing.B, x, y string) {
	sx, _ := harness.SolverByName(x)
	sy, _ := harness.SolverByName(y)
	insts := gen.Suite(42)
	cfg := harness.Config{Timeout: benchTimeout, Solvers: []harness.SolverSpec{sx, sy}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := harness.Run(insts, cfg)
		b.StopTimer()
		pts := rep.Scatter(x, y)
		xFaster, yFaster := 0, 0
		for _, p := range pts {
			switch {
			case p.Y > p.X:
				xFaster++
			case p.X > p.Y:
				yFaster++
			}
		}
		b.ReportMetric(float64(xFaster), x+"_faster")
		b.ReportMetric(float64(yFaster), y+"_faster")
		if problems := rep.CheckAgreement(); len(problems) > 0 {
			b.Fatalf("solver disagreement: %v", problems)
		}
		b.StartTimer()
	}
}

// BenchmarkFigure1 regenerates Figure 1: maxsatz (y) vs msu4-v2 (x).
func BenchmarkFigure1(b *testing.B) { scatterBench(b, "msu4-v2", "maxsatz") }

// BenchmarkFigure2 regenerates Figure 2: pbo (y) vs msu4-v2 (x).
func BenchmarkFigure2(b *testing.B) { scatterBench(b, "msu4-v2", "pbo") }

// BenchmarkFigure3 regenerates Figure 3: the paper's v1, msu4-bdd (y), vs
// its v2, msu4-sorter (x).
func BenchmarkFigure3(b *testing.B) { scatterBench(b, "msu4-sorter", "msu4-bdd") }

// BenchmarkCardEncodings measures the A1 ablation: CNF size and encoding
// time of AtMost-k for each cardinality encoding (n=96, k=12 — the regime
// msu4 hits after a handful of iterations on industrial instances).
func BenchmarkCardEncodings(b *testing.B) {
	const n, k = 96, 12
	for _, enc := range []card.Encoding{card.BDD, card.Sorter, card.Sequential, card.Totalizer} {
		enc := enc
		b.Run(enc.String(), func(b *testing.B) {
			var clauses, vars int
			for i := 0; i < b.N; i++ {
				f := cnf.NewFormula(n)
				d := card.NewFormulaDest(f)
				lits := make([]cnf.Lit, n)
				for j := range lits {
					lits[j] = cnf.PosLit(cnf.Var(j))
				}
				card.AtMost(d, enc, lits, k)
				clauses = f.NumClauses()
				vars = f.NumVars - n
			}
			b.ReportMetric(float64(clauses), "clauses")
			b.ReportMetric(float64(vars), "auxvars")
		})
	}
}

// BenchmarkMSU4AtLeast1 measures the A2 ablation: msu4-v2 with and without
// the optional per-core AtLeast-1 constraint (paper Algorithm 1, line 19).
func BenchmarkMSU4AtLeast1(b *testing.B) {
	insts := []gen.Instance{
		gen.EquivMiter(8),
		gen.BMCCounter(4, 10),
		gen.Coloring(7, 10, 26, 3),
		gen.Pigeonhole(5),
	}
	for _, skip := range []bool{false, true} {
		name := "with-al1"
		if skip {
			name = "without-al1"
		}
		skip := skip
		b.Run(name, func(b *testing.B) {
			iterations := 0
			for i := 0; i < b.N; i++ {
				iterations = 0
				for _, in := range insts {
					m := &core.MSU4{SkipAtLeast1: skip}
					r := m.Solve(context.Background(), in.W, nil)
					if r.Status != opt.StatusOptimal {
						b.Fatalf("%s: %v", in.Name, r.Status)
					}
					iterations += r.Iterations
				}
			}
			b.ReportMetric(float64(iterations), "solver_iters")
		})
	}
}

// BenchmarkMSU1Variants measures the A3 ablation: the AMO encoding used for
// msu1's per-core exactly-one constraints.
func BenchmarkMSU1Variants(b *testing.B) {
	insts := []gen.Instance{
		gen.EquivMiter(6),
		gen.Coloring(7, 8, 20, 3),
		gen.Pigeonhole(4),
	}
	for _, enc := range []card.Encoding{card.Ladder, card.Pairwise, card.Sequential} {
		enc := enc
		b.Run(enc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, in := range insts {
					m := &core.MSU1{AMOEncoding: enc}
					if r := m.Solve(context.Background(), in.W, nil); r.Status != opt.StatusOptimal {
						b.Fatalf("%s: %v", in.Name, r.Status)
					}
				}
			}
		})
	}
}

// BenchmarkSolvers times every algorithm end to end on a fixed
// equivalence-checking miter (the paper's dominant instance family).
func BenchmarkSolvers(b *testing.B) {
	in := gen.EquivMiter(8)
	for _, algo := range Algorithms() {
		algo := algo
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := Solve(in.W, Options{Algorithm: algo, Timeout: 10 * time.Second})
				if err != nil {
					b.Fatal(err)
				}
				if r.Status != Optimal || r.Cost != 1 {
					b.Fatalf("%s: status %v cost %d", algo, r.Status, r.Cost)
				}
			}
		})
	}
}

// BenchmarkPortfolio races the bound-sharing portfolio against its
// strongest members on three instance families with opposite winners:
// random over-constrained 3-SAT (branch-and-bound territory, where maxsatz
// alone times out msu4 by orders of magnitude on bigger sizes), an
// equivalence miter (msu4 territory, where maxsatz aborts at the 10 s cap),
// and a bounded-model-checking counter (core-guided territory with deep
// propagation chains). No fixed single choice is good on both; the
// portfolio is. On the miter family the portfolio typically beats even its
// best member outright: the WalkSAT seeder publishes an upper bound that
// lets msu4 prune its first cardinality constraints tighter than it could
// alone (bound exchange, not just early-winner selection). An aborts
// metric reports member timeouts.
func BenchmarkPortfolio(b *testing.B) {
	insts := []gen.Instance{
		gen.RandomKSAT(7, 24, 3, 6.0),
		gen.EquivMiter(12),
		gen.BMCCounter(6, 32),
		gen.BMCCounter(10, 48),
	}
	solvers := []struct {
		name string
		run  func(ctx context.Context, w *cnf.WCNF) opt.Result
	}{
		{"portfolio-4", func(ctx context.Context, w *cnf.WCNF) opt.Result {
			return portfolio.New(opt.Options{}, 4).Solve(ctx, w, nil)
		}},
		{"msu4-v2", func(ctx context.Context, w *cnf.WCNF) opt.Result {
			return core.NewMSU4V2(opt.Options{}).Solve(ctx, w, nil)
		}},
		{"maxsatz", func(ctx context.Context, w *cnf.WCNF) opt.Result {
			return bnb.New().Solve(ctx, w, nil)
		}},
	}
	for _, in := range insts {
		in := in
		for _, s := range solvers {
			s := s
			b.Run(in.Name+"/"+s.name, func(b *testing.B) {
				aborts := 0
				var conflicts int64
				for i := 0; i < b.N; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					r := s.run(ctx, in.W)
					cancel()
					conflicts += r.Conflicts
					switch r.Status {
					case opt.StatusOptimal:
						if in.KnownCost >= 0 && r.Cost != in.KnownCost {
							b.Fatalf("cost %d, known optimum %d", r.Cost, in.KnownCost)
						}
					case opt.StatusUnknown:
						aborts++
					default:
						b.Fatalf("unexpected status %v", r.Status)
					}
				}
				b.ReportMetric(float64(aborts), "aborts")
				// Summed conflicts measure the deductive work across every
				// member, which stays comparable when wall-clock is
				// scheduler-noise-bound.
				b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts")
			})
		}
	}
}

// BenchmarkSATSolver times the raw CDCL engine on pigeonhole proofs — the
// substrate cost underneath every core-guided iteration.
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		in := gen.Pigeonhole(7)
		for _, c := range in.W.Clauses {
			s.AddClauseFrom(c.Clause)
		}
		if st := s.Solve(); st != sat.Unsat {
			b.Fatalf("php: %v", st)
		}
	}
}

// BenchmarkWeighted compares the weighted-capable algorithms (the paper's
// future-work direction) on weighted over-constrained colouring instances.
func BenchmarkWeighted(b *testing.B) {
	insts := []gen.Instance{
		gen.ColoringWeighted(3, 8, 20, 3, 5),
		gen.ColoringWeighted(4, 10, 26, 3, 5),
	}
	algos := []Algorithm{AlgoWMSU1, AlgoWMSU4, AlgoOLL, AlgoPBO, AlgoBnB}
	for _, algo := range algos {
		algo := algo
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ref Weight = -1
				for _, in := range insts {
					r, err := Solve(in.W, Options{Algorithm: algo, Timeout: 30 * time.Second})
					if err != nil {
						b.Fatal(err)
					}
					if r.Status != Optimal {
						b.Fatalf("%s on %s: %v", algo, in.Name, r.Status)
					}
					if ref < 0 {
						ref = r.Cost
					}
				}
			}
		})
	}
}

// BenchmarkWeightedFamilies runs the two core-guided weighted engines
// head to head on every family of the weighted suite — the wmsu4-vs-oll
// comparison behind the CI BENCH_weighted artifact. Both must prove the
// same optimum; cost disagreement fails the benchmark, so the artifact
// doubles as a differential check.
func BenchmarkWeightedFamilies(b *testing.B) {
	insts := gen.WeightedSuite(42)
	for _, algo := range []Algorithm{AlgoWMSU4, AlgoOLL} {
		algo := algo
		for _, in := range insts {
			in := in
			b.Run(string(algo)+"/"+in.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := Solve(in.W, Options{Algorithm: algo, Timeout: 30 * time.Second})
					if err != nil {
						b.Fatal(err)
					}
					if r.Status != Optimal {
						b.Fatalf("%s on %s: %v", algo, in.Name, r.Status)
					}
					if in.KnownCost >= 0 && r.Cost != in.KnownCost {
						b.Fatalf("%s on %s: cost %d, known optimum %d", algo, in.Name, r.Cost, in.KnownCost)
					}
				}
			})
		}
	}
}
