package maxsat

// End-to-end certification tests: every instance of the gen suite
// (unweighted and weighted) solved with Options.Certify must emit a
// certificate the independent internal/proof checker validates — including
// runs with preprocessing and portfolio winners — and the served (cached)
// path must re-validate certificates rather than trust them.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// certInstances is the certification matrix input: the full unweighted and
// weighted generator suites.
func certInstances(t *testing.T) []gen.Instance {
	insts := append(gen.Suite(42), gen.WeightedSuite(42)...)
	if testing.Short() {
		insts = insts[:8]
	}
	return insts
}

func solveCertified(t *testing.T, in gen.Instance, o Options) Result {
	t.Helper()
	o.Certify = true
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Minute
	}
	r, err := Solve(in.W, o)
	if err != nil {
		t.Fatalf("%s: %v", in.Name, err)
	}
	if r.Status == Unknown {
		t.Fatalf("%s: budget exhausted before the optimum (alg %s)", in.Name, r.Algorithm)
	}
	if r.Certificate == nil {
		t.Fatalf("%s: no certificate on a %v result", in.Name, r.Status)
	}
	if err := CheckCertificate(in.W, r.Certificate); err != nil {
		t.Fatalf("%s: certificate rejected: %v", in.Name, err)
	}
	if in.KnownCost >= 0 && r.Status == Optimal && r.Cost != in.KnownCost {
		t.Fatalf("%s: certified cost %d, known %d", in.Name, r.Cost, in.KnownCost)
	}
	return r
}

// TestCertifyGenSuite certifies every suite instance under the default
// algorithm selection.
func TestCertifyGenSuite(t *testing.T) {
	for _, in := range certInstances(t) {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			t.Parallel()
			solveCertified(t, in, Options{})
		})
	}
}

// TestCertifyPreprocessShareAndPortfolio exercises the trust boundaries the
// certificate must be independent of: the preprocessor's rewrites and
// portfolio selection. A subset keeps the matrix fast; the point is
// configuration coverage, not instance coverage (TestCertifyGenSuite covers
// the instances). The test and subtest names date from when the portfolio
// configuration also shared learnt clauses; they are kept so that recorded
// test IDs stay stable.
func TestCertifyPreprocessShareAndPortfolio(t *testing.T) {
	insts := certInstances(t)
	small := insts[:0:0]
	for _, in := range insts {
		if in.W.NumVars <= 120 && in.W.NumClauses() <= 600 {
			small = append(small, in)
		}
	}
	configs := []struct {
		name string
		o    Options
	}{
		{"pre", Options{Preprocess: true}},
		{"portfolio-share", Options{Algorithm: AlgoPortfolio, Parallelism: 4}},
		{"oll-pre", Options{Algorithm: AlgoOLL, Preprocess: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, in := range small {
				in := in
				t.Run(in.Name, func(t *testing.T) {
					t.Parallel()
					r := solveCertified(t, in, cfg.o)
					if cfg.name == "portfolio-share" && r.Winner == "" && r.Status == Optimal {
						t.Logf("%s: portfolio verdict with no recorded winner", in.Name)
					}
				})
			}
		})
	}
}

// TestCertifyUnsatHards certifies an UNSATISFIABLE verdict (conflicting
// hard clauses).
func TestCertifyUnsatHards(t *testing.T) {
	php := gen.Pigeonhole(4)
	w := cnf.NewWCNF(php.W.NumVars)
	for _, c := range php.W.Clauses {
		w.AddHard(c.Clause...)
	}
	w.AddSoft(1, PosLit(0))
	r := solveCertified(t, gen.Instance{Name: "php4-hard", W: w, KnownCost: -1}, Options{Algorithm: AlgoOLL})
	if r.Status != Unsatisfiable {
		t.Fatalf("status %v, want UNSATISFIABLE", r.Status)
	}
}

// TestCertifyOffByDefault pins the opt-in: without Options.Certify no
// certificate is produced.
func TestCertifyOffByDefault(t *testing.T) {
	in := gen.Pigeonhole(3)
	r, err := Solve(in.W, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Certificate != nil {
		t.Fatal("certificate produced without Options.Certify")
	}
}

// TestServerCertifiedSubmissions runs the served path: a cert=1 submission
// yields a validated certificate, and a resubmission served from the cache
// carries one that still validates.
func TestServerCertifiedSubmissions(t *testing.T) {
	srv := NewServer(ServerConfig{Workers: 2, CacheEntries: 16})
	defer srv.Close()

	in := gen.Pigeonhole(4)
	o := Options{Certify: true}
	job, err := srv.Submit(in.W, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.Certificate == nil {
		t.Fatalf("first solve: status %v, cert %d bytes", res.Status, len(res.Certificate))
	}
	if err := CheckCertificate(in.W, res.Certificate); err != nil {
		t.Fatalf("served certificate rejected: %v", err)
	}

	again, err := srv.Submit(in.W, o)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := again.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("resubmission did not hit the cache")
	}
	if res2.Certificate == nil {
		t.Fatal("cache hit dropped the certificate")
	}
	if err := CheckCertificate(in.W, res2.Certificate); err != nil {
		t.Fatalf("cached certificate rejected: %v", err)
	}
	if !bytes.Equal(res.Certificate, res2.Certificate) {
		t.Fatal("cache hit served a different certificate")
	}
}
