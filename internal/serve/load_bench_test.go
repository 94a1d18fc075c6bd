package serve

import (
	"context"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/store"
)

// storeLoadPayloads are the records BenchmarkStoreLoad boots from, built
// once per process: certified OLL verdicts of 300 renamings of the weighted
// suite with their proof hints, the records maxsatbench's durable-weighted
// workload stores.
var storeLoadPayloads = sync.OnceValues(func() ([][]byte, error) {
	const records = 300
	ctx := context.Background()
	insts := gen.WeightedSuite(1)
	payloads := make([][]byte, records)
	for i := range payloads {
		w := renamed(insts[i%len(insts)].W, rand.New(rand.NewPCG(uint64(i), 1)))
		r := core.NewOLL(opt.Options{}).Solve(ctx, w, nil)
		cert, hints, err := opt.CertifyHinted(ctx, w, r, opt.Options{})
		if err != nil {
			return nil, err
		}
		payloads[i] = encodeStoreEntry(w, "oll", cert, hints...)
	}
	return payloads, nil
})

// renamed permutes w's variables and flips the sign of a random half of
// them: the same instance under another fingerprint.
func renamed(w *cnf.WCNF, rng *rand.Rand) *cnf.WCNF {
	perm := rng.Perm(w.NumVars)
	flip := make([]bool, w.NumVars)
	for v := range flip {
		flip[v] = rng.IntN(2) == 1
	}
	out := &cnf.WCNF{NumVars: w.NumVars, Clauses: make([]cnf.WClause, len(w.Clauses))}
	for i, c := range w.Clauses {
		lits := make(cnf.Clause, len(c.Clause))
		for j, l := range c.Clause {
			lits[j] = cnf.PosLit(cnf.Var(perm[l.Var()]))
			if l.Sign() != flip[l.Var()] {
				lits[j] = lits[j].Neg()
			}
		}
		out.Clauses[i] = cnf.WClause{Clause: lits, Weight: c.Weight}
	}
	return out
}

// BenchmarkStoreLoad times a durable server's boot: Open on a data
// directory whose results.log holds 300 certified records, which it
// re-proves before it returns. It reports ms/record, the boot time per
// stored record, B/record, the stored payload bytes per record, and the
// boot's allocations.
func BenchmarkStoreLoad(b *testing.B) {
	payloads, err := storeLoadPayloads()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	l, _, _, err := store.Open(filepath.Join(dir, resultsLog), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	size := 0
	for _, p := range payloads {
		if err := l.Append(recResult, p, false); err != nil {
			b.Fatal(err)
		}
		size += len(p)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := openT(b, Config{Workers: 1, DataDir: dir})
		b.StopTimer()
		if st := s.Stats(); st.Recovered != int64(len(payloads)) {
			b.Fatalf("recovered %d of %d records (%d rejected)", st.Recovered, len(payloads), st.RecoveredRejected)
		}
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N*len(payloads)), "ms/record")
	b.ReportMetric(float64(size)/float64(len(payloads)), "B/record")
}
