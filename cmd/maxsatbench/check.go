package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/cnf"
	"repro/internal/proof"
)

// jobJSON and resultJSON mirror the fields of the daemon's job response
// that the benchmark reads or that every answer carries. The checker
// decodes answers with them, and the traced replay encodes its results with
// them, so both sides of the wire format are covered.
type jobJSON struct {
	ID     uint64      `json:"id"`
	State  string      `json:"state"`
	Result *resultJSON `json:"result,omitempty"`
}

type resultJSON struct {
	Status      string  `json:"status"`
	Cost        int64   `json:"cost"`
	LowerBound  int64   `json:"lb"`
	Algorithm   string  `json:"algorithm"`
	Cached      bool    `json:"cached"`
	Model       []int   `json:"model,omitempty"`
	Certificate []byte  `json:"certificate,omitempty"`
	ElapsedSec  float64 `json:"elapsed_sec"`
}

// checker judges every answer independently of the daemon: the cost must
// equal the reference optimum, the returned model must achieve that cost on
// the formula the client sent (recomputed with WCNF.CostOf), and every
// distinct certificate is re-proved with proof.CheckBytes once the timed
// window is over. Each failed or refused request is counted, never dropped.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int            // failures that are wrong answers rather than refusals
	reasons   map[string]int // failure reason → count
	certs     map[certKey]*certUse
}

type certKey struct {
	w   *cnf.WCNF
	sum [sha256.Size]byte
}

type certUse struct {
	cert []byte
	want cnf.Weight
	uses int
}

func newChecker() *checker {
	return &checker{reasons: make(map[string]int), certs: make(map[certKey]*certUse)}
}

// fail records one failed request. Refusals (429, 503) are failures but not
// wrong answers.
func (c *checker) fail(reason string, wrong bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	c.reasons[reason]++
	if wrong {
		c.wrong++
	}
}

// attempt counts one checked operation.
func (c *checker) attempt() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// status checks a request whose answer is only an HTTP status (session open,
// delta, close). It counts the attempt and reports whether it succeeded.
func (c *checker) status(code, want int) bool {
	c.attempt()
	if code != want {
		c.fail(fmt.Sprintf("http %d", code), false)
		return false
	}
	return true
}

// answer checks one solve response against formula w with optimum want.
// needCert demands a certificate, which is queued for the post-window check.
// It counts the attempt and returns the decoded result, or nil on failure.
func (c *checker) answer(w *cnf.WCNF, want cnf.Weight, needCert bool, code int, body []byte) *resultJSON {
	c.attempt()
	if code != http.StatusOK {
		c.fail(fmt.Sprintf("http %d", code), code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable)
		return nil
	}
	var j jobJSON
	if err := json.Unmarshal(body, &j); err != nil || j.Result == nil {
		c.fail("malformed response", true)
		return nil
	}
	r := j.Result
	if reason := judge(w, want, needCert, r); reason != "" {
		c.fail(reason, true)
		return nil
	}
	if needCert {
		k := certKey{w: w, sum: sha256.Sum256(r.Certificate)}
		c.mu.Lock()
		if u, ok := c.certs[k]; ok {
			u.uses++
		} else {
			c.certs[k] = &certUse{cert: r.Certificate, want: want, uses: 1}
		}
		c.mu.Unlock()
	}
	return r
}

// judge returns why r is not a correct optimal answer for w, or "".
func judge(w *cnf.WCNF, want cnf.Weight, needCert bool, r *resultJSON) string {
	if r.Status != "OPTIMAL" {
		return "status " + r.Status
	}
	if cnf.Weight(r.Cost) != want {
		return "wrong cost"
	}
	a, ok := assignment(r.Model, w.NumVars)
	if !ok {
		return "bad model"
	}
	if cost, hardOK := w.CostOf(a); !hardOK || cost != want {
		return "bad model"
	}
	if needCert && len(r.Certificate) == 0 {
		return "missing certificate"
	}
	return ""
}

// assignment converts a DIMACS model (model[v] = ±(v+1)) into an assignment
// of the first n variables.
func assignment(model []int, n int) (cnf.Assignment, bool) {
	if len(model) < n {
		return nil, false
	}
	a := make(cnf.Assignment, n)
	for v := 0; v < n; v++ {
		switch model[v] {
		case v + 1:
			a[v] = true
		case -(v + 1):
		default:
			return nil, false
		}
	}
	return a, true
}

// finish re-proves every distinct certificate seen, on workers goroutines.
// A rejected certificate fails every response that carried it. It returns
// the number of distinct certificates checked.
func (c *checker) finish(workers int) int {
	c.mu.Lock()
	todo := make([]*certUse, 0, len(c.certs))
	formulas := make([]*cnf.WCNF, 0, len(c.certs))
	for k, u := range c.certs {
		todo = append(todo, u)
		formulas = append(formulas, k.w)
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				u := todo[j]
				if err := checkCert(formulas[j], u.cert, u.want); err != nil {
					c.mu.Lock()
					c.failed += u.uses
					c.wrong += u.uses
					c.reasons["certificate rejected"] += u.uses
					c.mu.Unlock()
				}
			}
		}()
	}
	for j := range todo {
		next <- j
	}
	close(next)
	wg.Wait()
	return len(todo)
}

// checkCert runs the independent checker and confirms the certificate proves
// the reference optimum, not some other cost.
func checkCert(w *cnf.WCNF, data []byte, want cnf.Weight) error {
	if err := proof.CheckBytes(w, data); err != nil {
		return err
	}
	cert, err := proof.Decode(data)
	if err != nil {
		return err
	}
	if cert.Cost != want {
		return fmt.Errorf("certificate proves cost %d, want %d", cert.Cost, want)
	}
	return nil
}

// summary renders the failure reasons, most frequent first.
func (c *checker) summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	type kv struct {
		k string
		n int
	}
	var all []kv
	for k, n := range c.reasons {
		all = append(all, kv{k, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n || all[i].n == all[j].n && all[i].k < all[j].k })
	parts := make([]string, len(all))
	for i, e := range all {
		parts[i] = fmt.Sprintf("%s x%d", e.k, e.n)
	}
	return strings.Join(parts, ", ")
}
