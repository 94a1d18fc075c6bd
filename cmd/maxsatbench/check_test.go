package main

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
)

// TestCheckerCountsEveryFailure feeds canned daemon responses to the checker:
// a correct answer passes, and a wrong cost, a model that does not achieve
// the cost, a corrupted certificate and a refusal each count once as a
// failure of an attempted request.
func TestCheckerCountsEveryFailure(t *testing.T) {
	w := gen.Pigeonhole(4).W
	res := core.NewMSU4V2(opt.Options{}).Solve(context.Background(), w, nil)
	cert, err := opt.Certify(context.Background(), w, res, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Certificate = cert
	body := func(edit func(r *resultJSON)) []byte {
		r := toResultJSON(res, false)
		r.Certificate = append([]byte(nil), cert...)
		if edit != nil {
			edit(r)
		}
		b, err := json.Marshal(jobJSON{ID: 1, State: "done", Result: r})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name       string
		code       int
		body       []byte
		failed     int
		wrong      bool
		certFailed bool // caught only by the post-window certificate check
	}{
		{"correct", http.StatusOK, body(nil), 0, false, false},
		{"wrong cost", http.StatusOK, body(func(r *resultJSON) { r.Cost++ }), 1, true, false},
		{"bad model", http.StatusOK, body(func(r *resultJSON) { r.Model[0] = -r.Model[0] }), 1, true, false},
		{"short model", http.StatusOK, body(func(r *resultJSON) { r.Model = r.Model[:len(r.Model)-1] }), 1, true, false},
		{"not optimal", http.StatusOK, body(func(r *resultJSON) { r.Status = "UNKNOWN" }), 1, true, false},
		{"no certificate", http.StatusOK, body(func(r *resultJSON) { r.Certificate = nil }), 1, true, false},
		{"corrupted certificate", http.StatusOK, body(func(r *resultJSON) { r.Certificate[len(r.Certificate)-1] ^= 0x40 }), 1, true, true},
		{"refused", http.StatusTooManyRequests, []byte(`{"error":"rate limited"}`), 1, false, false},
		{"server error", http.StatusInternalServerError, []byte(`{"error":"boom"}`), 1, true, false},
		{"malformed", http.StatusOK, []byte(`{"id":`), 1, true, false},
	}
	for _, tc := range cases {
		chk := newChecker()
		chk.answer(w, 1, true, tc.code, tc.body)
		if tc.certFailed && chk.failed != 0 {
			t.Errorf("%s: failed before the certificate check", tc.name)
		}
		chk.finish(2)
		if chk.attempted != 1 || chk.failed != tc.failed {
			t.Errorf("%s: attempted %d failed %d, want 1 and %d (%s)", tc.name, chk.attempted, chk.failed, tc.failed, chk.summary())
		}
		if wrong := chk.wrong > 0; wrong != tc.wrong {
			t.Errorf("%s: counted as a wrong answer %t, want %t", tc.name, wrong, tc.wrong)
		}
	}

	// A rejected certificate fails every response that carried it, and the
	// distinct certificate is checked once.
	chk := newChecker()
	bad := body(func(r *resultJSON) { r.Certificate[len(r.Certificate)-1] ^= 0x40 })
	for i := 0; i < 3; i++ {
		chk.answer(w, 1, true, http.StatusOK, bad)
	}
	if n := chk.finish(2); n != 1 {
		t.Errorf("checked %d distinct certificates, want 1", n)
	}
	if chk.failed != 3 || chk.attempted != 3 {
		t.Errorf("attempted %d failed %d, want 3 and 3", chk.attempted, chk.failed)
	}
}
