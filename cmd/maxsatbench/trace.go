package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/opt"
)

// span is one timed call at a layer boundary of the traced replay. Spans of
// one request share Req; a request's root span has Parent 0 and one child
// per layer call.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Req    int              `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the recorder's epoch
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the benchmark writes them out. A nil
// recorder records nothing: the untraced replay runs the same code with it.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.epoch))})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.epoch))
}

// endSolve closes a solver span with the work counts of its result.
func (r *recorder) endSolve(id int, res opt.Result) {
	if r == nil {
		return
	}
	r.end(id)
	r.spans[id-1].Counts = map[string]int64{
		"iterations":  int64(res.Iterations),
		"sat_calls":   int64(res.SatCalls),
		"unsat_calls": int64(res.UnsatCalls),
		"conflicts":   res.Conflicts,
	}
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name  string
	count int
	busy  time.Duration // sum of span durations
	self  time.Duration // busy minus the time child spans cover
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	var order []string
	for _, s := range spans {
		row, ok := rows[s.Name]
		if !ok {
			row = &layerTime{name: s.Name}
			rows[s.Name] = row
			order = append(order, s.Name)
		}
		row.count++
		row.busy += s.dur()
		row.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTime, len(order))
	for i, name := range order {
		out[i] = *rows[name]
	}
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// printSelfTimes renders the table, busiest self time first.
func printSelfTimes(w io.Writer, workload string, rows []layerTime) {
	sorted := append([]layerTime(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].self > sorted[j].self })
	fmt.Fprintf(w, "# %s traced replay: layer, calls, busy ms, self ms\n", workload)
	for _, r := range sorted {
		fmt.Fprintf(w, "# %-20s %6d %10.3f %10.3f\n", r.name, r.count, ms(r.busy), ms(r.self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
