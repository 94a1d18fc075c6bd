package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	ns := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "request", Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ns(10), End: ns(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ns(20), End: ns(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: ns(90), End: ns(120)}, // runs past its parent
		{ID: 5, Parent: 2, Name: "c", Start: ns(15), End: ns(25)},
		{ID: 6, Name: "request", Start: ns(200), End: ns(210)}, // no children
	}
	got := map[string]layerTime{}
	for _, row := range selfTimes(spans) {
		got[row.name] = row
	}
	want := map[string]layerTime{
		// Root 0..100 minus the union [10,50] ∪ [90,100] = 50, plus 10.
		"request": {name: "request", count: 2, busy: 110 * time.Millisecond, self: 60 * time.Millisecond},
		// a at 10..30 minus c's 10; a at 90..120 has no children.
		"a": {name: "a", count: 2, busy: 50 * time.Millisecond, self: 40 * time.Millisecond},
		"b": {name: "b", count: 1, busy: 30 * time.Millisecond, self: 30 * time.Millisecond},
		"c": {name: "c", count: 1, busy: 10 * time.Millisecond, self: 10 * time.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.end(id)
	if id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	rec := newRecorder()
	root := rec.begin("request", 7, 0)
	child := rec.begin("cnf.parse", 7, root)
	rec.end(child)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[1].Req != 7 || rec.spans[0].End < rec.spans[1].End {
		t.Fatalf("unexpected spans %+v", rec.spans)
	}
}
