package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Op: 1, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Op: 1, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Op: 1, Parent: 2, Name: "a1", Start: 10, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 50, 2: 20, 3: 30, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	if bad := checkSpans(spans); len(bad) > 0 {
		t.Errorf("valid tree reported bad: %v", bad)
	}
}

func TestCheckSpansRejectsEscapesAndForeignOps(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 50},
		{ID: 2, Op: 1, Parent: 1, Name: "late", Start: 40, End: 60},
		{ID: 3, Op: 9, Parent: 1, Name: "foreign", Start: 1, End: 2},
		{ID: 4, Op: 1, Parent: 1, Name: "open", Start: 3, End: -1},
	}
	bad := strings.Join(checkSpans(spans), "\n")
	for _, want := range []string{`"late"`, `"foreign"`, `"open"`} {
		if !strings.Contains(bad, want) {
			t.Errorf("no problem reported for span %s in:\n%s", want, bad)
		}
	}
}

func TestTracerNestsAndSharesOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin(nil, "run")
	a := root.child("a")
	a.child("a1").end()
	a.end()
	root.end()
	other := tr.begin(nil, "other")
	other.end()
	spans := tr.snapshot()
	if bad := checkSpans(spans); len(bad) > 0 {
		t.Fatalf("tracer built a bad tree: %v", bad)
	}
	if spans[2].Op != spans[0].ID || spans[3].Op != spans[3].ID {
		t.Errorf("ops = %d,%d,%d,%d; want one per tree", spans[0].Op, spans[1].Op, spans[2].Op, spans[3].Op)
	}
	var nilTracer *tracer
	if nilTracer.begin(nil, "x").child("y") != nil {
		t.Error("nil tracer recorded a span")
	}
}

func TestCapacityFrom(t *testing.T) {
	const limit = 1000.0
	cases := []struct {
		name   string
		ladder []rung
		want   float64
	}{
		{"all pass", []rung{{100, 10}, {200, 20}}, 200},
		{"log crossing", []rung{{100, 100}, {200, 10000}}, 150},
		{"first fails", []rung{{100, 2000}}, 50},
	}
	for _, tc := range cases {
		if got := capacityFrom(tc.ladder, limit); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: capacity = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %g, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %g, want 5", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty p50 = %g, want 0", q)
	}
}

func TestPhaseSeedKeepsStreamPerRate(t *testing.T) {
	seen := make(map[uint64]string)
	for _, seed := range []uint64{1, 2} {
		for _, rate := range []float64{5000, 40000, 60000} {
			for round := 0; round < 5; round++ {
				k := phaseSeed(seed, rate, round)
				if prev, dup := seen[k]; dup {
					t.Errorf("seed %d rate %g round %d shares a stream with %s", seed, rate, round, prev)
				}
				seen[k] = fmt.Sprint(seed, rate, round)
			}
		}
	}
}
