package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// (one tree) share Op, the ID of the tree's root.
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// spanRef is an open span; End closes it. A nil *spanRef is a no-op.
type spanRef struct {
	t   *tracer
	idx int
}

// begin opens a span named name under parent (nil for a new operation).
func (t *tracer) begin(parent *spanRef, name string) *spanRef {
	if t == nil {
		return nil
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: int64(len(t.spans) + 1), Name: name, Start: now, End: -1}
	s.Op = s.ID
	if parent != nil {
		p := t.spans[parent.idx]
		s.Parent, s.Op = p.ID, p.Op
	}
	t.spans = append(t.spans, s)
	return &spanRef{t: t, idx: len(t.spans) - 1}
}

// child opens a span under s; nil-safe.
func (s *spanRef) child(name string) *spanRef {
	if s == nil {
		return nil
	}
	return s.t.begin(s, name)
}

// end closes the span.
func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Since(s.t.base).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.idx].End = now
	s.t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children counted once).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curS, curE int64
		open := false
		for _, x := range iv {
			lo, hi := max(x[0], s.Start), min(x[1], s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curE {
				curE = max(curE, hi)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = lo, hi, true
		}
		if open {
			covered += curE - curS
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// checkSpans verifies the recorded tree: every span closed, every child
// inside its parent's interval and in its parent's operation, and every
// self time non-negative. It returns the problems found.
func checkSpans(spans []span) []string {
	var bad []string
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			bad = append(bad, fmt.Sprintf("span %d %q not closed", s.ID, s.Name))
			continue
		}
		if s.Parent == 0 {
			if s.Op != s.ID {
				bad = append(bad, fmt.Sprintf("root span %d %q has op %d", s.ID, s.Name, s.Op))
			}
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent))
		case s.Start < p.Start || s.End > p.End:
			bad = append(bad, fmt.Sprintf("span %d %q [%d,%d] outside parent %q [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End))
		case s.Op != p.Op:
			bad = append(bad, fmt.Sprintf("span %d %q op %d differs from parent's %d", s.ID, s.Name, s.Op, p.Op))
		}
	}
	for id, v := range selfTimes(spans) {
		if v < 0 {
			bad = append(bad, fmt.Sprintf("span %d self time %d < 0", id, v))
		}
	}
	return bad
}

// selfTimeTable sums self time per span name, largest first.
func (t *tracer) selfTimeTable() []string {
	spans := t.snapshot()
	self := selfTimes(spans)
	type row struct {
		name  string
		n     int
		total int64
	}
	rows := make(map[string]*row)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += self[s.ID]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].total > list[j].total })
	out := make([]string, len(list))
	for i, r := range list {
		out[i] = fmt.Sprintf("%-32s n=%-6d self=%.6fs", r.name, r.n, float64(r.total)/1e9)
	}
	return out
}

// write stores the spans as JSON lines, after checking the tree.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	spans := t.snapshot()
	if bad := checkSpans(spans); len(bad) > 0 {
		return "", fmt.Errorf("span tree invalid: %v", bad)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			SelfNs int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
