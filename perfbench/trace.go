package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"treecode/internal/obs"
)

// span is one timed interval of the benchmark's trace, in nanoseconds from
// the tracer's epoch. Benchmark-side spans wrap the public calls into each
// layer; the obs spans the program records inside those calls are nested
// under them by attachObs.
type span struct {
	Name     string  `json:"name"`
	Start    int64   `json:"start_ns"`
	End      int64   `json:"end_ns"`
	Self     int64   `json:"self_ns"`
	Children []*span `json:"children,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer records benchmark-side spans in memory. Ops run one at a time on
// one goroutine, so a stack tracks nesting. A nil *tracer records nothing,
// which is the untraced configuration.
type tracer struct {
	epoch time.Time
	roots []*span
	stack []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Start: t.now()}
	if n := len(t.stack); n > 0 {
		p := t.stack[n-1]
		p.Children = append(p.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.stack = append(t.stack, s)
	return s
}

// end closes s, which must be the innermost open span.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// closeAll ends every open span, innermost first; after a recovered panic
// the spans the op had open are closed at the moment of recovery.
func (t *tracer) closeAll() {
	for len(t.stack) > 0 {
		t.end(t.stack[len(t.stack)-1])
	}
}

// attachObs nests the collector's spans under the benchmark spans that
// caused them. offset is the collector's epoch on the tracer's clock. Each
// obs root goes under the innermost benchmark span containing its midpoint
// and is clamped to that span; obs roots outside every benchmark span (the
// untimed output checks) are dropped. Per-worker slices of a parallel
// evaluation are not layers and are left out, so siblings never overlap.
func (t *tracer) attachObs(col *obs.Collector, offset int64) {
	type placement struct{ parent, child *span }
	var place []placement
	for _, d := range col.Spans() {
		c := fromObs(d, offset, "")
		if p := innermost(t.roots, c.Start+c.dur()/2); p != nil {
			place = append(place, placement{p, c})
		}
	}
	for _, pl := range place {
		clamp(pl.child, pl.parent.Start, pl.parent.End)
		pl.parent.Children = append(pl.parent.Children, pl.child)
	}
	for _, r := range t.roots {
		sortChildren(r)
	}
}

// fromObs converts an obs span tree, naming children by their path
// ("core/refit/tree").
func fromObs(d obs.SpanData, offset int64, prefix string) *span {
	name := d.Name
	if prefix != "" {
		name = prefix + "/" + d.Name
	}
	s := &span{Name: name, Start: offset + d.StartNS, End: offset + d.StartNS + d.DurNS}
	for _, c := range d.Children {
		if c.Worker >= 0 {
			continue
		}
		s.Children = append(s.Children, fromObs(c, offset, name))
	}
	return s
}

func innermost(spans []*span, at int64) *span {
	for _, s := range spans {
		if s.Start <= at && at <= s.End {
			if c := innermost(s.Children, at); c != nil {
				return c
			}
			return s
		}
	}
	return nil
}

func clamp(s *span, lo, hi int64) {
	s.Start = min(max(s.Start, lo), hi)
	s.End = min(max(s.End, s.Start), hi)
	for _, c := range s.Children {
		clamp(c, s.Start, s.End)
	}
}

func sortChildren(s *span) {
	sort.SliceStable(s.Children, func(i, j int) bool { return s.Children[i].Start < s.Children[j].Start })
	for _, c := range s.Children {
		sortChildren(c)
	}
}

// computeSelf sets every span's self time: its duration minus the part of
// its interval that its children cover. Children are sorted by start, so
// one sweep merges overlapping ones.
func computeSelf(s *span) {
	covered, reach := int64(0), s.Start
	for _, c := range s.Children {
		computeSelf(c)
		lo, hi := max(c.Start, reach), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	s.Self = s.dur() - covered
}

// layerTimes sums, by span name, the durations and self times of the spans
// under root (root included), and counts them.
type layerTimes struct {
	dur, self map[string]int64
	count     map[string]int
}

func collectLayers(root *span) layerTimes {
	lt := layerTimes{dur: map[string]int64{}, self: map[string]int64{}, count: map[string]int{}}
	var walk func(s *span)
	walk = func(s *span) {
		lt.dur[s.Name] += s.dur()
		lt.self[s.Name] += s.Self
		lt.count[s.Name]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return lt
}

// sumSelf returns the total self time of the tree under s.
func sumSelf(s *span) int64 {
	t := s.Self
	for _, c := range s.Children {
		t += sumSelf(c)
	}
	return t
}

// writeTrace writes the span forest as JSON, creating the directory.
func writeTrace(path string, roots []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(roots)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
