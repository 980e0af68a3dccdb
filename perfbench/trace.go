package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside the
// program. Start and End are offsets from the tracer's epoch. Spans of
// one request or one dataset share a Trace id; Parent is the span that
// caused this one (0 for a root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNS"`
	End    time.Duration `json:"endNS"`
}

// Layer is the module a span belongs to: its name up to the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer starts a tracer whose offsets count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Record stores a finished span and returns its id (0 on a nil tracer).
func (t *Tracer) Record(name string, parent int, trace int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// Open records a span that is still running and returns its id; Close
// sets its end. Use it for a parent whose children are recorded first.
func (t *Tracer) Open(name string, parent int, trace int64) int {
	now := time.Now()
	return t.Record(name, parent, trace, now, now)
}

// Close ends a span opened with Open.
func (t *Tracer) Close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.epoch)
	t.mu.Unlock()
}

// Time runs fn inside a span and returns fn's duration.
func (t *Tracer) Time(name string, parent int, trace int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.Record(name, parent, trace, start, end)
	return end.Sub(start)
}

// Spans returns a copy of everything recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// WriteJSON writes the spans as one JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.Spans())
}

// SelfTimes maps each span id to its self time: the span's duration
// minus the part of its interval that its children cover. Overlapping
// children count once, and a child running past its parent counts only
// inside the parent.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// LayerRow is one line of the per-layer table.
type LayerRow struct {
	Layer string
	Spans int
	Total time.Duration // summed span durations
	Self  time.Duration // summed self times
}

// LayerTable sums spans and self times per layer, largest self first.
func LayerTable(spans []Span) []LayerRow {
	self := SelfTimes(spans)
	byLayer := map[string]*LayerRow{}
	for _, s := range spans {
		r := byLayer[s.Layer()]
		if r == nil {
			r = &LayerRow{Layer: s.Layer()}
			byLayer[s.Layer()] = r
		}
		r.Spans++
		r.Total += s.End - s.Start
		r.Self += self[s.ID]
	}
	rows := make([]LayerRow, 0, len(byLayer))
	for _, r := range byLayer {
		rows = append(rows, *r)
	}
	slices.SortFunc(rows, func(a, b LayerRow) int {
		if a.Self != b.Self {
			return cmp.Compare(b.Self, a.Self)
		}
		return strings.Compare(a.Layer, b.Layer)
	})
	return rows
}

// SpanSelf returns the self times of every span with the given name.
func SpanSelf(spans []Span, name string) []time.Duration {
	self := SelfTimes(spans)
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, self[s.ID])
		}
	}
	return out
}

// printLayerTable writes the per-layer table.
func printLayerTable(w io.Writer, rows []LayerRow) {
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "%-10s %7s %12s %12s %7s\n", "layer", "spans", "total_s", "self_s", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.Self) / float64(all)
		}
		fmt.Fprintf(w, "%-10s %7d %12.4f %12.4f %6.1f%%\n", r.Layer, r.Spans, r.Total.Seconds(), r.Self.Seconds(), share)
	}
}
