package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of a traced run. Parent is the ID of the
// enclosing span (the experiment, pass or request that caused it), -1 for a
// root. Times are offsets from the trace's epoch.
type Span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer holds a run's spans in memory until the run writes them out. A nil
// *Tracer is tracing off: every method is a no-op, so traced and untraced
// passes share one code path.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	scope int // parent of spans begun by layers that cannot see their caller
}

func NewTracer() *Tracer { return &Tracer{epoch: time.Now(), scope: -1} }

func (t *Tracer) now() time.Duration { return time.Since(t.epoch) }

// Begin opens a span under parent and returns its ID (-1 when tracing is off).
// attrs are key, value pairs.
func (t *Tracer) Begin(name string, parent int, attrs ...string) int {
	if t == nil {
		return -1
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(Span{Parent: parent, Name: name, Start: at, End: -1, Attrs: attrMap(attrs)})
}

// End closes the span.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// addSpan records an already-finished span.
func (t *Tracer) addSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(s)
}

// Now is the current offset from the epoch (0 when tracing is off).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

func (t *Tracer) add(s Span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// Scope is the span that layers seen only through an interface (the store)
// attach their spans to; SetScope changes it and returns the previous one.
func (t *Tracer) Scope() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scope
}

func (t *Tracer) SetScope(id int) (prev int) {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, t.scope = t.scope, id
	return prev
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func attrMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// spanIndex groups spans by name and by parent for the layer arithmetic.
type spanIndex struct {
	byName   map[string][]Span
	children map[int][]Span
}

func indexSpans(spans []Span) spanIndex {
	ix := spanIndex{byName: map[string][]Span{}, children: map[int][]Span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		ix.children[s.Parent] = append(ix.children[s.Parent], s)
	}
	return ix
}

// totalDur sums the durations of spans, in seconds.
func totalDur(spans []Span) float64 {
	var t time.Duration
	for _, s := range spans {
		t += s.Dur()
	}
	return t.Seconds()
}

// durs returns the span durations in the given unit.
func durs(spans []Span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Dur()) / float64(unit)
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// [lo, hi]: concurrent children (two suite workers executing at once) are
// counted once, not twice.
func covered(lo, hi time.Duration, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is the span's duration minus the part its children cover.
func selfTime(s Span, children []Span) time.Duration {
	return s.Dur() - covered(s.Start, s.End, children)
}
