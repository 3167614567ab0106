package main

import (
	"testing"
	"time"
)

func span(id, parent int, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

// TestSelfTimeOverlappingChildren: children that overlap each other (two
// suite workers) are counted once, and children reaching outside the parent
// are clipped to it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span(0, -1, 0, 100)
	children := []Span{
		span(1, 0, 20, 50),
		span(2, 0, 10, 30), // overlaps 1
		span(3, 0, 60, 70),
		span(4, 0, 65, 68), // inside 3
		span(5, 0, 90, 120),
		span(6, 0, 130, 140), // outside the parent
	}
	if got := covered(parent.Start, parent.End, children); got != 60 {
		t.Errorf("covered = %v, want 60 ([10,50] + [60,70] + [90,100])", got)
	}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self time = %v, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %v, want 100", got)
	}
	if got := selfTime(parent, []Span{span(1, 0, -5, 200)}); got != 0 {
		t.Errorf("self time under a covering child = %v, want 0", got)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", -1)
	tr.End(id)
	tr.SetScope(3)
	if id != -1 || tr.Scope() != -1 || tr.Spans() != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestTracerParents(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("pass", -1)
	prev := tr.SetScope(root)
	child := tr.Begin("experiment", tr.Scope(), "id", "fig3a")
	tr.End(child)
	tr.SetScope(prev)
	tr.End(root)
	ix := indexSpans(tr.Spans())
	if len(ix.children[root]) != 1 || ix.children[root][0].Attrs["id"] != "fig3a" {
		t.Fatalf("children of the pass = %+v", ix.children[root])
	}
	if s := tr.Spans()[root]; s.End < s.Start {
		t.Errorf("root span ends before it starts: %+v", s)
	}
}
