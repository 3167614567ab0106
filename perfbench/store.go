package main

import (
	"sync"
	"time"

	"vcomputebench/internal/core"
)

// timedStore wraps a core.SnapshotStore with spans: one per Get ("store.get",
// with hit=true|false) and Put ("store.put"), plus one "execute" span per
// cell from its Get miss to the Put of the same key — the runner executes a
// cell exactly between the two. It also keeps every snapshot it handed out
// or was given, so the codec and replay layers can be re-timed on the
// workload's own snapshots afterwards. Results pass through untouched.
type timedStore struct {
	inner core.SnapshotStore
	tr    *Tracer

	mu       sync.Mutex
	missed   map[core.SnapshotKey]missStart
	snaps    map[core.SnapshotKey]*core.Snapshot
	ordered  []core.SnapshotKey // snaps' keys in first-seen order
	executed []core.SnapshotKey // keys put after a miss
}

type missStart struct {
	at    time.Duration
	scope int
}

func newTimedStore(inner core.SnapshotStore, tr *Tracer) *timedStore {
	return &timedStore{
		inner:  inner,
		tr:     tr,
		missed: map[core.SnapshotKey]missStart{},
		snaps:  map[core.SnapshotKey]*core.Snapshot{},
	}
}

func (s *timedStore) Get(k core.SnapshotKey) (*core.Snapshot, bool) {
	scope := s.tr.Scope()
	start := s.tr.Now()
	snap, ok := s.inner.Get(k)
	end := s.tr.Now()
	hit := "false"
	if ok {
		hit = "true"
	}
	s.tr.addSpan(Span{Parent: scope, Name: "store.get", Start: start, End: end, Attrs: map[string]string{"hit": hit}})
	s.mu.Lock()
	if ok {
		s.keep(k, snap)
	} else {
		s.missed[k] = missStart{at: end, scope: scope}
	}
	s.mu.Unlock()
	return snap, ok
}

func (s *timedStore) Put(k core.SnapshotKey, snap *core.Snapshot) {
	scope := s.tr.Scope()
	start := s.tr.Now()
	s.mu.Lock()
	miss, executed := s.missed[k]
	delete(s.missed, k)
	s.keep(k, snap)
	if executed {
		s.executed = append(s.executed, k)
	}
	s.mu.Unlock()
	s.inner.Put(k, snap)
	end := s.tr.Now()
	if executed {
		scope = miss.scope
		s.tr.addSpan(Span{Parent: scope, Name: "execute", Start: miss.at, End: start, Attrs: map[string]string{
			"platform": k.Platform, "benchmark": k.Benchmark, "api": string(k.API), "workload": k.Workload,
		}})
	}
	s.tr.addSpan(Span{Parent: scope, Name: "store.put", Start: start, End: end})
}

func (s *timedStore) Stats() core.CacheStats { return s.inner.Stats() }

// Peek forwards to the inner store's core.Peeker. An inner store without one
// reports a miss, which is what serve assumes of any store that is not a
// Peeker, so admission decisions are the same with or without the wrapper.
func (s *timedStore) Peek(k core.SnapshotKey) bool {
	p, ok := s.inner.(core.Peeker)
	return ok && p.Peek(k)
}

// keep records a snapshot for re-timing; s.mu must be held.
func (s *timedStore) keep(k core.SnapshotKey, snap *core.Snapshot) {
	if _, seen := s.snaps[k]; !seen {
		s.ordered = append(s.ordered, k)
	}
	s.snaps[k] = snap
}

// executedSnapshots returns the keys and snapshots of the cells that
// executed.
func (s *timedStore) executedSnapshots() ([]core.SnapshotKey, []*core.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps := make([]*core.Snapshot, len(s.executed))
	for i, k := range s.executed {
		snaps[i] = s.snaps[k]
	}
	return append([]core.SnapshotKey(nil), s.executed...), snaps
}

// seen returns the kept snapshots in first-seen order.
func (s *timedStore) seen() ([]core.SnapshotKey, []*core.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := append([]core.SnapshotKey(nil), s.ordered...)
	snaps := make([]*core.Snapshot, len(keys))
	for i, k := range keys {
		snaps[i] = s.snaps[k]
	}
	return keys, snaps
}
