package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/report"
	"vcomputebench/internal/serve"
)

func runDoc(t *testing.T, id string, store core.SnapshotStore) []byte {
	t.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := exp.Run(experiments.Options{Repetitions: 1, Seed: 42, Parallelism: 2, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.EncodeJSON([]*report.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTimedStoreIsTransparent: the same experiment through the decorator and
// without it yields byte-identical documents and the same store traffic,
// and the decorator records one execute span per executed cell.
func TestTimedStoreIsTransparent(t *testing.T) {
	plain := core.NewSnapshotCache(0)
	want := runDoc(t, "fig3b", plain)
	want = append(want, runDoc(t, "fig3b", plain)...) // second run replays

	tr := NewTracer()
	timed := newTimedStore(core.NewSnapshotCache(0), tr)
	got := runDoc(t, "fig3b", timed)
	got = append(got, runDoc(t, "fig3b", timed)...)
	if !bytes.Equal(got, want) {
		t.Fatal("documents differ with the timing decorator")
	}
	ps, ts := plain.Stats(), timed.Stats()
	if ps.Hits != ts.Hits || ps.Misses != ts.Misses || ps.Entries != ts.Entries || ps.Executions != ts.Executions {
		t.Errorf("Stats through the decorator = %+v, want %+v", ts, ps)
	}
	ix := indexSpans(tr.Spans())
	if n := len(ix.byName["execute"]); n != int(ps.Executions) || n == 0 {
		t.Errorf("%d execute spans for %d executions", n, ps.Executions)
	}
	if n := len(ix.byName["store.get"]); n != int(ps.Hits+ps.Misses) {
		t.Errorf("%d store.get spans for %d lookups", n, ps.Hits+ps.Misses)
	}
	keys, snaps := timed.seen()
	if len(keys) != ps.Entries || len(snaps) != len(keys) {
		t.Errorf("kept %d snapshots, store holds %d", len(keys), ps.Entries)
	}
}

// notPeeker hides a store's Peek method.
type notPeeker struct{ core.SnapshotStore }

// TestTimedStoreKeepsServeAdmission: serve skips admission for cells its
// store can Peek. Through the decorator the server must answer the same
// bytes and take the same execute/replay decisions as over the bare store,
// both when the inner store is a core.Peeker and when it is not.
func TestTimedStoreKeepsServeAdmission(t *testing.T) {
	const body = `{"platform":"adreno506","benchmark":"gemm","api":"vulkan"}`
	simulate := func(store core.SnapshotStore) (bodies []byte, metrics string) {
		srv, err := serve.New(serve.Config{Store: store, Repetitions: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			bodies = append(bodies, rec.Body.Bytes()...)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		data, _ := io.ReadAll(rec.Body)
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "vcbench_serve_executions_total") || strings.HasPrefix(line, "vcbench_serve_replays_total") {
				metrics += line + "\n"
			}
		}
		return bodies, metrics
	}
	for _, tc := range []struct {
		name  string
		inner func() core.SnapshotStore
	}{
		{"peeker", func() core.SnapshotStore { return core.NewSnapshotCache(0) }},
		{"not-peeker", func() core.SnapshotStore { return notPeeker{core.NewSnapshotCache(0)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantBody, wantMetrics := simulate(tc.inner())
			gotBody, gotMetrics := simulate(newTimedStore(tc.inner(), NewTracer()))
			if !bytes.Equal(gotBody, wantBody) {
				t.Error("responses differ through the decorator")
			}
			if gotMetrics != wantMetrics {
				t.Errorf("admission counters through the decorator:\n%swant\n%s", gotMetrics, wantMetrics)
			}
		})
	}
	if _, ok := core.SnapshotStore(newTimedStore(core.NewSnapshotCache(0), nil)).(core.Peeker); !ok {
		t.Error("the decorator does not implement core.Peeker")
	}
}
