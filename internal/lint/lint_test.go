package lint_test

import (
	"reflect"
	"testing"

	"vcomputebench/internal/lint"
	"vcomputebench/internal/lint/linttest"
)

// Fixture configs mirror DefaultConfig in miniature: each testdata tree is a
// synthetic module with its own package names, so every invariant can be
// exercised with both a positive and a negative package side by side.

func TestEmbedSync(t *testing.T) {
	cfg := lint.Config{
		EmbedPackages:   []string{"good", "missing", "badname", "prefixmismatch", "sub/..."},
		EmbedExempt:     []string{"sub/wiring"},
		EmbedForbidden:  []string{"timingonly"},
		CodeVersionPath: "codever",
		SetsVar:         "sets",
	}
	linttest.Run(t, "testdata/embedsync", lint.EmbedSync(cfg))
}

func TestNonDeterminism(t *testing.T) {
	cfg := lint.Config{
		StrictPackages: []string{"strict"},
		SeededPackages: []string{"seeded"},
	}
	linttest.Run(t, "testdata/nondet", lint.NonDeterminism(cfg))
}

func TestFaultWrap(t *testing.T) {
	cfg := lint.Config{FaultWrapPackages: []string{"api"}}
	linttest.Run(t, "testdata/faultwrap", lint.FaultWrap(cfg))
}

func counterCfg() lint.Config {
	return lint.Config{
		KernelsPath:            "kernels",
		CodecPath:              "codec",
		CountersType:           "Counters",
		CounterFieldsConst:     "counterFields",
		DerivedCounterFields:   []string{"Derived"},
		IntensiveCounterFields: []string{"Max"},
	}
}

func TestCounterSyncGood(t *testing.T) {
	linttest.Run(t, "testdata/countersync/good", lint.CounterSync(counterCfg()))
}

func TestCounterSyncBad(t *testing.T) {
	linttest.Run(t, "testdata/countersync/bad", lint.CounterSync(counterCfg()))
}

// TestStalePatterns: a pattern naming a package that no longer exists, or a
// prefix with nothing under it, is reported for every scoped config list;
// exact and prefix patterns that match stay quiet.
func TestStalePatterns(t *testing.T) {
	cfg := lint.Config{
		EmbedPackages:     []string{"live", "tree/...", "gone"},
		EmbedExempt:       []string{"tree/leaf"},
		EmbedForbidden:    []string{"tree/gone/..."},
		StrictPackages:    []string{"live/..."},
		SeededPackages:    []string{"tree"},
		FaultWrapPackages: []string{"leaf"},
	}
	got := lint.StalePatterns(cfg, linttest.Load(t, "testdata/stalepatterns"))
	want := []string{
		`EmbedPackages pattern "gone" matches no package`,
		`EmbedForbidden pattern "tree/gone/..." matches no package`,
		`SeededPackages pattern "tree" matches no package`,
		`FaultWrapPackages pattern "leaf" matches no package`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StalePatterns =\n  %q\nwant\n  %q", got, want)
	}
}

// TestRepoIsLintClean pins the real contract: the full suite over the live
// module must report nothing. This is the same run `make lint` performs, so a
// violation fails both the unit tests and the lint gate.
func TestRepoIsLintClean(t *testing.T) {
	world, err := lint.LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := lint.Run(world, lint.Analyzers(lint.DefaultConfig()))
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	for _, s := range lint.StalePatterns(lint.DefaultConfig(), world) {
		t.Errorf("lint.DefaultConfig: %s", s)
	}
}
