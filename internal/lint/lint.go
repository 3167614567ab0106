// Package lint is the vcbenchlint analyzer suite: compile-time enforcement of
// the repo's determinism, fingerprint and fault-taxonomy invariants, which
// until now were guarded only by runtime tests. Four analyzers over the
// minimal framework in internal/lint/analysis:
//
//   - embedsync: every execution-relevant package embeds its own sources
//     (`//go:embed *.go` in sources.go) and is registered in
//     internal/codeversion, and timing-only packages are NOT registered (the
//     store-stays-warm-across-recalibration contract).
//   - nondeterminism: the packages that promise byte-identical documents use
//     no wall clock, environment, or global rand, and never let Go's random
//     map iteration order reach output unsorted; execution packages may seed
//     local rand sources only behind an explicit annotation.
//   - faultwrap: errors born at the ExecuteKernel/Occupy seam of the API
//     layers must be re-wrapped with %w so errors.As fault classification
//     (the Transient/Permanent retry taxonomy) survives translation.
//   - countersync: the kernels.Counters field set, its Add/Scale methods and
//     the internal/hw codec field lists stay in sync, at compile time.
//
// A finding is suppressed by a `//lint:allow(reason)` comment on the same
// line or the line directly above; the reason is mandatory. The suite runs
// via `make lint` (which also runs the standard `go vet` passes) and as the
// CI lint job.
package lint

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"vcomputebench/internal/lint/analysis"
)

// Config scopes the analyzers to package sets. Paths are module-relative; an
// entry ending in "/..." matches the prefix and everything below it. The
// fixture tests build small configs over testdata trees; DefaultConfig is the
// real repo contract (TestRepoIsLintClean pins that it matches the tree, and
// StalePatterns that every pattern still names a package).
type Config struct {
	// EmbedPackages must contain a sources.go with `//go:embed *.go` and be
	// registered in the codeversion sets list.
	EmbedPackages []string
	// EmbedExempt are carved out of EmbedPackages prefixes: linked into the
	// binary but unable to make a stored snapshot stale (pure registry
	// wiring), so they are neither embedded nor registered.
	EmbedExempt []string
	// EmbedForbidden must NOT be registered: their knob values are revalued
	// on replay, and registering them would cold the store on every
	// recalibration.
	EmbedForbidden []string
	// CodeVersionPath is the package holding the registration list, and
	// SetsVar the variable naming each embedded source set.
	CodeVersionPath string
	SetsVar         string

	// StrictPackages promise byte-identical documents: no time.Now/Since, no
	// os environment reads, no math/rand at all, no unsorted map iteration.
	StrictPackages []string
	// SeededPackages are execution/workload packages: global rand and the
	// wall clock are forbidden, and even seeded rand.New/rand.NewSource
	// construction requires a //lint:allow(reason) acknowledging the seed is
	// deterministic.
	SeededPackages []string

	// FaultWrapPackages are the API layers whose ExecuteKernel/Occupy error
	// paths must preserve fault classes with %w.
	FaultWrapPackages []string

	// Countersync: KernelsPath declares CountersType with Add/Scale; CodecPath
	// holds the wire codec (CounterFieldsConst, appendCounters, readCounters).
	KernelsPath        string
	CodecPath          string
	CountersType       string
	CounterFieldsConst string
	// DerivedCounterFields are recomputed before recording and excluded from
	// both accumulation and the wire format. IntensiveCounterFields are
	// accumulated but must never be scaled (ratios and per-group maxima).
	DerivedCounterFields   []string
	IntensiveCounterFields []string
}

// DefaultConfig is the invariant contract of this repository.
func DefaultConfig() Config {
	return Config{
		EmbedPackages: []string{
			"internal/bench",
			"internal/core",
			"internal/cuda",
			"internal/extensions/...",
			"internal/glsl",
			"internal/hw",
			"internal/kernels",
			"internal/micro",
			"internal/opencl",
			"internal/rodinia/...",
			"internal/spirv",
			"internal/vulkan/...",
		},
		// suite is pure registration wiring over the core registry: it cannot
		// change what a cell executes, so it stays out of the fingerprint.
		EmbedExempt: []string{"internal/rodinia/suite"},
		// platforms holds timing-only knob values that replay revalues; serve
		// is a frontend over the replay seam and cannot change what a cell
		// executes. Registering either would cold the store needlessly.
		EmbedForbidden:  []string{"internal/platforms", "internal/serve"},
		CodeVersionPath: "internal/codeversion",
		SetsVar:         "sets",

		StrictPackages: []string{
			"internal/core",
			"internal/experiments",
			"internal/report",
			// serve promises byte-identical response bodies for identical
			// requests; its latency metrics legitimately read the wall clock
			// through one annotated accessor (serve/metrics.go).
			"internal/serve",
			"internal/stats",
		},
		SeededPackages: []string{
			"internal/bench",
			"internal/cuda",
			"internal/extensions/...",
			"internal/glsl",
			"internal/hw",
			"internal/kernels",
			"internal/micro",
			"internal/opencl",
			"internal/rodinia/...",
			"internal/spirv",
			"internal/vulkan/...",
		},

		FaultWrapPackages: []string{
			"internal/cuda",
			"internal/opencl",
			"internal/vulkan/...",
		},

		KernelsPath:            "internal/kernels",
		CodecPath:              "internal/hw",
		CountersType:           "Counters",
		CounterFieldsConst:     "counterFields",
		DerivedCounterFields:   []string{"SampleScale"},
		IntensiveCounterFields: []string{"SharedBytesPerGroup", "SampledUsefulBytes", "SampledTransactionBytes"},
	}
}

// Analyzers returns the configured suite, in stable order.
func Analyzers(cfg Config) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		EmbedSync(cfg),
		NonDeterminism(cfg),
		FaultWrap(cfg),
		CounterSync(cfg),
	}
}

// StalePatterns reports every package pattern of cfg that matches no
// package of the world. An analyzer scoped to a deleted or renamed package
// would otherwise pass silently, so the driver treats each one as a finding.
func StalePatterns(cfg Config, world *analysis.World) []string {
	lists := []struct {
		field    string
		patterns []string
	}{
		{"EmbedPackages", cfg.EmbedPackages},
		{"EmbedExempt", cfg.EmbedExempt},
		{"EmbedForbidden", cfg.EmbedForbidden},
		{"StrictPackages", cfg.StrictPackages},
		{"SeededPackages", cfg.SeededPackages},
		{"FaultWrapPackages", cfg.FaultWrapPackages},
	}
	var stale []string
	for _, l := range lists {
		for _, pat := range l.patterns {
			matched := false
			for _, pkg := range world.Packages {
				if matchPath([]string{pat}, world.Rel(pkg)) {
					matched = true
					break
				}
			}
			if !matched {
				stale = append(stale, fmt.Sprintf("%s pattern %q matches no package", l.field, pat))
			}
		}
	}
	return stale
}

// matchPath reports whether rel matches any pattern: exact, or prefix for
// patterns ending in "/...".
func matchPath(patterns []string, rel string) bool {
	for _, pat := range patterns {
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		} else if rel == pat {
			return true
		}
	}
	return false
}

// Run applies every analyzer to every package of the world, drops suppressed
// findings, and returns the rest ordered by position.
func Run(world *analysis.World, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, pkg := range world.Packages {
		allowed := allowedLines(pkg)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer: a,
				Pkg:      pkg,
				World:    world,
				Report: func(d analysis.Diagnostic) {
					if allowed[lineKey{d.Pos.Filename, d.Pos.Line}] || allowed[lineKey{d.Pos.Filename, d.Pos.Line - 1}] {
						return
					}
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags, nil
}

type lineKey struct {
	file string
	line int
}

// allowRE matches the escape hatch. The reason must be non-empty: an allow
// without a justification does not suppress anything.
var allowRE = regexp.MustCompile(`lint:allow\(\s*[^)\s][^)]*\)`)

// allowedLines collects every line of the package carrying a valid
// //lint:allow(reason) comment. A finding on that line, or on the line
// directly below it, is suppressed.
func allowedLines(pkg *analysis.Package) map[lineKey]bool {
	out := make(map[lineKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if allowRE.MatchString(c.Text) {
					pos := pkg.Fset.Position(c.Pos())
					out[lineKey{pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	return out
}
