// Package analysis is a minimal, dependency-free analyzer framework with the
// same shape as golang.org/x/tools/go/analysis: an Analyzer is a named check,
// a Pass is one analyzer applied to one package, and diagnostics are reported
// through the pass. The x/tools module is deliberately not imported — the
// repo builds offline from a bare go.mod — so this package carries only the
// subset the vcbenchlint suite needs: syntactic analysis over parsed files,
// best-effort type information, and a World giving every analyzer a view of
// the other packages in the module (the embed-registration and counter-codec
// invariants are inherently cross-package).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and `vcbenchlint -list`.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Reportf; the error return is for analyzer-internal failures
	// (malformed world, not findings).
	Run func(*Pass) error
}

// Package is one parsed (and best-effort type-checked) package of the world.
type Package struct {
	// Path is the import path ("vcomputebench/internal/hw").
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir string
	// Fset positions every file in the world.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// FileNames[i] is the base name of Files[i] ("trace.go").
	FileNames []string
	// Types and Info carry best-effort type information: module-internal
	// imports are fully checked, imports outside the module resolve to empty
	// placeholder packages, and type errors are collected rather than fatal.
	// Analyzers must treat missing type info as "unknown", never as proof.
	Types *types.Package
	Info  *types.Info
}

// World is every package the driver loaded, plus module identity. Analyzers
// that check cross-package contracts (registration lists) consult it instead
// of importing anything themselves.
type World struct {
	// ModulePath is the module prefix shared by every package ("vcomputebench").
	// Empty in fixture worlds, where Package.Path is already relative.
	ModulePath string
	Packages   []*Package
}

// Rel returns pkg's path relative to the module root ("internal/hw").
func (w *World) Rel(pkg *Package) string {
	if w.ModulePath == "" {
		return pkg.Path
	}
	if pkg.Path == w.ModulePath {
		return "."
	}
	return strings.TrimPrefix(pkg.Path, w.ModulePath+"/")
}

// Lookup finds a package by module-relative path, or nil.
func (w *World) Lookup(rel string) *Package {
	for _, p := range w.Packages {
		if w.Rel(p) == rel {
			return p
		}
	}
	return nil
}

// Diagnostic is one reported finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	World    *World
	// Report receives every diagnostic; the driver owns collection,
	// suppression and ordering.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
