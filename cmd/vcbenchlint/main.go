// Command vcbenchlint is the repo's multichecker: it runs the standard `go
// vet` passes (nilness-adjacent checks, copylocks, printf, ...) and then the
// four custom analyzers of internal/lint — embedsync, nondeterminism,
// faultwrap, countersync — which enforce the determinism, fingerprint and
// fault-taxonomy invariants at compile time. `make lint` and the CI lint job
// are thin wrappers over this binary.
//
// Usage:
//
//	vcbenchlint [-custom-only] [-list] [packages]
//
// The package patterns are forwarded to `go vet` verbatim (default ./...);
// the custom analyzers always audit the whole module containing the working
// directory, because their invariants (registration completeness, codec
// field sync) are cross-package by nature. A DefaultConfig package pattern
// that matches no package of the module is reported as a finding too.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"vcomputebench/internal/lint"
)

func main() {
	customOnly := flag.Bool("custom-only", false, "skip the standard `go vet` passes and run only the custom analyzers")
	list := flag.Bool("list", false, "list the custom analyzers and exit")
	flag.Parse()

	cfg := lint.DefaultConfig()
	analyzers := lint.Analyzers(cfg)
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	failed := false
	if !*customOnly {
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Stdout = os.Stdout
		vet.Stderr = os.Stderr
		if err := vet.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(os.Stderr, "vcbenchlint: running go vet: %v\n", err)
				os.Exit(2)
			}
			failed = true
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vcbenchlint: %v\n", err)
		os.Exit(2)
	}
	world, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vcbenchlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(world, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vcbenchlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		// Positions relative to the module root keep output stable across
		// machines (and make CI logs clickable in the PR view).
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	stale := lint.StalePatterns(cfg, world)
	for _, s := range stale {
		fmt.Printf("lint.DefaultConfig: %s\n", s)
	}
	if len(diags) > 0 || len(stale) > 0 || failed {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
