// Command rmlint runs rmssd's domain-aware static-analysis suite.
//
//	go run ./cmd/rmlint ./...
//	go run ./cmd/rmlint ./internal/... (subtree)
//	go run ./cmd/rmlint -json ./... (one JSON diagnostic per line, for CI)
//
// rmlint always runs the whole suite; `make lint-fixtures` runs the
// analyzers' own tests. It exits 0 when the tree is clean, 1 if any
// diagnostic survives //lint:allow filtering, and 2 on load/usage errors,
// making it suitable as a CI gate (see .github/workflows/ci.yml and `make
// check`). See internal/lint for the analyzer suite: wallclock
// (determinism), units (sim.Cycles vs time.Duration), errcheck (discarded
// errors), panicmsg (package-prefixed panics), mapiter (map iteration
// feeding order-sensitive sinks), goroutine (join discipline outside cmd/,
// examples/ and benchmark/), locks (mutex release/send-under-lock
// discipline) and allowaudit (stale //lint:allow directives).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rmssd/internal/lint"
)

// jsonDiagnostic is the machine-readable diagnostic shape: one object per
// line on stdout, stable field names, nothing else interleaved (the
// summary goes to stderr).
type jsonDiagnostic struct {
	Pos      string `json:"pos"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		rootDir = flag.String("root", "", "module root (default: nearest go.mod upward from the working directory)")
		asJSON  = flag.Bool("json", false, "emit one JSON diagnostic per line ({\"pos\",\"analyzer\",\"message\"}) instead of plain text")
	)
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root := *rootDir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmlint:", err)
			os.Exit(2)
		}
	}

	pkgs, err := lint.LoadPatterns(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmlint:", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.All())
	for _, d := range diags {
		if *asJSON {
			line, err := json.Marshal(jsonDiagnostic{
				Pos:      fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "rmlint:", err)
				os.Exit(2)
			}
			fmt.Println(string(line))
			continue
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rmlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// findModuleRoot walks upward from the working directory to the nearest
// go.mod.
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
			return "", fmt.Errorf("no go.mod found upward from the working directory")
		}
		dir = parent
	}
}
