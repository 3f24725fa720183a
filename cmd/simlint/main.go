// Command simlint runs the simulator's static-analysis suite
// (internal/analysis): the syntax checks (walltime, rawspin, maporder,
// virtualtime, seqadvance, crossshard) and the flow-sensitive balance
// checks (framebalance, lockpair). It speaks the `go vet -vettool`
// protocol, so the full toolchain integration is
//
//	go build -o bin/simlint ./cmd/simlint
//	go vet -vettool=bin/simlint ./...
//
// (what `make lint` runs), and it also works standalone:
//
//	simlint ./...                # analyze packages in the current module
//	simlint -json ./...          # machine-readable diagnostics on stdout
//	simlint -allows ./...        # audit //simlint:allow directives
//
// Findings are suppressed — with a mandatory reason — by a comment on
// the offending line or the line directly above it:
//
//	//simlint:allow <analyzer> -- <reason>
//
// -allows lists every such directive and fails (exit 2) on malformed
// ones and on *stale* ones: suppressions whose analyzer no longer
// reports anything at that position, which would otherwise lie in wait
// to swallow the next real finding there.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/framework"
)

func main() {
	args := os.Args[1:]

	// `go vet` interrogates the tool's flag set before use; simlint
	// takes no analyzer flags.
	for _, a := range args {
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
		if a == "-V=full" || a == "--V=full" {
			// Tool-identity protocol: name and a build stamp.
			fmt.Println("simlint version simlint-1")
			return
		}
	}

	// `go vet -vettool` invokes the tool with a single *.cfg argument.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVet(args[0]))
	}

	jsonOut, audit := false, false
	var patterns []string
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-allows", "--allows":
			audit = true
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "simlint: unknown flag %s\n", a)
				os.Exit(1)
			}
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if audit {
		os.Exit(runAllows(patterns, jsonOut))
	}
	os.Exit(runStandalone(patterns, jsonOut))
}

// jsonDiag is one -json diagnostic. The stream is sorted by
// (file, line, col, analyzer) so output is deterministic regardless of
// package load order.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func sortDiags(ds []jsonDiag) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

func runStandalone(patterns []string, jsonOut bool) int {
	pkgs, err := framework.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	var all []jsonDiag
	for _, pkg := range pkgs {
		diags, err := framework.RunAnalyzers(pkg, analysis.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			all = append(all, jsonDiag{p.Filename, p.Line, p.Column, d.Analyzer, d.Message})
		}
	}
	sortDiags(all)
	if jsonOut {
		if all == nil {
			all = []jsonDiag{} // an empty finding set is [], not null
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
	} else {
		for _, d := range all {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Analyzer)
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(all))
		return 2
	}
	return 0
}

// jsonAllow is one -allows entry.
type jsonAllow struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Analyzer  string `json:"analyzer"`
	Reason    string `json:"reason"`
	Stale     bool   `json:"stale,omitempty"`
	Malformed string `json:"malformed,omitempty"`
}

func runAllows(patterns []string, jsonOut bool) int {
	pkgs, err := framework.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	var all []jsonAllow
	for _, pkg := range pkgs {
		allows, err := framework.AuditAllows(pkg, analysis.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
		for _, a := range allows {
			p := pkg.Fset.Position(a.Pos)
			all = append(all, jsonAllow{p.Filename, p.Line, a.Analyzer, a.Reason, a.Stale, a.Malformed})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	// Test-variant packages repeat a package's files; a directive seen
	// through both the package and its test variant is one directive.
	dedup := all[:0]
	for i, a := range all {
		if i == 0 || a != all[i-1] {
			dedup = append(dedup, a)
		}
	}
	all = dedup

	bad := 0
	if jsonOut {
		if all == nil {
			all = []jsonAllow{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
		for _, a := range all {
			if a.Stale || a.Malformed != "" {
				bad++
			}
		}
	} else {
		for _, a := range all {
			state := "live"
			switch {
			case a.Malformed != "":
				state = "MALFORMED: " + a.Malformed
			case a.Stale:
				state = "STALE"
			}
			fmt.Printf("%s:%d: allow %s -- %s [%s]\n", a.File, a.Line, a.Analyzer, a.Reason, state)
			if a.Stale || a.Malformed != "" {
				bad++
			}
		}
		fmt.Printf("simlint: %d allow directive(s), %d problem(s)\n", len(all), bad)
	}
	if bad > 0 {
		return 2
	}
	return 0
}
