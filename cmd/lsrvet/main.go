// Command lsrvet is the source-level static analysis gate: it runs the
// internal/srclint suite over this repository's own Go code and exits
// nonzero on any finding, making hot-path allocation regressions,
// vm.Program mutation, and drift between the VM's decoder and dispatch
// tables CI failures instead of latent bugs.
//
// Usage:
//
//	lsrvet                      # run all analyzers against the repo
//	lsrvet -json                # findings as internal/findings JSON
//	lsrvet -analyzers parity    # run a subset (alloc,immutable,parity)
//	lsrvet -write               # refresh ALLOC_BASELINE.json in place,
//	                            # preserving per-site notes
//
// The alloc-baseline analyzer shells out to `go build -gcflags=-m`, so
// lsrvet must run with the toolchain the committed baseline records
// (it refuses to diff across a different go MAJOR.MINOR).
//
// Exit codes:
//
//	0  clean (or baseline written)
//	1  findings
//	2  usage or analysis error
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/findings"
	"repro/internal/srclint"
)

func main() {
	var (
		root      = flag.String("root", ".", "module root to analyze")
		baseline  = flag.String("baseline", "ALLOC_BASELINE.json", "alloc baseline path (relative to -root)")
		analyzers = flag.String("analyzers", "", "comma-separated subset to run: alloc,immutable,parity (default all)")
		jsonOut   = flag.Bool("json", false, "emit findings as structured JSON")
		write     = flag.Bool("write", false, "measure escapes and rewrite the alloc baseline, preserving notes")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "lsrvet: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}

	opts := srclint.DefaultOptions(*root)
	opts.BaselinePath = *baseline
	if *analyzers != "" {
		opts.Analyzers = strings.Split(*analyzers, ",")
	}

	if *write {
		if err := writeBaseline(opts); err != nil {
			fmt.Fprintf(os.Stderr, "lsrvet: %v\n", err)
			os.Exit(2)
		}
		return
	}

	res, err := srclint.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsrvet: %v\n", err)
		os.Exit(2)
	}
	if res.Timing != "" {
		fmt.Fprintf(os.Stderr, "lsrvet: timing: %s\n", res.Timing)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "lsrvet: warning: %s\n", w)
	}
	if *jsonOut {
		if err := findings.WriteJSON(os.Stdout, res.Report()); err != nil {
			fmt.Fprintf(os.Stderr, "lsrvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			if f.File != "" {
				fmt.Printf("%s:%d: %s: %s\n", f.File, f.Line, f.Kind, f.Msg)
			} else {
				fmt.Printf("%s: %s\n", f.Kind, f.Msg)
			}
		}
	}
	if len(res.Findings) > 0 {
		if !*jsonOut {
			fmt.Printf("lsrvet: %d finding(s)\n", len(res.Findings))
		}
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Println("lsrvet: clean")
	}
}

// writeBaseline refreshes ALLOC_BASELINE.json from a fresh escape
// measurement, carrying notes over from the existing file when present.
func writeBaseline(opts srclint.Options) error {
	path := opts.BaselinePath
	if !strings.HasPrefix(path, "/") {
		path = opts.Root + "/" + path
	}
	var old *srclint.AllocBaseline
	if data, err := os.ReadFile(path); err == nil {
		if old, err = srclint.ReadBaseline(data); err != nil {
			return err
		}
	}
	sites, version, err := srclint.MeasureEscapes(opts.Root, opts.Alloc)
	if err != nil {
		return err
	}
	b := srclint.NewBaseline(opts.Alloc, version, sites, old)
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("lsrvet: wrote %s (%d sites)\n", path, len(b.Sites))
	return nil
}
