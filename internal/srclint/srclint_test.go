package srclint

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownAnalyzer(t *testing.T) {
	_, err := Run(Options{Root: ".", Analyzers: []string{"bogus"}})
	if err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("expected unknown-analyzer error, got %v", err)
	}
}

func TestReportShape(t *testing.T) {
	res := &Result{Warnings: []string{"w"}}
	rep := res.Report()
	if rep.Tool != "srclint" {
		t.Errorf("tool = %q", rep.Tool)
	}
	if rep.Findings == nil {
		t.Error("findings must serialize as [], not null")
	}
}

// TestSeededViolations is the end-to-end smoke test: it copies the
// repository to a temp dir, seeds one violation per analyzer, and runs
// the full suite the way cmd/lsrvet does. This is the proof that the
// gate actually fires on the real module layout, not just on the
// in-memory corpora above.
func TestSeededViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-analyzes the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := copyTree(root, tmp); err != nil {
		t.Fatal(err)
	}

	// Violation 1 (parity): an opcode the engine's decoder does not handle.
	seed(t, filepath.Join(tmp, "internal/vm/zz_seeded.go"), `package vm

// OpBogus is a deliberately unhandled opcode (seeded violation).
const OpBogus Op = 201

// corruptProgram writes a Program field (seeded violation 2).
func corruptProgram(p *Program) {
	p.Code = nil
}
`)
	// Violation 3 (alloc): a new heap-escape site in a hot-path file.
	appendTo(t, filepath.Join(tmp, "internal/vm/machine.go"), `
// leakSeeded escapes deliberately (seeded violation).
func leakSeeded() *int {
	x := new(int)
	return x
}
`)
	// Violation 4 (arena reachability): a per-machine Arena field on the
	// shared Program, plus a slab-owned closure pointer (closures are
	// arena-backed since the closure-slab overhaul, so a declared path
	// from Program to a Closure pins recycled memory the same way).
	replaceIn(t, filepath.Join(tmp, "internal/vm/instr.go"),
		"type Program struct {",
		"type Program struct {\n\tSeededArena *prim.Arena // seeded violation\n\tSeededBoot *prim.Closure // seeded violation\n")

	// Violation 5 (program mutation): a write to the shared prelude
	// fragment's code-generator prefix.
	seed(t, filepath.Join(tmp, "internal/compiler/zz_seeded.go"), `package compiler

// corruptFragment writes a shared fragment's field (seeded violation).
func corruptFragment(f *fragment) {
	f.code = nil
}
`)

	res, err := Run(DefaultOptions(tmp))
	if err != nil {
		t.Fatal(err)
	}
	fragmentCaught := false
	for _, f := range res.Findings {
		if f.Kind == "program-mutation" && strings.Contains(f.Msg, "repro/internal/compiler.fragment field code in repro/internal/compiler.corruptFragment") {
			fragmentCaught = true
		}
	}
	if !fragmentCaught {
		t.Error("seeded write to a prelude fragment not detected")
	}
	want := map[string]bool{
		"missing-decode-case": false,
		"program-mutation":    false,
		"new-heap-escape":     false,
		"arena-reachable":     false,
	}
	for _, f := range res.Findings {
		if _, ok := want[f.Kind]; ok {
			want[f.Kind] = true
		} else {
			t.Errorf("unexpected finding on seeded copy: %s: %s", f.Kind, f.Msg)
		}
	}
	for kind, hit := range want {
		if !hit {
			t.Errorf("seeded violation not detected: %s", kind)
		}
	}
}

func seed(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func replaceIn(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("%s: seed anchor %q not found", path, old)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendTo(t *testing.T, path, content string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the module working tree (regular files only, .git
// excluded) so tests can corrupt a throwaway checkout.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
