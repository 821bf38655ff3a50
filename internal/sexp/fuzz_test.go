package sexp_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sexp"
)

// FuzzReadAll feeds arbitrary text to the reader. It must return data or
// an error, never panic, and whatever it accepts must print back as
// text that reads as equal data.
func FuzzReadAll(f *testing.F) {
	for _, p := range bench.All() {
		f.Add(p.Source)
	}
	// Deep and wide shapes, and the reader's less common syntax.
	for _, s := range []string{
		strings.Repeat("(car ", 40) + "'" + strings.Repeat("(", 40) + "1" + strings.Repeat(")", 80),
		strings.Repeat("(+ 1 ", 40) + "0" + strings.Repeat(")", 40),
		"(list" + strings.Repeat(" 7", 200) + ")",
		"#(1 #t #\\a \"s\\n\" 2.5 -3 (a . b) [c d])",
		"`(a ,b ,@c) ; comment\n#;(skipped) #|block|# 'q",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ds, err := sexp.ReadAll(src)
		if err != nil {
			return
		}
		var b strings.Builder
		for _, d := range ds {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		again, err := sexp.ReadAll(b.String())
		if err != nil {
			t.Fatalf("printed data does not read back: %v\n%s", err, b.String())
		}
		if len(again) != len(ds) {
			t.Fatalf("read %d data, printed text reads as %d\n%s", len(ds), len(again), b.String())
		}
		for i := range ds {
			if !sexp.Equal(ds[i], again[i]) {
				t.Fatalf("datum %d: %s reads back as %s", i, ds[i], again[i])
			}
		}
	})
}
