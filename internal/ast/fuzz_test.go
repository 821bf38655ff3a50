package ast_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
)

// FuzzParse feeds arbitrary text through the reader and the parser
// (macro expansion, scoping, syntax checks). Malformed programs must be
// rejected with an error, never a panic.
func FuzzParse(f *testing.F) {
	for _, p := range bench.All() {
		f.Add(p.Source)
	}
	for _, s := range []string{
		"(define (f) " + strings.Repeat("(car ", 40) + "'" + strings.Repeat("(", 40) + "1" + strings.Repeat(")", 80) + ") (f)",
		"(define (f v) " + strings.Repeat("(+ v ", 40) + "0" + strings.Repeat(")", 40) + ") (f 1)",
		"(list" + strings.Repeat(" 7", 200) + ")",
		"(let loop ([i 0]) (cond [(= i 3) => list] [else (loop (+ i 1))]))",
		"(define-syntax swap! (syntax-rules () [(_ a b) (let ([t a]) (set! a b) (set! b t))]))",
		"(case 1 [(1 2) 'a] [else 'b]) (do ([i 0 (+ i 1)]) ((= i 2) i)) `(a ,@(list 1))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ast.ParseString(src)
		if (p == nil) == (err == nil) {
			t.Fatalf("ParseString returned program %v and error %v", p != nil, err)
		}
	})
}
