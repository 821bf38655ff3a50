// Package sexp implements the S-expression datum model used by the
// mini-Scheme front end: a reader, a writer, and the handful of datum
// types (symbols, fixnums, flonums, booleans, characters, strings, pairs
// and vectors) that the benchmark programs need.
package sexp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Datum is the interface implemented by every S-expression node. The
// Sexp marker method is exported so that the run-time system (package
// prim) can store non-datum values such as closures inside pairs and
// vectors via a wrapper type.
type Datum interface {
	// String renders the datum in external (write) notation.
	String() string
	Sexp()
}

// Symbol is an interned-by-value Scheme symbol.
type Symbol string

// Fixnum is an exact integer datum.
type Fixnum int64

// Flonum is an inexact real datum.
type Flonum float64

// Boolean is #t or #f.
type Boolean bool

// Char is a character datum such as #\a.
type Char rune

// Str is a string datum.
type Str string

// Pair is a cons cell. Lists are chains of Pairs ending in Nil.
type Pair struct {
	Car Datum
	Cdr Datum
}

// Empty is the empty list ().
type Empty struct{}

// Vector is a vector datum #(...).
type Vector struct {
	Items []Datum
}

// Nil is the canonical empty list.
var Nil = Empty{}

func (Symbol) Sexp()  {}
func (Fixnum) Sexp()  {}
func (Flonum) Sexp()  {}
func (Boolean) Sexp() {}
func (Char) Sexp()    {}
func (Str) Sexp()     {}
func (*Pair) Sexp()   {}
func (Empty) Sexp()   {}
func (*Vector) Sexp() {}

func (s Symbol) String() string { return string(s) }
func (n Fixnum) String() string { return strconv.FormatInt(int64(n), 10) }

func (f Flonum) String() string {
	v := float64(f)
	if math.IsInf(v, 1) {
		return "+inf.0"
	}
	if math.IsInf(v, -1) {
		return "-inf.0"
	}
	if math.IsNaN(v) {
		return "+nan.0"
	}
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += "."
	}
	return s
}

func (b Boolean) String() string {
	if b {
		return "#t"
	}
	return "#f"
}

func (c Char) String() string {
	switch c {
	case ' ':
		return `#\space`
	case '\n':
		return `#\newline`
	case '\t':
		return `#\tab`
	}
	return `#\` + string(rune(c))
}

// strEscaper writes a string in the reader's syntax: only the escapes
// the reader knows, every other byte as is, so the result reads back
// as the same string.
var strEscaper = strings.NewReplacer(`"`, `\"`, `\`, `\\`, "\n", `\n`, "\t", `\t`, "\r", `\r`)

func (s Str) String() string { return `"` + strEscaper.Replace(string(s)) + `"` }

func (Empty) String() string { return "()" }

func (p *Pair) String() string {
	var b strings.Builder
	b.WriteByte('(')
	writeTail(&b, p)
	b.WriteByte(')')
	return b.String()
}

func writeTail(b *strings.Builder, p *Pair) {
	b.WriteString(p.Car.String())
	switch cdr := p.Cdr.(type) {
	case Empty:
	case *Pair:
		b.WriteByte(' ')
		writeTail(b, cdr)
	default:
		b.WriteString(" . ")
		b.WriteString(cdr.String())
	}
}

func (v *Vector) String() string {
	var b strings.Builder
	b.WriteString("#(")
	for i, it := range v.Items {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(it.String())
	}
	b.WriteByte(')')
	return b.String()
}

// List builds a proper list from the given items.
func List(items ...Datum) Datum {
	var out Datum = Nil
	for i := len(items) - 1; i >= 0; i-- {
		out = &Pair{Car: items[i], Cdr: out}
	}
	return out
}

// Cons builds a single pair.
func Cons(car, cdr Datum) *Pair { return &Pair{Car: car, Cdr: cdr} }

// IsList reports whether d is a proper list.
func IsList(d Datum) bool {
	for {
		switch t := d.(type) {
		case Empty:
			return true
		case *Pair:
			d = t.Cdr
		default:
			return false
		}
	}
}

// ListItems flattens a proper list into a slice. It returns an error for
// improper lists.
func ListItems(d Datum) ([]Datum, error) {
	var out []Datum
	for {
		switch t := d.(type) {
		case Empty:
			return out, nil
		case *Pair:
			out = append(out, t.Car)
			d = t.Cdr
		default:
			return nil, fmt.Errorf("sexp: improper list ending in %s", d)
		}
	}
}

// Length returns the number of items in a proper list, or -1 if d is not
// a proper list.
func Length(d Datum) int {
	n := 0
	for {
		switch t := d.(type) {
		case Empty:
			return n
		case *Pair:
			n++
			d = t.Cdr
		default:
			return -1
		}
	}
}

// Equal reports structural (Scheme equal?) equality of two datums.
func Equal(a, b Datum) bool {
	switch x := a.(type) {
	case *Pair:
		y, ok := b.(*Pair)
		return ok && Equal(x.Car, y.Car) && Equal(x.Cdr, y.Cdr)
	case *Vector:
		y, ok := b.(*Vector)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !Equal(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}
