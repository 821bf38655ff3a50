package sexp

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Reader parses a stream of S-expression datums from source text.
type Reader struct {
	src  string
	pos  int
	line int
	col  int
}

// NewReader returns a Reader over src.
func NewReader(src string) *Reader {
	return &Reader{src: src, line: 1, col: 1}
}

// SyntaxError reports a malformed datum along with its source position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sexp: %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (r *Reader) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: r.line, Col: r.col, Msg: fmt.Sprintf(format, args...)}
}

func (r *Reader) peek() (byte, bool) {
	if r.pos >= len(r.src) {
		return 0, false
	}
	return r.src[r.pos], true
}

func (r *Reader) next() (byte, bool) {
	c, ok := r.peek()
	if !ok {
		return 0, false
	}
	r.pos++
	if c == '\n' {
		r.line++
		r.col = 1
	} else {
		r.col++
	}
	return c, true
}

func (r *Reader) skipSpace() {
	for {
		c, ok := r.peek()
		if !ok {
			return
		}
		switch {
		case c == ';':
			for {
				c, ok := r.next()
				if !ok || c == '\n' {
					break
				}
			}
		case c == '#' && r.pos+1 < len(r.src) && r.src[r.pos+1] == '|':
			r.next()
			r.next()
			depth := 1
			for depth > 0 {
				c, ok := r.next()
				if !ok {
					return
				}
				if c == '|' {
					if d, ok := r.peek(); ok && d == '#' {
						r.next()
						depth--
					}
				} else if c == '#' {
					if d, ok := r.peek(); ok && d == '|' {
						r.next()
						depth++
					}
				}
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f':
			r.next()
		default:
			return
		}
	}
}

// ReadAll parses every datum in the source.
func (r *Reader) ReadAll() ([]Datum, error) {
	var out []Datum
	for {
		d, err := r.Read()
		if err != nil {
			return nil, err
		}
		if d == nil {
			return out, nil
		}
		out = append(out, d)
	}
}

// Read parses the next datum, returning nil at end of input.
func (r *Reader) Read() (Datum, error) {
	r.skipSpace()
	c, ok := r.peek()
	if !ok {
		return nil, nil
	}
	switch c {
	case '(', '[':
		return r.readList()
	case ')', ']':
		return nil, r.errf("unexpected %q", c)
	case '\'':
		r.next()
		return r.readAbbrev("quote")
	case '`':
		r.next()
		return r.readAbbrev("quasiquote")
	case ',':
		r.next()
		if d, ok := r.peek(); ok && d == '@' {
			r.next()
			return r.readAbbrev("unquote-splicing")
		}
		return r.readAbbrev("unquote")
	case '"':
		return r.readString()
	case '#':
		return r.readHash()
	default:
		return r.readAtom()
	}
}

func (r *Reader) readAbbrev(tag string) (Datum, error) {
	d, err := r.Read()
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, r.errf("unexpected end of input after %s abbreviation", tag)
	}
	return List(Symbol(tag), d), nil
}

func closerFor(open byte) byte {
	if open == '[' {
		return ']'
	}
	return ')'
}

func (r *Reader) readList() (Datum, error) {
	open, _ := r.next()
	closer := closerFor(open)
	var items []Datum
	var tail Datum = Nil
	for {
		r.skipSpace()
		c, ok := r.peek()
		if !ok {
			return nil, r.errf("unterminated list")
		}
		if c == closer {
			r.next()
			break
		}
		if c == ')' || c == ']' {
			return nil, r.errf("mismatched close %q (want %q)", c, closer)
		}
		if c == '.' && r.isDelimitedDot() {
			r.next()
			d, err := r.Read()
			if err != nil {
				return nil, err
			}
			if d == nil {
				return nil, r.errf("unterminated dotted pair")
			}
			tail = d
			r.skipSpace()
			c, ok := r.next()
			if !ok || c != closer {
				return nil, r.errf("malformed dotted pair")
			}
			break
		}
		d, err := r.Read()
		if err != nil {
			return nil, err
		}
		if d == nil {
			return nil, r.errf("unterminated list")
		}
		items = append(items, d)
	}
	out := tail
	for i := len(items) - 1; i >= 0; i-- {
		out = &Pair{Car: items[i], Cdr: out}
	}
	return out, nil
}

// isDelimitedDot reports whether the '.' at the current position is a
// dotted-pair marker rather than the start of a symbol or number.
func (r *Reader) isDelimitedDot() bool {
	if r.pos+1 >= len(r.src) {
		return true
	}
	c := r.src[r.pos+1]
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '(' || c == ')' || c == '[' || c == ']'
}

func (r *Reader) readString() (Datum, error) {
	r.next() // opening quote
	var b strings.Builder
	for {
		c, ok := r.next()
		if !ok {
			return nil, r.errf("unterminated string")
		}
		if c == '"' {
			return Str(b.String()), nil
		}
		if c == '\\' {
			e, ok := r.next()
			if !ok {
				return nil, r.errf("unterminated string escape")
			}
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '"':
				b.WriteByte(e)
			default:
				return nil, r.errf("unknown string escape \\%c", e)
			}
			continue
		}
		b.WriteByte(c)
	}
}

func (r *Reader) readHash() (Datum, error) {
	r.next() // '#'
	c, ok := r.next()
	if !ok {
		return nil, r.errf("unexpected end of input after #")
	}
	switch c {
	case 't':
		return Boolean(true), nil
	case 'f':
		return Boolean(false), nil
	case '(':
		r.pos-- // re-read the open paren as a list
		r.col--
		lst, err := r.readList()
		if err != nil {
			return nil, err
		}
		items, err := ListItems(lst)
		if err != nil {
			return nil, err
		}
		return &Vector{Items: items}, nil
	case '\\':
		return r.readChar()
	default:
		return nil, r.errf("unknown # syntax #%c", c)
	}
}

func (r *Reader) readChar() (Datum, error) {
	// The first character is a whole UTF-8 sequence, so a non-ASCII
	// character reads back as the rune it prints as.
	ch, size := utf8.DecodeRuneInString(r.src[r.pos:])
	if size == 0 {
		return nil, r.errf("unterminated character literal")
	}
	if ch == utf8.RuneError && size == 1 {
		return nil, r.errf("invalid UTF-8 in character literal")
	}
	var b strings.Builder
	for i := 0; i < size; i++ {
		c, _ := r.next()
		b.WriteByte(c)
	}
	for {
		c, ok := r.peek()
		if !ok || !isSymbolChar(c) {
			break
		}
		r.next()
		b.WriteByte(c)
	}
	s := b.String()
	switch s {
	case "space":
		return Char(' '), nil
	case "newline", "linefeed":
		return Char('\n'), nil
	case "tab":
		return Char('\t'), nil
	case "return":
		return Char('\r'), nil
	case "nul", "null":
		return Char(0), nil
	}
	runes := []rune(s)
	if len(runes) != 1 {
		return nil, r.errf("unknown character name #\\%s", s)
	}
	return Char(runes[0]), nil
}

func isSymbolChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	return strings.IndexByte("!$%&*+-./:<=>?@^_~", c) >= 0
}

func (r *Reader) readAtom() (Datum, error) {
	start := r.pos
	for {
		c, ok := r.peek()
		if !ok || !isSymbolChar(c) {
			break
		}
		r.next()
	}
	text := r.src[start:r.pos]
	if text == "" {
		c, _ := r.peek()
		return nil, r.errf("unexpected character %q", c)
	}
	if text == "." {
		// A lone dot is only the dotted-pair marker inside a list; as a
		// datum it would print as that marker and not read back.
		return nil, r.errf("unexpected '.'")
	}
	return parseAtom(text)
}

func parseAtom(text string) (Datum, error) {
	if n, err := strconv.ParseInt(text, 10, 64); err == nil {
		return Fixnum(n), nil
	}
	if looksNumeric(text) {
		if f, err := strconv.ParseFloat(text, 64); err == nil {
			return Flonum(f), nil
		}
	}
	return Symbol(text), nil
}

// looksNumeric distinguishes flonum syntax from symbols such as `+` or
// `...` that ParseFloat would reject anyway but that we should not even
// try to parse (e.g. `1+` is a valid symbol in some Schemes; we treat any
// atom starting with a digit, or sign-then-digit/dot, as numeric intent).
func looksNumeric(text string) bool {
	if text == "" {
		return false
	}
	i := 0
	if text[0] == '+' || text[0] == '-' {
		i = 1
	}
	if i >= len(text) {
		return false
	}
	return unicode.IsDigit(rune(text[i])) || (text[i] == '.' && i+1 < len(text) && unicode.IsDigit(rune(text[i+1])))
}

// ReadAll is a convenience wrapper parsing all datums in src.
func ReadAll(src string) ([]Datum, error) {
	return NewReader(src).ReadAll()
}

// ReadOne parses exactly one datum from src.
func ReadOne(src string) (Datum, error) {
	r := NewReader(src)
	d, err := r.Read()
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("sexp: empty input")
	}
	return d, nil
}
