package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"repro/internal/bench"
)

// HeldOutSeed is reserved for checking a claimed gain on inputs the
// change was not tuned on; tune with any other seed.
const HeldOutSeed = 20251017

// Unit shapes of the compile workload. Every block of 20 consecutive
// units holds exactly 8 suite, 6 snippet, 3 deep and 3 wide units in a
// seeded order, so any prefix of the stream has the same mix.
const (
	shapeSuite   = "suite"
	shapeSnippet = "snippet"
	shapeDeep    = "deep"
	shapeWide    = "wide"
)

var blockShapes = []string{
	shapeSuite, shapeSuite, shapeSuite, shapeSuite, shapeSuite, shapeSuite, shapeSuite, shapeSuite,
	shapeSnippet, shapeSnippet, shapeSnippet, shapeSnippet, shapeSnippet, shapeSnippet,
	shapeDeep, shapeDeep, shapeDeep,
	shapeWide, shapeWide, shapeWide,
}

// Nesting depth and argument-list width range over [minSize, maxSize].
// At the top of the range one unit compiles (deep) or verifies (wide)
// in roughly 40-50 ms.
const (
	minSize = 20
	maxSize = 1000
)

// unit is one compile-workload input with the value it must compute.
type unit struct {
	index  int
	shape  string
	name   string // suite program or snippet template
	source string
	expect string // result in write notation
	size   int    // nesting depth (deep) or list width (wide)
}

// unitGen yields the compile workload's stream of distinct units.
type unitGen struct {
	seed  uint64
	suite []*bench.Program
	// deepPhase and widePhase offset the low-discrepancy size sequences.
	deepPhase, widePhase float64
}

func newUnitGen(seed uint64) *unitGen {
	r := rand.New(rand.NewPCG(seed, 0))
	return &unitGen{
		seed:      seed,
		suite:     bench.All(),
		deepPhase: r.Float64(),
		widePhase: r.Float64(),
	}
}

// unit returns the i-th unit; the same seed and i always give the same
// bytes.
func (g *unitGen) unit(i int) unit {
	block, pos := i/len(blockShapes), i%len(blockShapes)
	order := rand.New(rand.NewPCG(g.seed, uint64(block)+1)).Perm(len(blockShapes))
	shape := blockShapes[order[pos]]
	// rank is this unit's index among the units of its shape.
	rank := block * count(blockShapes, shape)
	for _, p := range order[:pos] {
		if blockShapes[p] == shape {
			rank++
		}
	}
	r := rand.New(rand.NewPCG(g.seed, uint64(i)<<32|0xc0de))
	u := unit{index: i, shape: shape}
	// The tag makes every unit's text, and so its cache key, distinct.
	tag := fmt.Sprintf("(define unit-tag-%d %d)\n", i, r.IntN(1<<30))
	switch shape {
	case shapeSuite:
		p := g.suite[g.suitePick(rank)]
		u.name, u.source, u.expect = p.Name, tag+p.Source, p.Expect
	case shapeSnippet:
		u.name, u.source, u.expect = snippet(r)
		u.source = tag + u.source
	case shapeDeep:
		u.size = sizeAt(g.deepPhase, rank)
		u.name, u.source, u.expect = deepUnit(r, u.size, rank%2 == 0)
		u.source = tag + u.source
	case shapeWide:
		u.size = sizeAt(g.widePhase, rank)
		u.name, u.source, u.expect = wideUnit(r, u.size, rank%2 == 0)
		u.source = tag + u.source
	}
	return u
}

// suitePick maps the rank-th suite unit to a program: each pass over
// the suite visits every program once, in a seeded order.
func (g *unitGen) suitePick(rank int) int {
	n := len(g.suite)
	perm := rand.New(rand.NewPCG(g.seed, uint64(rank/n)<<32|0x5ee7)).Perm(n)
	return perm[rank%n]
}

func count(xs []string, x string) int {
	n := 0
	for _, y := range xs {
		if y == x {
			n++
		}
	}
	return n
}

// sizeAt spreads sizes log-uniformly over [minSize, maxSize] along a
// golden-ratio sequence: small sizes are common, the largest rare, and
// every run sees the same size distribution whatever its seed.
func sizeAt(phase float64, rank int) int {
	f := phase + float64(rank)*0.6180339887498949
	f -= math.Floor(f)
	return int(float64(minSize) * math.Pow(float64(maxSize)/float64(minSize), f))
}

// snippet is a small program whose text is mostly the prelude the
// compiler prepends.
func snippet(r *rand.Rand) (name, src, expect string) {
	a, b, c := r.IntN(100), r.IntN(100), r.IntN(100)
	n := 5 + r.IntN(40)
	switch r.IntN(6) {
	case 0:
		return "arith", fmt.Sprintf("(+ %d (* %d %d))", a, b, c), fmt.Sprint(a + b*c)
	case 1:
		return "map-iota", fmt.Sprintf("(length (map (lambda (x) (* x %d)) (iota %d)))", a, n), fmt.Sprint(n)
	case 2:
		return "fold", fmt.Sprintf("(fold-left + 0 (list %d %d %d %d))", a, b, c, n), fmt.Sprint(a + b + c + n)
	case 3:
		return "loop", fmt.Sprintf("(let loop ((i 0) (acc 0)) (if (= i %d) acc (loop (+ i 1) (+ acc %d))))", n, a),
			fmt.Sprint(n * a)
	case 4:
		return "reverse", fmt.Sprintf("(car (reverse (list %d %d %d)))", a, b, c), fmt.Sprint(c)
	default:
		return "square", fmt.Sprintf("(define (sq x) (* x x))\n(sq %d)", a), fmt.Sprint(a * a)
	}
}

// deepUnit nests size calls: car over a quoted list nested as deep, or
// a right-nested sum.
func deepUnit(r *rand.Rand, size int, car bool) (name, src, expect string) {
	var b strings.Builder
	if car {
		v := r.IntN(1000)
		b.WriteString(strings.Repeat("(car ", size))
		b.WriteString("'")
		b.WriteString(strings.Repeat("(", size))
		fmt.Fprint(&b, v)
		b.WriteString(strings.Repeat(")", 2*size))
		return "car-nest", b.String(), fmt.Sprint(v)
	}
	total := 0
	for i := 0; i < size; i++ {
		v := r.IntN(100)
		total += v
		fmt.Fprintf(&b, "(+ %d ", v)
	}
	b.WriteString("0")
	b.WriteString(strings.Repeat(")", size))
	return "sum-nest", b.String(), fmt.Sprint(total)
}

// wideUnit builds one call with size arguments, reduced to a number.
func wideUnit(r *rand.Rand, size int, length bool) (name, src, expect string) {
	var b strings.Builder
	if length {
		b.WriteString("(length (list")
	} else {
		b.WriteString("(fold-left + 0 (list")
	}
	total := 0
	for i := 0; i < size; i++ {
		v := r.IntN(1000)
		total += v
		fmt.Fprintf(&b, " %d", v)
	}
	b.WriteString("))")
	if length {
		return "list-length", b.String(), fmt.Sprint(size)
	}
	return "list-sum", b.String(), fmt.Sprint(total)
}

// Serve workload key tiers. Hot keys stay in the LRU; warm keys are
// compiled during set-up and cycled through in an order whose reuse
// distance is far larger than the LRU, so each is a store hit; cold keys
// are new sources that must be compiled and written to the store.
const (
	hotKeys   = 16
	warmKeys  = 320
	lruSize   = 96
	hotShare  = 0.6
	warmShare = 0.2 // the remaining 0.2 is cold
	zipfS     = 1.2
)

// request is one serve-workload request and the value it must return.
type request struct {
	source string
	expect string
}

// serveSource returns the source for key k and the value it computes.
// The template and its size follow from k alone, so every seed serves
// the same mix of costs; the seed goes into the key's tag. Every source
// runs in well under 2 ms on the VM.
func serveSource(seed uint64, k int) (src, expect string) {
	tag := fmt.Sprintf("(define key-tag '(%d %d))\n", seed, k)
	v := k / 4 % 3
	switch k % 4 {
	case 0:
		n := 10 + v
		return tag + fmt.Sprintf("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))\n(fib %d)", n),
			fmt.Sprint(fib(n))
	case 1:
		n := 500 + 500*v
		return tag + fmt.Sprintf("(let loop ((i 0) (acc 0)) (if (= i %d) acc (loop (+ i 1) (+ acc i))))", n),
			fmt.Sprint(n * (n - 1) / 2)
	case 2:
		n, m := 50+50*v, 1+k%9
		return tag + fmt.Sprintf("(fold-left + 0 (map (lambda (x) (* x %d)) (iota %d)))", m, n),
			fmt.Sprint(m * n * (n - 1) / 2)
	default:
		x, y, z := 7, 3+v%2, v
		return tag + fmt.Sprintf(`(define (tak x y z)
  (if (not (< y x)) z (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
(tak %d %d %d)`, x, y, z), fmt.Sprint(tak(x, y, z))
	}
}

func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

func tak(x, y, z int) int {
	if !(y < x) {
		return z
	}
	return tak(tak(x-1, y, z), tak(y-1, z, x), tak(z-1, x, y))
}

// requestGen draws the serve workload's request stream.
type requestGen struct {
	seed     uint64
	r        *rand.Rand
	zipf     *rand.Zipf
	nextWarm int
	nextCold int
}

// newRequestGen starts a request stream; phase separates the streams of
// a run's phases, so each phase's cold keys are new.
func newRequestGen(seed uint64, phase int) *requestGen {
	r := rand.New(rand.NewPCG(seed, uint64(phase)<<32|0x10ad))
	return &requestGen{
		seed:     seed,
		r:        r,
		zipf:     rand.NewZipf(r, zipfS, 1, hotKeys-1),
		nextWarm: r.IntN(warmKeys),
		nextCold: hotKeys + warmKeys + phase<<24,
	}
}

func (g *requestGen) next() request {
	var k int
	switch u := g.r.Float64(); {
	case u < hotShare:
		k = int(g.zipf.Uint64())
	case u < hotShare+warmShare:
		k = hotKeys + g.nextWarm
		g.nextWarm = (g.nextWarm + 1) % warmKeys
	default:
		k = g.nextCold
		g.nextCold++
	}
	src, expect := serveSource(g.seed, k)
	return request{source: src, expect: expect}
}
