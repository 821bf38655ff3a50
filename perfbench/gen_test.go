package main

import (
	"strings"
	"testing"
)

// TestUnitsAreDeterministic: one seed always yields byte-identical
// units, another seed different ones.
func TestUnitsAreDeterministic(t *testing.T) {
	a, b, c := newUnitGen(7), newUnitGen(7), newUnitGen(8)
	differ := 0
	for i := 0; i < 200; i++ {
		ua, ub, uc := a.unit(i), b.unit(i), c.unit(i)
		if ua != ub {
			t.Fatalf("unit %d differs between two generators with the same seed", i)
		}
		if ua.source != uc.source {
			differ++
		}
	}
	if differ < 190 {
		t.Errorf("seeds 7 and 8 share %d of 200 units", 200-differ)
	}
}

func TestRequestsAreDeterministic(t *testing.T) {
	a, b := newRequestGen(7, 1), newRequestGen(7, 1)
	for i := 0; i < 500; i++ {
		if ra, rb := a.next(), b.next(); ra != rb {
			t.Fatalf("request %d differs between two generators with the same seed", i)
		}
	}
}

// TestUnitMix: every block of 20 units has the fixed shape mix, units
// are distinct, and sizes stay within range.
func TestUnitMix(t *testing.T) {
	g := newUnitGen(HeldOutSeed)
	seen := map[string]bool{}
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		u := g.unit(i)
		if seen[u.source] {
			t.Fatalf("unit %d repeats an earlier unit", i)
		}
		seen[u.source] = true
		counts[u.shape]++
		if (u.shape == shapeDeep || u.shape == shapeWide) && (u.size < minSize || u.size > maxSize) {
			t.Errorf("unit %d: size %d outside [%d, %d]", i, u.size, minSize, maxSize)
		}
	}
	want := map[string]int{shapeSuite: 160, shapeSnippet: 120, shapeDeep: 60, shapeWide: 60}
	for shape, n := range want {
		if counts[shape] != n {
			t.Errorf("%s units: %d of 400, want %d", shape, counts[shape], n)
		}
	}
}

// TestGeneratedValues: the reference interpreter computes every
// generated unit's and serve source's expected value.
func TestGeneratedValues(t *testing.T) {
	g := newUnitGen(3)
	for i := 0; i < 120; i++ {
		if err := checkValue(g.unit(i)); err != nil {
			t.Error(err)
		}
	}
	for k := 0; k < 60; k++ {
		src, expect := serveSource(3, k)
		if err := checkValue(unit{index: k, shape: shapeSnippet, name: "serve", source: src, expect: expect}); err != nil {
			t.Error(err)
		}
	}
}

func TestSnippetsArePreludeDominated(t *testing.T) {
	g := newUnitGen(5)
	var mix unitMix
	for i := 0; i < 200; i++ {
		if u := g.unit(i); u.shape == shapeSnippet {
			mix.add(u)
		}
	}
	res := &result{Metrics: map[string]metric{}}
	mix.report(res)
	if share := res.Metrics["compile.prelude_byte_share"].Value; share < 0.9 {
		t.Errorf("snippet prelude share %.3f, want > 0.9", share)
	}
}

func TestDeepUnitNests(t *testing.T) {
	g := newUnitGen(1)
	for i := 0; i < 100; i++ {
		u := g.unit(i)
		if u.shape == shapeDeep && strings.Count(u.source, "(") < u.size {
			t.Fatalf("deep unit %d of size %d has only %d open parens", i, u.size, strings.Count(u.source, "("))
		}
	}
}
