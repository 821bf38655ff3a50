package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/service"
	"repro/internal/store"
)

// TestWrongAnswerRaisesFailRatio seeds wrong expected values into each
// workload's oracle and checks that every one is counted as a failure.
func TestWrongAnswerRaisesFailRatio(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 0))
	var tl tally

	// compile: a generated unit whose expected value is off by a seeded
	// amount.
	g := newUnitGen(11)
	for i := 0; ; i++ {
		u := g.unit(i)
		if u.shape != shapeSnippet {
			continue
		}
		tl.check(checkValue(u))
		u.expect += fmt.Sprint(1 + r.IntN(9))
		tl.check(checkValue(u))
		break
	}

	// run: tak with a wrong Expect, then with a wrong reference cycle
	// count.
	p, err := bench.ByName("tak")
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(p.Source, bench.PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	wrong := *p
	wrong.Expect = fmt.Sprint(1000 + r.IntN(1000))
	vp := &vmProg{p: &wrong, code: c.Program}
	_, err = runOnce(vp, counterModes[0].mode)
	tl.check(err)
	vp = &vmProg{p: p, code: c.Program, cycles: 1 + r.Int64N(1000)}
	_, err = runOnce(vp, counterModes[0].mode)
	tl.check(err)

	// serve: a wrong value, a shed request and a timed-out one.
	body := []byte(`{"key":"k","cached":true,"value":"57","output":"","fuel":1,"counters":{}}`)
	tl.check(checkRunResponse(http.StatusOK, body, "57"))
	tl.check(checkRunResponse(http.StatusOK, body, "58"))
	tl.check(checkRunResponse(http.StatusTooManyRequests, body, "57"))
	tl.check(checkRunResponse(http.StatusGatewayTimeout, body, "57"))

	if tl.attempted != 8 || tl.failed != 6 {
		t.Fatalf("attempted %d failed %d, want 8 and 6", tl.attempted, tl.failed)
	}
	if res := tl.result(); res.failRatio() <= 0 {
		t.Fatalf("fail ratio %v after wrong answers", res.failRatio())
	}
}

// TestTracedPipelineMatchesCompile is the drift guard on a sample of
// units: the traced, phase-by-phase pipeline emits byte-identical code,
// and the code survives a store round trip.
func TestTracedPipelineMatchesCompile(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := newUnitGen(2)
	tr := newTracer(true)
	opts := bench.PaperOptions()
	for i := 0; i < 40; i++ {
		u := g.unit(i)
		code, _, err := tracedPipeline(tr, uint64(i), u.source, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := compiler.Compile(u.source, opts)
		if err != nil {
			t.Fatal(err)
		}
		if code.Disassemble() != ref.Program.Disassemble() {
			t.Fatalf("unit %d: traced pipeline differs from compiler.Compile", i)
		}
		if err := storeRoundTrip(tr, uint64(i), st, service.KeyFor(u.source, opts), ref); err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
	}
	layers := tr.selfTimes()
	for _, name := range []string{"sexp", "ast", "passes", "codegen", "store.put", "store.get"} {
		if layerOf(layers, name).calls != 40 {
			t.Errorf("%s: %d spans, want 40", name, layerOf(layers, name).calls)
		}
	}
	if root := layerOf(layers, "compile"); root.calls != 40 || root.selfNs < 0 {
		t.Errorf("compile root: %d spans, self %d ns", root.calls, root.selfNs)
	}
}
