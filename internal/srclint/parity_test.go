package srclint

import (
	"strings"
	"testing"

	"repro/internal/findings"
)

// paritySrc is a miniature VM with every surface the parity
// analyzer cross-checks, in a consistent (clean) state. The violation
// tests below each break exactly one invariant by string surgery.
const paritySrc = `package vmtest

type Op byte
type xcode byte

const (
	OpHalt Op = iota
	OpAdd
	OpJump
)

const (
	xUnknown xcode = iota
	xHalt
	xAdd
	xJump
	xPCar
	xPCons
)

type Machine struct {
	Cycles int
}

type dcode struct{ op xcode }

func decodeOne(op Op) xcode {
	switch op {
	case OpHalt:
		return xHalt
	case OpAdd:
		return xAdd
	case OpJump:
		return xJump
	}
	return xUnknown
}

func runThreaded(m *Machine, d *dcode) {
	switch d.op {
	case xHalt:
		m.Cycles++
	case xAdd:
		m.Cycles++
	case xJump:
		m.Cycles++
	case xPCar:
		switch d.op {
		case xPCar:
			m.Cycles++
		}
	case xPCons:
		switch d.op {
		case xPCons:
			m.Cycles++
		}
	}
}

func specPrim(name string) xcode {
	switch name {
	case "car":
		return xPCar
	case "cons":
		return xPCons
	}
	return xcode(0)
}
`

func parityCfg() ParityConfig {
	return ParityConfig{
		OpType:       "Op",
		XType:        "xcode",
		DecodeFunc:   "decodeOne",
		ThreadedFunc: "runThreaded",
		DefaultX:     []string{"xUnknown"},
		SpecFunc:     "specPrim",
		Spec2First:   "xPCons",
	}
}

func checkParitySrc(t *testing.T, src string) []findings.Finding {
	t.Helper()
	pkg, err := CheckSource("vmtest", src)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := CheckParity("", pkg, parityCfg())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// mutate replaces old with new exactly once, failing the test if the
// pattern is absent or ambiguous (which would silently test nothing).
func mutate(t *testing.T, src, old, new string) string {
	t.Helper()
	if n := strings.Count(src, old); n != 1 {
		t.Fatalf("mutation pattern occurs %d times, want 1: %q", n, old)
	}
	return strings.Replace(src, old, new, 1)
}

func TestParityClean(t *testing.T) {
	if fs := checkParitySrc(t, paritySrc); len(fs) != 0 {
		t.Fatalf("clean corpus produced findings: %+v", fs)
	}
}

func TestParityViolations(t *testing.T) {
	cases := []struct {
		name     string
		old, new string
		kind     string
		msgHas   string
	}{
		{
			name: "missing-decode-case",
			old:  "\tcase OpJump:\n\t\treturn xJump\n",
			new:  "",
			kind: "missing-decode-case", msgHas: "OpJump",
		},
		{
			name: "missing-threaded-arm",
			old:  "\tcase xJump:\n\t\tm.Cycles++\n",
			new:  "",
			kind: "missing-threaded-arm", msgHas: "xJump",
		},
		{
			name: "spec-table-gap",
			old:  "\t\tcase xPCons:\n\t\t\tm.Cycles++\n",
			new:  "",
			kind: "spec-table-mismatch", msgHas: "xPCons",
		},
		{
			name: "spec-table-gap-1arg",
			old:  "\t\tcase xPCar:\n\t\t\tm.Cycles++\n",
			new:  "",
			kind: "spec-table-mismatch", msgHas: "xPCar",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := checkParitySrc(t, mutate(t, paritySrc, tc.old, tc.new))
			if len(fs) == 0 {
				t.Fatalf("violation not detected")
			}
			found := false
			for _, f := range fs {
				if f.Kind == tc.kind && strings.Contains(f.Msg, tc.msgHas) {
					found = true
				} else if f.Kind != tc.kind {
					t.Errorf("unexpected extra finding %s: %s", f.Kind, f.Msg)
				}
			}
			if !found {
				t.Fatalf("no %s finding mentioning %q in %+v", tc.kind, tc.msgHas, fs)
			}
		})
	}
}

// TestParitySpecArityMix: a specialized arm listing a one-argument and
// a two-argument code would read the wrong operand count for one of
// them.
func TestParitySpecArityMix(t *testing.T) {
	src := mutate(t, paritySrc, "\tcase xPCons:\n\t\tswitch d.op {\n\t\tcase xPCons:\n\t\t\tm.Cycles++\n\t\t}\n", "")
	src = mutate(t, src, "\tcase xPCar:\n\t\tswitch d.op {\n", "\tcase xPCar, xPCons:\n\t\tswitch d.op {\n\t\tcase xPCons:\n\t\t\tm.Cycles++\n")
	fs := checkParitySrc(t, src)
	if len(fs) != 1 || fs[0].Kind != "spec-table-mismatch" || !strings.Contains(fs[0].Msg, "differ in arity") {
		t.Fatalf("want one arity finding, got %+v", fs)
	}
}
