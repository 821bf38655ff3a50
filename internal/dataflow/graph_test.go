package dataflow_test

import (
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/vm"
)

func mustCompile(t *testing.T, src string) *vm.Program {
	t.Helper()
	opts := compiler.DefaultOptions()
	opts.NoPrelude = true
	c, err := compiler.Compile(src, opts)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return c.Program
}

// branchSrc compiles to a body with a conditional branch, giving the
// CFG a diamond.
const branchSrc = `(define (f n) (if (< n 0) 0 n)) (f 3)`

func TestGraphFromProgram(t *testing.T) {
	p := mustCompile(t, branchSrc)
	exts := dataflow.Extents(p)
	if len(exts) == 0 {
		t.Fatalf("no extents in:\n%s", p.Disassemble())
	}
	for _, ext := range exts {
		g, err := dataflow.NewGraph(p, ext.Start, ext.End)
		if err != nil {
			t.Fatalf("NewGraph(%s): %v", ext.Info.Name, err)
		}
		if g.Start() != ext.Start || g.End() != ext.End {
			t.Fatalf("extent [%d,%d) became [%d,%d)", ext.Start, ext.End, g.Start(), g.End())
		}
		blocks := g.Blocks()
		if len(blocks) == 0 || blocks[0].Start != ext.Start {
			t.Fatalf("%s: first block does not start at extent start: %+v", ext.Info.Name, blocks)
		}
		// Blocks partition the extent, and BlockOf agrees.
		at := ext.Start
		for bi, b := range blocks {
			if b.Start != at {
				t.Fatalf("%s: block %d starts at %d, want %d", ext.Info.Name, bi, b.Start, at)
			}
			if b.End <= b.Start {
				t.Fatalf("%s: empty block %d: %+v", ext.Info.Name, bi, b)
			}
			for pc := b.Start; pc < b.End; pc++ {
				if g.BlockOf(pc) != bi {
					t.Fatalf("%s: BlockOf(%d) = %d, want %d", ext.Info.Name, pc, g.BlockOf(pc), bi)
				}
			}
			at = b.End
		}
		if at != ext.End {
			t.Fatalf("%s: blocks end at %d, extent at %d", ext.Info.Name, at, ext.End)
		}
		// Per-pc successors stay inside the extent; only a block's last
		// instruction may leave the block. Block edges match pc edges.
		var buf [2]int
		for _, b := range blocks {
			for pc := b.Start; pc < b.End; pc++ {
				for _, succ := range g.Succs(pc, buf[:]) {
					if succ < ext.Start || succ >= ext.End {
						t.Fatalf("%s: successor %d of pc %d escapes extent", ext.Info.Name, succ, pc)
					}
					if pc < b.End-1 && succ != pc+1 {
						t.Fatalf("%s: interior pc %d of block has successor %d", ext.Info.Name, pc, succ)
					}
				}
			}
			want := map[int]bool{}
			for _, succ := range g.Succs(b.End-1, buf[:]) {
				want[g.BlockOf(succ)] = true
			}
			if len(want) != len(b.Succs) {
				t.Fatalf("%s: block succs %v, want %v", ext.Info.Name, b.Succs, want)
			}
			for _, sb := range b.Succs {
				if !want[sb] {
					t.Fatalf("%s: stray block successor %d", ext.Info.Name, sb)
				}
			}
		}
		// Preds are the transpose of Succs.
		preds := make(map[int][]int)
		for bi, b := range blocks {
			for _, sb := range b.Succs {
				preds[sb] = append(preds[sb], bi)
			}
		}
		for bi, b := range blocks {
			if len(b.Preds) != len(preds[bi]) {
				t.Fatalf("block %d preds %v, want %v", bi, b.Preds, preds[bi])
			}
		}
	}
}

func TestNewGraphErrors(t *testing.T) {
	p := mustCompile(t, branchSrc)
	exts := dataflow.Extents(p)
	ext := exts[0]

	jumpPC := -1
	for pc := ext.Start; pc < ext.End; pc++ {
		if e, ok := p.Code[pc].InstrEffects(p.Config); ok && e.Jump >= 0 {
			jumpPC = pc
			break
		}
	}
	if jumpPC < 0 {
		t.Fatalf("no jump in %s:\n%s", ext.Info.Name, p.Disassemble())
	}

	// Program contains a sync.Once and must not be copied; corrupt the
	// code in place and restore after each subtest.
	patch := func(t *testing.T, pc int, in vm.Instr) {
		orig := p.Code[pc]
		p.Code[pc] = in
		t.Cleanup(func() { p.Code[pc] = orig })
	}

	t.Run("jump outside extent", func(t *testing.T) {
		in := p.Code[jumpPC]
		in.A = len(p.Code) + 5
		if in.Op == vm.OpBranchFalse {
			in.B = len(p.Code) + 5
		}
		patch(t, jumpPC, in)
		if _, err := dataflow.NewGraph(p, ext.Start, ext.End); err == nil {
			t.Errorf("out-of-extent jump accepted")
		}
	})
	t.Run("unknown opcode", func(t *testing.T) {
		patch(t, ext.Start+1, vm.Instr{Op: 255})
		if _, err := dataflow.NewGraph(p, ext.Start, ext.End); err == nil {
			t.Errorf("unknown opcode accepted")
		}
	})
	t.Run("falls off end", func(t *testing.T) {
		// Truncate the extent one short of a fall-through instruction.
		if _, err := dataflow.NewGraph(p, ext.Start, ext.Start+1); err == nil {
			t.Errorf("truncated extent accepted")
		}
	})
	t.Run("empty extent", func(t *testing.T) {
		if _, err := dataflow.NewGraph(p, ext.Start, ext.Start); err == nil {
			t.Errorf("empty extent accepted")
		}
	})
}

func TestExtentsOrderedAndContiguous(t *testing.T) {
	p := mustCompile(t, `(define (g y) (* y 2)) (define (f x) (+ (g x) x)) (f 3)`)
	exts := dataflow.Extents(p)
	if len(exts) < 2 {
		t.Fatalf("want >=2 extents, got %d", len(exts))
	}
	for i, ext := range exts {
		if ext.Start >= ext.End {
			t.Fatalf("extent %d empty: %+v", i, ext)
		}
		if i > 0 && exts[i-1].End != ext.Start {
			t.Fatalf("extent %d not contiguous: %+v then %+v", i, exts[i-1], ext)
		}
		if p.Procs[ext.Index].Entry != ext.Start {
			t.Fatalf("extent %d start %d disagrees with proc entry %d", i, ext.Start, p.Procs[ext.Index].Entry)
		}
	}
	if exts[len(exts)-1].End != len(p.Code) {
		t.Fatalf("last extent ends at %d, code at %d", exts[len(exts)-1].End, len(p.Code))
	}
}

// TestExtentsSharedEntryOrder: procedures that share an entry keep
// their Program.Procs order, so the body always goes to the same one
// (the last) and reports naming it are stable. Twenty procedures in
// scrambled order push the sort past its small-input path.
func TestExtentsSharedEntryOrder(t *testing.T) {
	p := &vm.Program{Code: make([]vm.Instr, 64)}
	for i := 0; i < 20; i++ {
		entry := 60 - 3*(i/2) // pairs share an entry, in descending order
		p.Procs = append(p.Procs, vm.ProcInfo{Name: fmt.Sprint("p", i), Entry: entry})
	}
	p.Procs = append(p.Procs, vm.ProcInfo{Name: "outside", Entry: 64})
	p.Shuffles = []vm.ShuffleRecord{{StartPC: 33, CallPC: 34}, {StartPC: 60, CallPC: 70}}
	exts := dataflow.Extents(p)
	if len(exts) != 20 {
		t.Fatalf("got %d extents, want 20 (the out-of-range entry skipped)", len(exts))
	}
	for i := 0; i < len(exts); i += 2 {
		a, b := exts[i], exts[i+1]
		if a.Start != b.Start || a.Index >= b.Index {
			t.Fatalf("extents %d,%d = %+v, %+v: want a shared entry in Procs order", i, i+1, a, b)
		}
		if a.End != a.Start || b.End <= b.Start {
			t.Fatalf("extents %d,%d = %+v, %+v: want the later one to own the body", i, i+1, a, b)
		}
	}
	buckets := dataflow.ShufflesByExtent(p, exts)
	for i, bucket := range buckets {
		want := 0
		if exts[i].Start == 33 && exts[i].End > 33 {
			want = 1
		}
		if len(bucket) != want {
			t.Errorf("extent %+v holds %d shuffles, want %d", exts[i], len(bucket), want)
		}
	}
}
