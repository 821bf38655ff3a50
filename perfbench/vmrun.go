package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/prim"
	"repro/internal/verify"
	"repro/internal/vm"
)

// quickSuite is lsrbench's quick subset: the programs the run workload
// executes.
var quickSuite = []string{"minieval", "typecheck", "tak", "cpstak", "deriv", "div-iter", "browse", "triang"}

// counterModes are the two ways the run workload drives the VM.
var counterModes = []struct {
	name string
	mode vm.CounterMode
}{{"essential", vm.CountEssential}, {"full", vm.CountFull}}

// roundSteps is roughly how many VM steps one program runs, per counter
// mode, in each round (about 100 ms at HEAD); short programs repeat to
// fill it. Repeats follow from step counts, not times, so every run
// measures the same mix of programs.
const roundSteps = 8_000_000

// vmProg is one compiled quick-suite program with its set-up reference.
type vmProg struct {
	p    *bench.Program
	code *vm.Program
	// cycles, steps and stackRefs are the reference run's counters.
	cycles, steps, stackRefs int64
	reps                     int
}

// vmSetup compiles and verifies the quick suite.
func vmSetup() ([]*vmProg, error) {
	var out []*vmProg
	for _, name := range quickSuite {
		p, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		c, err := compiler.Compile(p.Source, bench.PaperOptions())
		if err != nil {
			return nil, fmt.Errorf("set-up: %s: %w", name, err)
		}
		if err := verify.Check(c.Program); err != nil {
			return nil, fmt.Errorf("set-up: %s: %w", name, err)
		}
		out = append(out, &vmProg{p: p, code: c.Program})
	}
	return out, nil
}

// runOnce executes one program and checks its value; cycles, when
// nonzero, is the reference the run's cycle count must match.
func runOnce(vp *vmProg, mode vm.CounterMode) (runSample, error) {
	m := vm.New(vp.code, io.Discard)
	m.Engine = vm.EngineThreaded
	m.Counting = mode
	m.MaxSteps = bench.BenchFuel
	a0, b0 := heapAllocs()
	t0 := time.Now()
	v, err := m.Run()
	elapsed := time.Since(t0)
	a1, b1 := heapAllocs()
	return runSample{elapsed, a1 - a0, b1 - b0, &m.Counters}, checkRun(vp, v, err, m)
}

// runSample is one run's time, heap allocations and counters.
type runSample struct {
	elapsed       time.Duration
	allocs, bytes uint64
	counters      *vm.Counters
}

// checkRun compares a run's value with the suite's Expect and, once the
// reference is set, its cycle count with the reference's.
func checkRun(vp *vmProg, v prim.Value, err error, m *vm.Machine) error {
	if err != nil {
		return fmt.Errorf("%s: %w", vp.p.Name, err)
	}
	if got := prim.WriteString(v); got != vp.p.Expect {
		return fmt.Errorf("%s: value %s, want %s", vp.p.Name, got, vp.p.Expect)
	}
	if vp.cycles != 0 && m.Counters.Cycles != vp.cycles {
		return fmt.Errorf("%s: %d cycles, reference %d", vp.p.Name, m.Counters.Cycles, vp.cycles)
	}
	return nil
}

// vmReference runs every program once per counter mode: the runs set
// the reference cycle counts (which both modes must agree on) and how
// many times a round repeats each program.
func vmReference(progs []*vmProg) error {
	for _, vp := range progs {
		for _, cm := range counterModes {
			rs, err := runOnce(vp, cm.mode)
			if err != nil {
				return fmt.Errorf("reference run: %w", err)
			}
			if vp.cycles == 0 {
				vp.cycles, vp.steps, vp.stackRefs = rs.counters.Cycles, rs.counters.Instructions, rs.counters.StackRefs()
			}
		}
		vp.reps = max(1, int((roundSteps+vp.steps/2)/max(vp.steps, 1)))
	}
	return nil
}

// vmSamples holds per-run measurements by program and counter mode.
type vmSamples map[string][]float64

func sampleKey(prog, mode string) string { return prog + "." + mode }

func runVM(cfg config) (*result, error) {
	progs, st, err := firstSetup(vmSetup, func([]*vmProg) {})
	if err != nil {
		return nil, err
	}
	if err := vmReference(progs); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(false)
	}
	var t tally
	times, traced, allocs := vmSamples{}, vmSamples{}, vmSamples{}
	var opMs []float64
	var allocBytes uint64
	r := rand.New(rand.NewPCG(cfg.seed, 0x7a11))
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var id uint64
	// At least three rounds, so every program has a median of three.
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for _, pi := range r.Perm(len(progs)) {
			vp := progs[pi]
			for mi := range counterModes {
				cm := counterModes[(mi+round)%len(counterModes)]
				key := sampleKey(vp.p.Name, cm.name)
				if tr == nil {
					if err := st.sample(); err != nil {
						return nil, err
					}
				}
				for k := 0; k < vp.reps; k++ {
					id++
					// A traced run alternates traced and untraced runs, so
					// the two can be compared for the tracing overhead.
					if tr != nil && id%2 == 0 {
						i := tr.begin(id, "vm.run."+key, -1)
						_, err := runOnce(vp, cm.mode)
						tr.end(i)
						t.check(err)
						traced[key] = append(traced[key], ms(tr.duration(i)))
						continue
					}
					rs, err := runOnce(vp, cm.mode)
					t.check(err)
					times[key] = append(times[key], ms(rs.elapsed))
					allocs[key] = append(allocs[key], float64(rs.allocs))
					opMs = append(opMs, ms(rs.elapsed))
					allocBytes += rs.bytes
				}
			}
		}
	}
	res := t.result()
	var ess, full, allocRuns []float64
	var cycles, steps, stackRefs int64
	for _, vp := range progs {
		ess = append(ess, median(times[sampleKey(vp.p.Name, "essential")]))
		full = append(full, median(times[sampleKey(vp.p.Name, "full")]))
		allocRuns = append(allocRuns, median(allocs[sampleKey(vp.p.Name, "full")]))
		cycles += vp.cycles
		steps += vp.steps
		stackRefs += vp.stackRefs
	}
	if tr == nil {
		// One operation is one run of one program.
		setOpMetrics(res, opMs, float64(allocBytes)/float64(len(opMs)), st.seconds())
		return res, nil
	}
	res.set("run_ms_geomean", "ms", geomean(ess))
	res.set("run_full_ms_geomean", "ms", geomean(full))
	res.set("sim_cycles", "count", float64(cycles))
	res.set("run_allocs", "count", sum(allocRuns))
	var overhead []float64
	for _, vp := range progs {
		for _, cm := range counterModes {
			key := sampleKey(vp.p.Name, cm.name)
			res.set("vm.run_ms."+key, "ms", median(traced[key]))
			overhead = append(overhead, ratio(median(traced[key]), median(times[key])))
		}
	}
	res.set("vm.steps", "count", float64(steps))
	res.set("vm.ns_per_step", "ns", sum(ess)*1e6/float64(steps))
	res.set("vm.allocs_per_run", "count", sum(allocRuns)/float64(len(progs)))
	res.set("vm.stack_refs", "count", float64(stackRefs))
	res.set("trace.overhead_ratio", "ratio", geomean(overhead)-1)
	return finishTrace(res, tr, "run", cfg.seed)
}
