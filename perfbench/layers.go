package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatches keeps them equal.
type metricDef struct{ name, unit, better string }

// endToEnd lists the metrics an untraced run reports, on every workload.
// One operation is a compile unit, a VM run or a request.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists every metric a traced run reports, on every workload;
// a layer the workload does not exercise reads 0. The first group are
// whole-workload figures of the run that exercises them.
var perLayer = []metricDef{
	{"compile_ms_p50", "ms", "lower"}, {"compile_ms_p99", "ms", "lower"},
	{"compile_units_per_s", "1/s", "higher"},
	{"check_ms_p50", "ms", "lower"}, {"check_ms_p99", "ms", "lower"},
	{"code_instrs", "count", "lower"}, {"compile_alloc_kb", "KiB", "lower"},
	{"run_ms_geomean", "ms", "lower"}, {"run_full_ms_geomean", "ms", "lower"},
	{"sim_cycles", "count", "lower"}, {"run_allocs", "count", "lower"},
	{"serve_ms_p50", "ms", "lower"}, {"serve_ms_p99", "ms", "lower"}, {"serve_max_rps", "1/s", "higher"},

	{"sexp.busy_ms", "ms", "lower"}, {"sexp.calls", "count", "lower"}, {"sexp.allocs", "count", "lower"},
	{"ast.busy_ms", "ms", "lower"}, {"ast.calls", "count", "lower"}, {"ast.allocs", "count", "lower"},
	{"passes.busy_ms", "ms", "lower"}, {"passes.calls", "count", "lower"}, {"passes.allocs", "count", "lower"},
	{"codegen.busy_ms", "ms", "lower"}, {"codegen.busy_ms.deep", "ms", "lower"}, {"codegen.allocs", "count", "lower"},
	{"codegen.instrs", "count", "lower"}, {"codegen.save_sites", "count", "lower"},
	{"codegen.restore_sites", "count", "lower"}, {"codegen.shuffle_temps", "count", "lower"},
	{"verify.busy_ms", "ms", "lower"}, {"verify.busy_ms.wide", "ms", "lower"},
	{"verify.allocs", "count", "lower"}, {"verify.alloc_kb", "KiB", "lower"},
	{"analysis.busy_ms", "ms", "lower"}, {"analysis.allocs", "count", "lower"},
	{"store.put_ms", "ms", "lower"}, {"store.get_ms", "ms", "lower"}, {"store.entry_kb", "KiB", "lower"},
	{"compile.prelude_byte_share", "ratio", "lower"}, {"compile.deep_share", "ratio", "lower"},
	{"compile.wide_share", "ratio", "lower"},

	{"vm.run_ms.minieval.essential", "ms", "lower"}, {"vm.run_ms.minieval.full", "ms", "lower"},
	{"vm.run_ms.typecheck.essential", "ms", "lower"}, {"vm.run_ms.typecheck.full", "ms", "lower"},
	{"vm.run_ms.tak.essential", "ms", "lower"}, {"vm.run_ms.tak.full", "ms", "lower"},
	{"vm.run_ms.cpstak.essential", "ms", "lower"}, {"vm.run_ms.cpstak.full", "ms", "lower"},
	{"vm.run_ms.deriv.essential", "ms", "lower"}, {"vm.run_ms.deriv.full", "ms", "lower"},
	{"vm.run_ms.div-iter.essential", "ms", "lower"}, {"vm.run_ms.div-iter.full", "ms", "lower"},
	{"vm.run_ms.browse.essential", "ms", "lower"}, {"vm.run_ms.browse.full", "ms", "lower"},
	{"vm.run_ms.triang.essential", "ms", "lower"}, {"vm.run_ms.triang.full", "ms", "lower"},
	{"vm.steps", "count", "lower"}, {"vm.ns_per_step", "ns", "lower"},
	{"vm.allocs_per_run", "count", "lower"}, {"vm.stack_refs", "count", "lower"},

	{"service.handler_ms_p50", "ms", "lower"}, {"http.overhead_ms_p50", "ms", "lower"},
	{"cache.lru_hit_ratio", "ratio", "higher"}, {"cache.dedup_joins", "count", "higher"},
	{"store.hit_ratio", "ratio", "higher"}, {"store.puts", "count", "lower"},
	{"service.compiles", "count", "lower"}, {"service.shed", "count", "lower"},
	{"serve.tier_share.lru", "ratio", "higher"}, {"serve.tier_share.store", "ratio", "lower"},
	{"serve.tier_share.compile", "ratio", "lower"},
	{"serve.closed_rps", "1/s", "higher"}, {"serve.gen_late_ms_p99", "ms", "lower"},

	{"trace.overhead_ratio", "ratio", "lower"},
}
