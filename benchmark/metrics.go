package main

// metricDef names one metric the way BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a client of the served system sees, measured
// with tracing off. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression: three times the
// widest quartile spread seen over ten seeds on any workload. failed_frac,
// the sixth, is reported as `failed`/`attempted`: its bound is zero.
var endToEnd = []metricDef{
	{Name: "stmt_per_s", Unit: "1/s", Better: "higher", Bound: 0.22},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.17},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "alloc_kb_per_stmt", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// allClasses lists every statement class of every workload once.
func allClasses() []string {
	var out []string
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, c := range w.classes() {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// perLayer are the informational metrics of the traced run, plus the two
// kinds of timed-phase numbers that did not repeat well enough to gate on
// (p99) or that belong to one class only. A metric whose layer a workload
// never enters reads 0 there.
func perLayer() []metricDef {
	defs := []metricDef{{Name: "p99_ms", Unit: "ms", Better: "lower"}}
	for _, c := range allClasses() {
		defs = append(defs, metricDef{Name: "class." + c + ".p50_ms", Unit: "ms", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "wire.rtt_us", Unit: "us", Better: "lower"},
		metricDef{Name: "wire.self_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "wire.bytes_out_per_stmt", Unit: "B", Better: "lower"},
		metricDef{Name: "sql.parse_us", Unit: "us", Better: "lower"},
		metricDef{Name: "sql.expand_us", Unit: "us", Better: "lower"},
		metricDef{Name: "withplus.prepare_us", Unit: "us", Better: "lower"},
		metricDef{Name: "withplus.run_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "withplus.iterations", Unit: "count", Better: "lower"},
		metricDef{Name: "sql.exec_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "algos.run_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "engine.examined_per_returned", Unit: "count", Better: "lower"},
	)
	for _, k := range counterNames() {
		better := "lower"
		if k == "index_cache_hits" || k == "csr_cache_hits" {
			better = "higher"
		}
		defs = append(defs, metricDef{Name: "engine." + k + "_per_stmt", Unit: "count", Better: better})
	}
	for _, op := range raOps {
		defs = append(defs, metricDef{Name: "ra." + op + "_ms", Unit: "ms", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "catalog.cache_hit_ratio", Unit: "fraction", Better: "higher"},
		metricDef{Name: "storage.wal_bytes_per_row", Unit: "B", Better: "lower"},
		metricDef{Name: "session.self_us", Unit: "us", Better: "lower"},
		metricDef{Name: "client.retries", Unit: "count", Better: "lower"},
		metricDef{Name: "client.busy", Unit: "count", Better: "lower"},
		metricDef{Name: "client.reconnects", Unit: "count", Better: "lower"},
		metricDef{Name: "client.truncated", Unit: "count", Better: "lower"},
		metricDef{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
		metricDef{Name: "trace.cover_frac", Unit: "fraction", Better: "higher"},
	)
	return defs
}
