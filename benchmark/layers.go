package main

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// perLayer lists the metrics every traced run reports, each with the
// workload whose measured path calls that layer. An empty owner marks a
// metric every workload measures on itself. BENCHMARK.json declares the
// same names.
var perLayer = []struct{ name, owner string }{
	{"machine.slice_ns", "paper-suite"},
	{"workload.demand_ns", "paper-suite"},
	{"osmodel.step_ns", "paper-suite"},
	{"cpu.step_ns", "paper-suite"},
	{"mem.step_ns", "paper-suite"},
	{"chipset.step_ns", "paper-suite"},
	{"power.truth_ns", "paper-suite"},
	{"daq.acquire_ns", "paper-suite"},
	{"perfctr.sample_ns", "paper-suite"},
	{"machine.residual_ns", "paper-suite"},
	{"sim.norm_ns", "paper-suite"},
	{"machine.allocs_per_sim_s", "paper-suite"},
	{"machine.bytes_per_sim_s", "paper-suite"},
	{"align.merge_ms", "paper-suite"},
	{"core.train_ms", "paper-suite"},
	{"cluster.run_ms", "fleet-night"},
	{"cluster.snapshot_us", "fleet-night"},
	{"sched.plan_us", "fleet-night"},
	{"cluster.speedup", "fleet-night"},
	{"machine.idle_slice_ns", "fleet-night"},
	{"machine.busy_slice_ns", "fleet-night"},
	{"align.robust_merge_us", "fleet-night"},
	{"core.estimate_ns", "fleet-night"},
	{"perfctr.encode_us", "serve-mix"},
	{"perfctr.decode_us", "serve-mix"},
	{"core.extract_estimate_ns", "serve-mix"},
	{"serve.admission_ms_mean", "serve-mix"},
	{"serve.queue_wait_ms_p99", "serve-mix"},
	{"serve.service_ms_p50", "serve-mix"},
	{"serve.e2e_ms_p99", "serve-mix"},
	{"http.overhead_ms_p50", "serve-mix"},
	{"serve.shed_frac", "serve-mix"},
	{"gen.late_ms_p99", "serve-mix"},
	{"serve.query_ms_p50", "serve-mix"},
	{"serve.query_ms_tail", "serve-mix"},
	{"latency_ms_tail", ""},
	{"gc.cpu_frac", ""},
	{"trace_overhead_frac", ""},
}

// probeLayers fills in the per-layer metrics of layers the traced
// workload does not call itself: for each other owner it runs that
// owner's workload at smoke-test size, traced, and copies the layer
// figures. Every traced run thus reports every layer, and a figure that
// came from a probe is named in a note.
func probeLayers(ctx context.Context, cfg runConfig, rep *report) error {
	missing := map[string][]string{}
	var owners []string
	for _, l := range perLayer {
		if _, ok := rep.metrics[l.name]; ok || l.owner == "" {
			continue
		}
		if missing[l.owner] == nil {
			owners = append(owners, l.owner)
		}
		missing[l.owner] = append(missing[l.owner], l.name)
	}
	for _, owner := range owners {
		probe := newReport()
		pcfg := runConfig{seed: cfg.seed, seconds: time.Second, trace: true, tiny: true}
		if err := workloads[owner](ctx, pcfg, probe); err != nil {
			return fmt.Errorf("%s probe: %w", owner, err)
		}
		rep.attempted += probe.attempted
		rep.failed += probe.failed
		for _, p := range probe.problems {
			rep.problems = append(rep.problems, owner+" probe: "+p)
		}
		for _, name := range missing[owner] {
			m, ok := probe.metrics[name]
			if !ok {
				return fmt.Errorf("%s probe did not report %s", owner, name)
			}
			rep.set(name, m.Unit, m.Value)
		}
		rep.note("per-layer %s come from a smoke-size %s probe", strings.Join(missing[owner], ", "), owner)
	}
	return nil
}
