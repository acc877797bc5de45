package main

import "sort"

// metricDef declares one metric: its name, unit and which direction is
// better. BENCHMARK.json at the repository root lists exactly these
// (bench_test.go holds the two in step); Bound is the share of the
// reference median by which an end-to-end metric may worsen before it
// counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the numbers a user of the checker feels. Every workload
// reports every one of them from its untraced checks.
var endToEnd = []metricDef{
	{"verdict_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer numbers of the traced check, named after
// the package they measure. A workload that does not exercise a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"model.handler_calls", "count", "lower", 0},
	{"model.handler_busy_s", "s", "lower", 0},
	{"model.actions_calls", "count", "lower", 0},
	{"model.msgs_emitted", "count", "lower", 0},
	{"model.rejected_share", "ratio", "lower", 0},

	{"codec.hash_ns_per_state", "ns", "lower", 0},
	{"codec.hash_ns_per_msg", "ns", "lower", 0},
	{"codec.bytes_per_state", "B", "lower", 0},
	{"codec.hash_busy_est_s", "s", "lower", 0},
	{"codec.canonical_ns_per_tuple", "ns", "lower", 0},
	{"codec.frame_mb_per_s", "MB/s", "higher", 0},

	{"netstate.add_busy_s", "s", "lower", 0},
	{"netstate.entries", "count", "lower", 0},
	{"netstate.dup_dropped_share", "ratio", "lower", 0},
	{"netstate.epoch_ns", "ns", "lower", 0},

	{"spec.invariant_checks", "count", "lower", 0},
	{"spec.invariant_busy_s", "s", "lower", 0},
	{"spec.interest_calls", "count", "lower", 0},
	{"spec.conflict_calls", "count", "lower", 0},
	{"spec.conflict_busy_s", "s", "lower", 0},
	{"spec.conflict_true_share", "ratio", "higher", 0},

	{"core.explore_s", "s", "lower", 0},
	{"core.sysstate_s", "s", "lower", 0},
	{"core.soundness_s", "s", "lower", 0},
	{"core.explore_self_s", "s", "lower", 0},
	{"core.sysstate_self_s", "s", "lower", 0},
	{"core.transitions", "count", "lower", 0},
	{"core.node_states", "count", "lower", 0},
	{"core.system_states", "count", "lower", 0},
	{"core.prelim_violations", "count", "lower", 0},
	{"core.soundness_calls", "count", "lower", 0},
	{"core.sequences_checked", "count", "lower", 0},
	{"core.confirmed_share", "ratio", "higher", 0},
	{"core.cover_index_hits", "count", "higher", 0},
	{"core.cover_index_misses", "count", "lower", 0},
	{"core.symmetry_skips", "count", "higher", 0},
	{"core.orbit_checks", "count", "lower", 0},
	{"core.por_paths_deduped", "count", "higher", 0},
	{"core.por_detached", "count", "higher", 0},
	{"core.rounds", "count", "lower", 0},
	{"core.round_max_s", "s", "lower", 0},
	{"core.transitions_per_s", "1/s", "higher", 0},
	{"core.sysstates_per_s", "1/s", "higher", 0},
	{"core.allocs_per_check", "count", "lower", 0},
	{"core.alloc_mb_per_check", "MB", "lower", 0},
	{"core.gc_pause_s", "s", "lower", 0},

	{"trace.replay_s", "s", "lower", 0},
	{"trace.witness_events", "count", "lower", 0},

	{"shard.spawn_s", "s", "lower", 0},
	{"shard.tx_bytes", "B", "lower", 0},
	{"shard.rx_bytes", "B", "lower", 0},
	{"shard.reads", "count", "lower", 0},
	{"shard.writes", "count", "lower", 0},
	{"shard.read_wait_s", "s", "lower", 0},
	{"shard.coordinator_wait_s", "s", "lower", 0},
	{"shard.worker_cpu_s", "s", "lower", 0},
	{"shard.cpu_over_seq", "ratio", "lower", 0},
	{"shard.degraded", "count", "lower", 0},

	{"store.append_calls", "count", "lower", 0},
	{"store.append_busy_s", "s", "lower", 0},
	{"store.records", "count", "lower", 0},
	{"store.bytes", "B", "lower", 0},
	{"store.open_replay_s", "s", "lower", 0},
	{"store.resume_hint_calls", "count", "lower", 0},
	{"store.resume_hit_share", "ratio", "higher", 0},
	{"store.resume_check_s", "s", "lower", 0},

	{"service.ready_s", "s", "lower", 0},
	{"service.submit_rtt_s", "s", "lower", 0},
	{"service.status_rtt_s", "s", "lower", 0},
	{"service.recover_s", "s", "lower", 0},
	{"service.checkpoint_rounds", "count", "lower", 0},
	{"service.tax_s", "s", "lower", 0},
	{"service.resume_to_verdict_s", "s", "lower", 0},
	{"service.jobs_per_s", "1/s", "higher", 0},
	{"service.cli_cold_s", "s", "lower", 0},

	{"obs.events", "count", "lower", 0},
	{"obs.recorder_overhead_share", "ratio", "lower", 0},
	{"probe.overhead_share", "ratio", "lower", 0},
}

// mean returns the arithmetic mean; 0 for no samples.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
