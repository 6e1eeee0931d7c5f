package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// measuredBy reports whether the workload's traced run measures the
// layer metric.
func (m metricInfo) measuredBy(workload string) bool {
	return m.workload == "" || strings.Contains(","+m.workload+",", ","+workload+",")
}

// workloadInfo is one workload's catalogue entry.
type workloadInfo struct {
	name string
	why  string
	run  func(*env) error
}

var workloads = []workloadInfo{
	{"events_steady", "two TCP nodes, targeted 0.2 KB events: per-event cost of route, stamp, codec, TCP, admission, dedup, ack dominates; control plane idle", runEventsSteady},
	{"redeploy_live", "three TCP nodes, four movers bounced between agents under 10k ev/s: waves, WAL fsyncs, state transfer and held/bounced events do the work; search does nothing", runRedeployLive},
	{"plan_scale", "Analyze + ComputePlan on generated 10x100, 20x400 and 40x800 systems, no sockets: the only workload where model, objective and algo dominate", runPlanScale},
	{"failover", "netsim world with a warm standby: leader killed by crash and by partition; leases, replication, resume and retry chains toward a dead peer do the work", runFailover},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// metricInfo is one metric's catalogue entry. An end-to-end metric is
// defined on every workload (the definition column of the README says
// what it is there) and has a regression bound; a layer metric is taken
// in the traced run and is 0 on a workload that does not cross its layer.
type metricInfo struct {
	name     string
	unit     string
	better   string
	bound    float64 // end-to-end only
	workload string  // layer metrics: the workloads that measure it, comma-separated ("" = every workload)
	what     string
}

// bound is the share of the parent's median by which an end-to-end metric
// may get worse before a change counts as a regression. The metrics'
// own run-to-run spread is 1–7 %; the bound is set by the host, which
// moves between speed regimes 10–15 % apart for minutes at a time
// (README, "Steadiness"), and 0.25 is the most the contract allows.
const bound = 0.25

var endToEnd = []metricInfo{
	{"journey_ms_p50", "ms", "lower", bound, "", "median time of the workload's journey: event due→Handle at 20k ev/s | wave ComputePlan→Enact committed, paced under traffic (mean of the two phases' medians) | Analyze(1.0)+ComputePlan at 20x400 | kill→first commit, partition"},
	{"ops_per_s", "1/s", "higher", bound, "", "closed-loop completion rate: events/s at saturation | waves/s back-to-back, quiet | replans/s at 20x400 (Analyze(0.0)+ComputePlan) | waves/s under the new leader"},
	{"setup_s", "s", "lower", bound, "", "median time to build the workload's system: nodes, connects, model generation, WAL directories"},
}

var perLayer = []metricInfo{
	// The journeys' named figures, as the traced run saw them. Their
	// untraced values are printed by every end-to-end run.
	{"journey.event_ms_p50", "ms", "lower", 0, "events_steady", "due→Handle at 20k ev/s, median"},
	{"journey.event_ms_p99", "ms", "lower", 0, "events_steady", "due→Handle at 20k ev/s, p99"},
	{"journey.events_per_s", "1/s", "higher", 0, "events_steady", "saturate: median burst rate"},
	{"journey.payload_events_per_s", "1/s", "higher", 0, "events_steady", "payload: median burst rate of 256-byte-payload events (gob path)"},
	{"journey.wave_ms_p50", "ms", "lower", 0, "redeploy_live", "paced waves under traffic, median"},
	{"journey.wave_ms_p90", "ms", "lower", 0, "redeploy_live", "paced waves under traffic, p90"},
	{"journey.waves_per_s", "1/s", "higher", 0, "redeploy_live", "quiet: committed waves per second"},
	{"journey.event_migrating_ms_p99", "ms", "lower", 0, "redeploy_live", "due→mover's Handle during paced waves, p99"},
	{"journey.plan_ms_p50", "ms", "lower", 0, "plan_scale", "Analyze(1.0)+ComputePlan at 20x400"},
	{"journey.replan_ms_p50", "ms", "lower", 0, "plan_scale", "Analyze(0.0)+ComputePlan at 20x400"},
	{"journey.plan_large_ms_p50", "ms", "lower", 0, "plan_scale", "Analyze(1.0)+ComputePlan at 40x800"},
	{"journey.failover_ms_p50", "ms", "lower", 0, "failover", "kill→first commit, crash"},
	{"journey.failover_partition_ms_p50", "ms", "lower", 0, "failover", "kill→first commit, partition"},

	{"prism.connector.route_local_ns", "ns", "lower", 0, "events_steady", "Connector.Route between two components of one architecture"},
	{"prism.connector.route_local_allocs", "count", "lower", 0, "events_steady", "allocations per local Route"},

	{"prism.delivery.emit_ns", "ns", "lower", 0, "events_steady", "time inside the generator's Emit: route+stamp+encode+Send enqueue"},
	{"prism.delivery.pending_max", "count", "lower", 0, "events_steady", "largest sampled PendingAppEvents"},
	{"prism.delivery.ack_frames_per_kevent", "count", "lower", 0, "events_steady", "ack-batch frames per 1000 events at saturation"},
	{"prism.delivery.ack_settle_ms", "ms", "lower", 0, "events_steady", "last delivery→pending 0, median over bursts"},
	{"prism.delivery.tick_us", "us", "lower", 0, "events_steady", "DeliveryTick duration, median"},
	{"prism.delivery.retransmits", "count", "lower", 0, "events_steady,redeploy_live", "retransmitted events over the run"},
	{"prism.delivery.deduped", "count", "lower", 0, "events_steady,redeploy_live", "duplicates swallowed at the port gate"},
	{"prism.delivery.bounced", "count", "lower", 0, "events_steady,redeploy_live", "events bounced to a relocated target"},
	{"prism.delivery.abandoned", "count", "lower", 0, "events_steady,redeploy_live", "events abandoned after MaxAttempts"},
	{"prism.delivery.bounced_per_wave", "count", "lower", 0, "redeploy_live", "bounces per paced wave"},
	{"prism.delivery.handled_after_snapshot", "count", "lower", 0, "redeploy_live", "events a departing mover handled after its snapshot was taken"},
	{"prism.delivery.duplicates_at_movers", "count", "lower", 0, "redeploy_live", "events delivered twice at a mover's port across a migration; 0 is correct"},
	{"prism.delivery.overload_goodput_ratio", "ratio", "higher", 0, "events_steady", "overload phase (QueueCap 256, 50k ev/s for 3 s): delivered÷sent one second after the phase"},
	{"prism.delivery.overload_retransmit_amplification", "ratio", "lower", 0, "events_steady", "overload phase: retransmits÷sent"},

	{"prism.codec.encode_ns", "ns", "lower", 0, "events_steady", "AppendEvent, stamped payload-free event"},
	{"prism.codec.encode_allocs", "count", "lower", 0, "events_steady", ""},
	{"prism.codec.decode_ns", "ns", "lower", 0, "events_steady", "DecodeEvent of the same"},
	{"prism.codec.decode_allocs", "count", "lower", 0, "events_steady", ""},
	{"prism.codec.gob_encode_ns", "ns", "lower", 0, "events_steady", "EncodeEvent, 256-byte-payload event"},
	{"prism.codec.gob_encode_allocs", "count", "lower", 0, "events_steady", ""},
	{"prism.codec.gob_decode_ns", "ns", "lower", 0, "events_steady", ""},
	{"prism.codec.gob_decode_allocs", "count", "lower", 0, "events_steady", ""},
	{"prism.codec.gob_control_encode_ns", "ns", "lower", 0, "events_steady", "EncodeEvent, Heartbeat control event"},
	{"prism.codec.gob_control_encode_allocs", "count", "lower", 0, "events_steady", ""},
	{"prism.codec.gob_control_decode_ns", "ns", "lower", 0, "events_steady", ""},
	{"prism.codec.gob_control_decode_allocs", "count", "lower", 0, "events_steady", ""},
	{"prism.codec.wire_bytes_per_event", "bytes", "lower", 0, "events_steady", "bytes handed to the transport per event at saturation"},
	{"prism.codec.wire_bytes_per_payload_event", "bytes", "lower", 0, "events_steady", ""},

	{"prism.tcp.leg_ns", "ns", "lower", 0, "events_steady", "bare TCPTransport pair at saturation, per frame"},
	{"prism.tcp.leg_allocs", "count", "lower", 0, "events_steady", ""},
	{"prism.tcp.leg_ms_p50_idle", "ms", "lower", 0, "events_steady", "one frame at a time: the coalescing-timer floor"},

	{"prism.admission.throughput_ratio", "ratio", "higher", 0, "events_steady", "saturate burst rate with admission ÷ without"},
	{"prism.admission.depth_max", "count", "lower", 0, "events_steady", "largest sampled Depth(ClassApp)"},
	{"prism.admission.shed_total", "count", "lower", 0, "events_steady,redeploy_live", "frames shed outside the overload phase; must be 0"},

	{"prism.datapath.allocs_per_event", "count", "lower", 0, "events_steady", "heap allocations per event, whole process, at saturation"},
	{"prism.datapath.alloc_bytes_per_event", "bytes", "lower", 0, "events_steady", ""},
	{"prism.datapath.allocs_per_payload_event", "count", "lower", 0, "events_steady", ""},
	{"prism.datapath.event_ms_p50_100k", "ms", "lower", 0, "events_steady", "due→Handle at 100k ev/s"},
	{"prism.datapath.event_ms_p99_100k", "ms", "lower", 0, "events_steady", ""},
	{"prism.datapath.gen_late_ms_max", "ms", "lower", 0, "events_steady,redeploy_live", "how far the open-loop generator fell behind its schedule"},

	{"prism.deployer.wave_prepare_ms", "ms", "lower", 0, "redeploy_live", "the wave span's prepare child: dispatch, fetch, transfer, done reports"},
	{"prism.deployer.wave_transfer_ms", "ms", "lower", 0, "redeploy_live", "mover Snapshot→Restore"},
	{"prism.deployer.wave_decide_ms", "ms", "lower", 0, "redeploy_live", "prepare end→outcome start: the decision checkpoint"},
	{"prism.deployer.wave_outcome_ms", "ms", "lower", 0, "redeploy_live", "the wave span's outcome child: broadcast and acks"},
	{"prism.deployer.control_frames_per_wave", "count", "lower", 0, "redeploy_live", "frames received by all three nodes per quiet wave"},
	{"prism.deployer.control_bytes_per_wave", "bytes", "lower", 0, "redeploy_live", ""},
	{"prism.deployer.wave_ms_p50_1k", "ms", "lower", 0, "redeploy_live", "paced waves, 1 KB state per mover"},
	{"prism.deployer.wave_ms_p50_256k", "ms", "lower", 0, "redeploy_live", "paced waves, 256 KB state per mover"},

	{"store.append_fsync_us", "us", "lower", 0, "redeploy_live", "store.Log.Append on the WAL's filesystem, median of 200"},
	{"store.append_batch_us", "us", "lower", 0, "redeploy_live", "store.Log.AppendBatch of 4 records, median of 200"},
	{"prism.durable.appends_per_wave", "count", "lower", 0, "redeploy_live", "WAL records appended per wave, all kinds"},

	{"effector.compute_plan_us_4", "us", "lower", 0, "redeploy_live", "ComputePlan of the 4-move wave"},
	{"effector.compute_plan_us_400", "us", "lower", 0, "plan_scale", "ComputePlan at 20x400"},
	{"effector.compute_plan_us_800", "us", "lower", 0, "plan_scale", "ComputePlan at 40x800"},

	{"model.generate_ms_10x100", "ms", "lower", 0, "plan_scale", "Generator.Generate"},
	{"model.generate_ms_20x400", "ms", "lower", 0, "plan_scale", ""},
	{"model.generate_ms_40x800", "ms", "lower", 0, "plan_scale", ""},
	{"model.dense_build_ms_10x100", "ms", "lower", 0, "plan_scale", "Touch + Dense"},
	{"model.dense_build_ms_20x400", "ms", "lower", 0, "plan_scale", ""},
	{"model.dense_build_ms_40x800", "ms", "lower", 0, "plan_scale", ""},
	{"model.constraints_check_us_10x100", "us", "lower", 0, "plan_scale", "Constraints.Check of a full deployment"},
	{"model.constraints_check_us_20x400", "us", "lower", 0, "plan_scale", ""},
	{"model.constraints_check_us_40x800", "us", "lower", 0, "plan_scale", ""},

	{"objective.availability_quantify_us", "us", "lower", 0, "plan_scale", "Availability.Quantify at 20x400"},
	{"objective.latency_quantify_us", "us", "lower", 0, "plan_scale", "Latency.Quantify at 20x400"},
	{"objective.delta_move_ns", "ns", "lower", 0, "plan_scale", "BeginDelta state: Move + Revert at 20x400"},
	{"objective.delta_full_ratio", "ratio", "lower", 0, "plan_scale", "delta move cost ÷ full Quantify cost"},

	{"algo.avala_ms_20x400", "ms", "lower", 0, "plan_scale", "the search alone (Result.Elapsed), median over the traced sweep"},
	{"algo.avala_ms_40x800", "ms", "lower", 0, "plan_scale", ""},
	{"algo.stochastic_ms_20x400", "ms", "lower", 0, "plan_scale", "25 trials, Workers 1"},
	{"algo.stochastic_ms_40x800", "ms", "lower", 0, "plan_scale", ""},
	{"algo.swap_ms_20x400", "ms", "lower", 0, "plan_scale", "3 passes, stock constraints, Workers 1"},
	{"algo.swap_ms_40x800", "ms", "lower", 0, "plan_scale", ""},
	{"algo.stochastic_parallel_speedup", "ratio", "higher", 0, "plan_scale", "Stochastic at 20x400: Workers 1 ÷ Workers nproc"},
	{"algo.avala_evaluations", "count", "lower", 0, "plan_scale", "Result.Evaluations summed over the traced sweep; exact"},
	{"algo.avala_nodes", "count", "lower", 0, "plan_scale", "Result.Nodes summed over the traced sweep; exact"},
	{"algo.stochastic_evaluations", "count", "lower", 0, "plan_scale", ""},
	{"algo.stochastic_nodes", "count", "lower", 0, "plan_scale", ""},
	{"algo.swap_iterations", "count", "lower", 0, "plan_scale", "algo_iterations_total of the two swap probes; exact"},
	{"algo.swap_delta_evals", "count", "lower", 0, "plan_scale", "algo_delta_evals_total of the two swap probes; exact"},

	{"analyzer.overhead_ms", "ms", "lower", 0, "plan_scale", "Analyze − the algo.Run it wraps, 20x400"},

	{"prism.leader.detect_ms_crash", "ms", "lower", 0, "failover", "kill→LeaderSuspect"},
	{"prism.leader.campaign_ms_crash", "ms", "lower", 0, "failover", "Failover calls until won"},
	{"prism.leader.first_commit_ms_crash", "ms", "lower", 0, "failover", "won→first committed Enact"},
	{"prism.leader.unserved_requests_crash", "count", "lower", 0, "failover", "20 ms-scheduled requests due before the first commit"},
	{"prism.leader.campaigns_lost_crash", "count", "lower", 0, "failover", ""},
	{"prism.leader.detect_ms_partition", "ms", "lower", 0, "failover", ""},
	{"prism.leader.campaign_ms_partition", "ms", "lower", 0, "failover", ""},
	{"prism.leader.first_commit_ms_partition", "ms", "lower", 0, "failover", ""},
	{"prism.leader.unserved_requests_partition", "count", "lower", 0, "failover", ""},
	{"prism.leader.campaigns_lost_partition", "count", "lower", 0, "failover", ""},

	{"bench.trace_overhead_pct", "%", "lower", 0, "", "traced vs untraced primary figure of the workload, same process"},
}

// manifest renders the catalogue as BENCHMARK.json.
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// list prints every metric with unit, kind, workload and bound.
func list(w io.Writer) {
	fmt.Fprintf(w, "%-46s %-6s %-10s %-14s %-6s %s\n", "metric", "unit", "kind", "workload", "bound", "what")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-46s %-6s %-10s %-14s %-6.2f %s\n", m.name, m.unit, "end-to-end", "every", m.bound, m.what)
	}
	for _, m := range perLayer {
		wl := m.workload
		if wl == "" {
			wl = "every"
		}
		fmt.Fprintf(w, "%-46s %-6s %-10s %-14s %-6s %s\n", m.name, m.unit, "layer", wl, "-", m.what)
	}
	fmt.Fprintln(w)
	for _, wk := range workloads {
		fmt.Fprintf(w, "workload %-14s %s\n", wk.name, strings.TrimSpace(wk.why))
	}
}
