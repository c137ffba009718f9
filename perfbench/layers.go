package main

import (
	"time"

	"distkcore/internal/obs"
)

// layerMetric is one per-layer metric with the map of what it should move:
// the end-to-end metric and workload it feeds, and the workloads where the
// prediction is no change.
type layerMetric struct {
	Name      string `json:"name"`
	Unit      string `json:"unit"`
	Better    string `json:"better"`
	Moves     string `json:"moves"`
	Unchanged string `json:"unchanged"`
}

// layerMetrics lists every metric a traced run reports, on every workload
// (a layer a workload never runs reports 0), in BENCHMARK.json's order.
//
// The *.self_ms rows, the step, deliver, send, recv and verify times,
// shard.rebalance_ms, core.central_ms and orient.resolve_ms are shares of
// the traced op's wall time from attribute's sweep; the *.self_ms rows
// plus unattributed_ms sum to obs.traced_wall_ms. The waits and
// session.repair_max_ms and session.rebalance_ms take the largest worker
// per round (per epoch) and sum over rounds; session.repair_sum_ms,
// session.publish_ms and session.epoch_ms sum span durations; and
// graph.generate_ms, shard.partition_ms, session.open_ms and
// dynamic.apply_ms time calls made beside the op.
var layerMetrics = []layerMetric{
	{"graph.generate_ms", "ms", "lower", "setup_s on all (largest on batch)", "-"},

	{"dist.self_ms", "ms", "lower", "op_wall_ms, op_cpu_ms on batch", "session"},
	{"dist.deliver_ms", "ms", "lower", "op_cpu_ms, alloc_mb on batch; op_cpu_ms on cluster (minor)", "session"},
	{"dist.deliver_ns_per_msg", "ns/msg", "lower", "op_cpu_ms on batch", "session"},
	{"dist.barrier_wait_ms", "ms", "lower", "op_wall_ms on batch", "cluster, session"},
	{"dist.messages", "count", "lower", "op_cpu_ms on batch and cluster", "session"},
	{"dist.wire_bytes", "bytes", "lower", "wire_mb on batch", "session"},

	{"core.self_ms", "ms", "lower", "op_cpu_ms on batch and cluster", "session"},
	{"core.step_ms", "ms", "lower", "op_cpu_ms on batch", "session"},
	{"core.step_ns_per_msg", "ns/msg", "lower", "op_cpu_ms on batch", "session"},
	{"core.central_ms", "ms", "lower", "op_cpu_ms on batch (orientation)", "cluster, session"},

	{"densest.self_ms", "ms", "lower", "op_cpu_ms on batch", "cluster, session"},
	{"densest.step_ms", "ms", "lower", "op_cpu_ms on batch", "cluster, session"},
	{"densest.deliver_ms", "ms", "lower", "op_cpu_ms on batch", "cluster, session"},
	{"densest.messages", "count", "lower", "op_cpu_ms, wire_mb on batch", "cluster, session"},

	{"orient.self_ms", "ms", "lower", "op_cpu_ms on batch", "cluster, session"},
	{"orient.resolve_ms", "ms", "lower", "op_cpu_ms on batch", "cluster, session"},

	{"shard.self_ms", "ms", "lower", "op_cpu_ms on session (512-op epochs)", "batch"},
	{"shard.partition_ms", "ms", "lower", "op_cpu_ms on cluster; setup_s on session", "batch"},
	{"shard.cross_frame_bytes", "bytes", "lower", "op_cpu_ms, wire_mb on cluster", "batch, session"},
	{"shard.max_shard_bytes", "bytes", "lower", "op_cpu_ms on cluster", "batch, session"},
	{"shard.rebalance_ms", "ms", "lower", "op_cpu_ms on session", "batch, cluster"},

	{"net.self_ms", "ms", "lower", "op_wall_ms, op_cpu_ms on cluster", "batch, session"},
	{"net.step_ms", "ms", "lower", "op_cpu_ms on cluster", "batch, session"},
	{"net.deliver_ms", "ms", "lower", "op_cpu_ms on cluster", "batch, session"},
	{"net.send_ms", "ms", "lower", "op_cpu_ms on cluster", "batch, session"},
	{"net.send_ns_per_byte", "ns/B", "lower", "op_cpu_ms on cluster", "batch, session"},
	{"net.recv_ms", "ms", "lower", "op_wall_ms on cluster", "batch, session"},
	{"net.verify_ms", "ms", "lower", "op_wall_ms on cluster", "batch, session"},
	{"net.barrier_wait_max_ms", "ms", "lower", "op_wall_ms on cluster", "batch, session"},
	{"net.connect_ms", "ms", "lower", "op_cpu_ms on cluster", "batch, session"},
	{"net.max_worker_wire_bytes", "bytes", "lower", "op_cpu_ms, wire_mb on cluster", "batch, session"},
	{"net.chunks", "count", "lower", "op_cpu_ms on cluster", "batch, session"},
	{"net.credits", "count", "lower", "op_wall_ms on cluster", "batch, session"},

	{"session.self_ms", "ms", "lower", "op_wall_ms, op_cpu_ms on session", "batch, cluster"},
	{"session.open_ms", "ms", "lower", "setup_s, retained_mb on session", "batch, cluster"},
	{"session.epoch_ms", "ms", "lower", "op_wall_ms on session", "batch, cluster"},
	{"session.repair_sum_ms", "ms", "lower", "op_cpu_ms on session", "batch, cluster"},
	{"session.repair_max_ms", "ms", "lower", "op_wall_ms on session", "batch, cluster"},
	{"session.rebalance_ms", "ms", "lower", "op_cpu_ms on session (512-op epochs)", "batch, cluster"},
	{"session.publish_ms", "ms", "lower", "op_cpu_ms on session", "batch, cluster"},
	{"session.changed_values", "count", "lower", "op_cpu_ms, wire_mb on session", "batch, cluster"},
	{"session.notifications", "count", "lower", "op_cpu_ms on session", "batch, cluster"},

	{"dynamic.self_ms", "ms", "lower", "op_cpu_ms on session", "batch, cluster"},
	{"dynamic.apply_ms", "ms", "lower", "op_cpu_ms on session (the one-repairer floor)", "batch, cluster"},

	{"obs.trace_overhead", "ratio", "lower", "none (discounts the traced numbers)", "-"},
	{"obs.traced_wall_ms", "ms", "lower", "none (the wall the split reconciles to)", "-"},
	{"unattributed_ms", "ms", "lower", "none (the part of the traced wall no span covers)", "-"},
}

// counts are exact program counters of one traced op, by name: dist
// metrics, stream wire counters, frame ledgers, epoch reports. Names that
// are not per-layer metrics (core.messages, net.wire_bytes) only base the
// per-message and per-byte normalizations.
type counts map[string]float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perUnit divides a duration by a count: ns per unit (0 for no units).
func perUnit(d time.Duration, n float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / n
}

// layerValues computes every per-layer metric of traced op root. untraced
// is the median wall time of the run's untraced ops; it bases
// obs.trace_overhead.
func (r *recorder) layerValues(root int, c counts, untraced time.Duration) (map[string]float64, split) {
	spans := r.opSpans(root)
	sp := r.attribute(root, spans)
	v := map[string]float64{}
	for _, m := range layerMetrics {
		v[m.Name] = 0
	}
	for k, x := range c {
		if _, ok := v[k]; ok {
			v[k] = x
		}
	}
	phase := func(ph string) func(span, string) bool {
		return func(_ span, p string) bool { return p == ph }
	}
	phaseIn := func(ph string, in func(span) bool) func(span, string) bool {
		return func(s span, p string) bool { return p == ph && in(s) }
	}
	proto := func(l string) func(span) bool { return func(s span) bool { return s.Proto == l } }
	onNet := func(s span) bool { return s.Layer == "net" }
	named := func(n string) func(span, string) bool {
		return func(s span, p string) bool { return p == "" && s.Name == n }
	}

	var attributed time.Duration
	for it, d := range sp.items {
		if l := r.layerOf(it); l != "" {
			v[l+".self_ms"] += ms(d)
			attributed += d
		}
	}
	v["obs.traced_wall_ms"] = ms(sp.wall)
	v["unattributed_ms"] = ms(sp.wall - attributed)
	if untraced > 0 {
		v["obs.trace_overhead"] = float64(sp.wall) / float64(untraced)
	}

	deliver := r.sum(sp, phase("deliver"))
	coreStep := r.sum(sp, phaseIn("step", proto("core")))
	send := r.sum(sp, phase("send"))
	v["dist.deliver_ms"] = ms(deliver)
	v["dist.deliver_ns_per_msg"] = perUnit(deliver, c["dist.messages"])
	v["core.step_ms"] = ms(coreStep)
	v["core.step_ns_per_msg"] = perUnit(coreStep, c["core.messages"])
	v["core.central_ms"] = ms(r.sum(sp, named("core.Run")))
	v["densest.step_ms"] = ms(r.sum(sp, phaseIn("step", proto("densest"))))
	v["densest.deliver_ms"] = ms(r.sum(sp, phaseIn("deliver", proto("densest"))))
	v["orient.resolve_ms"] = ms(r.sum(sp, named("orient.FromElimination")))
	v["shard.rebalance_ms"] = ms(r.sum(sp, phase("rebalance")))
	v["net.step_ms"] = ms(r.sum(sp, phaseIn("step", onNet)))
	v["net.deliver_ms"] = ms(r.sum(sp, phaseIn("deliver", onNet)))
	v["net.send_ms"] = ms(send)
	v["net.send_ns_per_byte"] = perUnit(send, c["net.wire_bytes"])
	v["net.recv_ms"] = ms(r.sum(sp, phase("recv")))
	v["net.verify_ms"] = ms(r.sum(sp, phase("verify")))

	in := func(ph obs.Phase, stage func(span) bool) func(obsSpan) bool {
		return func(s obsSpan) bool { return s.Phase == ph && stage(r.spans[s.stage]) }
	}
	all := func(span) bool { return true }
	onDist := func(s span) bool { return s.Layer == "dist" }
	v["dist.barrier_wait_ms"] = ms(roundMax(spans, in(obs.PhaseStep, onDist), lagging))
	v["net.barrier_wait_max_ms"] = ms(roundMax(spans, func(s obsSpan) bool {
		return s.Phase == obs.PhaseBarrierWait && s.Worker >= 0 && onNet(r.spans[s.stage])
	}, longest))
	v["session.repair_max_ms"] = ms(roundMax(spans, in(obs.PhaseRepair, all), longest))
	v["session.rebalance_ms"] = ms(roundMax(spans, in(obs.PhaseRebalance, all), longest))
	var repair, publish, epoch time.Duration
	connect := map[int]time.Duration{}
	for _, s := range spans {
		switch s.Phase {
		case obs.PhaseRepair:
			repair += s.Dur()
		case obs.PhasePublish:
			publish += s.Dur()
		case obs.PhaseEpoch:
			epoch += s.Dur()
		}
		if st := r.spans[s.stage]; onNet(st) {
			if d, ok := connect[s.stage]; !ok || s.Start-st.Start < d {
				connect[s.stage] = s.Start - st.Start
			}
		}
	}
	var conn time.Duration
	for _, d := range connect {
		conn += d
	}
	v["net.connect_ms"] = ms(conn)
	v["session.repair_sum_ms"] = ms(repair)
	v["session.publish_ms"] = ms(publish)
	v["session.epoch_ms"] = ms(epoch)

	// Calls made beside the op, each its own span outside any op.
	v["graph.generate_ms"] = ms(r.total("graph.BarabasiAlbert"))
	v["shard.partition_ms"] = ms(r.total("shard.Partition"))
	v["session.open_ms"] = ms(r.total("session.Open"))
	v["dynamic.apply_ms"] = ms(r.total("dynamic.ApplyDelta"))
	return v, sp
}
