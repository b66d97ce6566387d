//! The metric tables. `BENCHMARK.json` at the repo root lists the same
//! names, units, directions and bounds; a unit test holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_delivered_unit",
        unit: "count",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "sub_forwards_per_sub",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "recall",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// Per-layer metrics `(name, unit, better)`: reported by the traced run.
pub const PER_LAYER: [(&str, &str, Better); 69] = {
    use Better::{Higher, Lower};
    [
        ("workload.generate_s", "s", Lower),
        ("workload.oracle_s", "s", Lower),
        ("dynamics.plan_gen_s", "s", Lower),
        ("subsumption.stab_ns", "ns", Lower),
        ("subsumption.scan_ns", "ns", Lower),
        ("subsumption.candidates_per_stab", "count", Lower),
        ("subsumption.insert_ns", "ns", Lower),
        ("subsumption.remove_ns", "ns", Lower),
        ("subsumption.rebuild_stab_ns", "ns", Lower),
        ("subsumption.set_filter_ns", "ns", Lower),
        ("subsumption.covered_ratio", "ratio", Higher),
        ("core.handler_us_per_frame", "us", Lower),
        ("core.handler_us_per_event", "us", Lower),
        ("core.correlation_band_ns", "ns", Lower),
        ("core.event_store_insert_ns", "ns", Lower),
        ("core.window_events", "count", Lower),
        ("core.operator_handler_us", "us", Lower),
        ("core.stored_operators", "count", Lower),
        ("network.sim_steps_per_s", "1/s", Higher),
        ("network.shard_steps_per_s", "1/s", Higher),
        ("network.shard_speedup", "ratio", Higher),
        ("network.sparse_round_ms", "ms", Lower),
        ("network.flood_steps_per_s", "1/s", Higher),
        ("network.steps_per_event", "count", Lower),
        ("network.dropped_share", "ratio", Lower),
        ("network.recovery_msgs_per_crash", "count", Lower),
        ("network.handoff_msgs_per_move", "count", Lower),
        ("network.shard_rounds", "count", Lower),
        ("network.shard_drained_per_round", "count", Higher),
        ("network.shard_neighbor_capped_share", "ratio", Lower),
        ("engines.build_ms", "ms", Lower),
        ("engines.inject_us_per_event", "us", Lower),
        ("engines.flush_us_per_round", "us", Lower),
        ("engines.round_ms_p99", "ms", Lower),
        ("engines.sub_register_us_p50", "us", Lower),
        ("engines.wrapper_overhead_ratio", "ratio", Lower),
        ("engines.event_units_vs_multijoin", "ratio", Lower),
        ("engines.recall_vs_naive", "ratio", Higher),
        ("runtime.encode_ns_per_frame", "ns", Lower),
        ("runtime.decode_ns_per_frame", "ns", Lower),
        ("runtime.frame_bytes_per_event", "B", Lower),
        ("runtime.coalesce_ns", "ns", Lower),
        ("runtime.host_msgs_per_s", "1/s", Higher),
        ("runtime.parks", "count", Lower),
        ("runtime.wire_frames", "count", Lower),
        ("runtime.wire_bytes_per_event", "B", Lower),
        ("runtime.coalesced_share", "ratio", Higher),
        ("runtime.host_overhead_ratio", "ratio", Lower),
        ("telemetry.recorder_overhead_ratio", "ratio", Lower),
        ("telemetry.events_recorded", "count", Lower),
        ("telemetry.export_jsonl_ms", "ms", Lower),
        ("telemetry.trace_overhead_ratio", "ratio", Higher),
        ("dynamics.control_actions_per_s", "1/s", Higher),
        ("dynamics.control_ms_p50", "ms", Lower),
        ("dynamics.control_ms_p95", "ms", Lower),
        ("dynamics.subscribe_ms_p50", "ms", Lower),
        ("dynamics.unsubscribe_ms_p50", "ms", Lower),
        ("dynamics.sensor_up_ms_p50", "ms", Lower),
        ("dynamics.sensor_down_ms_p50", "ms", Lower),
        ("dynamics.move_ms_p50", "ms", Lower),
        ("dynamics.crash_recover_ms_p50", "ms", Lower),
        ("benchmark.passes", "count", Higher),
        ("benchmark.timed_steps", "count", Higher),
        ("benchmark.timed_readings", "count", Higher),
        ("benchmark.subscriptions", "count", Higher),
        ("benchmark.expected_units", "count", Higher),
        ("benchmark.delivered_units", "count", Higher),
        ("benchmark.threads", "count", Higher),
        ("benchmark.self_time_coverage", "ratio", Higher),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. Every name, unit, direction and bound must agree.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for name in crate::workloads::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\":")));
        }
        let seconds = format!("\"run_seconds\": {},", crate::suite::RUN_SECONDS);
        assert!(json.contains(&seconds), "BENCHMARK.json lacks {seconds}");
    }
}
