//! The per-layer metrics of the traced run, with the end-to-end metrics
//! each one should move and the workloads on which it should move
//! nothing. Recorded before any optimisation, so a later change can be
//! checked against the prediction instead of explained after the fact.

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Workloads whose traced run measures it.
    pub traced_on: &'static [&'static str],
    /// End-to-end metrics (on named workloads) a change here should move.
    pub moves: &'static str,
    /// Workloads on which a change here should move no end-to-end metric.
    pub unchanged_on: &'static [&'static str],
}

const PIPELINE_MOVES: &str =
    "reveal: latency_p50_ms, cpu_ms_per_op, ops_per_s; fleet_mixed: miss_latency_p50_ms";
const SHAPE_MOVES: &str = "reveal: latency_p50_ms, cpu_ms_per_op, ops_per_s, revealed_kb_per_op; fleet_mixed: miss_latency_p50_ms";
const HIT_MOVES: &str = "serve_hits: latency_p50_ms, latency_p90_ms, cpu_ms_per_op, ops_per_s; fleet_mixed: hit_latency_p50_ms";
const FLEET_MOVES: &str = "fleet_mixed: hit_latency_p50_ms, cpu_ms_per_op";
const FLEET_MISS_MOVES: &str = "fleet_mixed: miss_latency_p50_ms, cpu_ms_per_op";

const fn pipeline(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        traced_on: &["reveal"],
        moves: PIPELINE_MOVES,
        unchanged_on: &["serve_hits"],
    }
}

const fn shape(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        moves: SHAPE_MOVES,
        ..pipeline(name, unit)
    }
}

const fn hit(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        traced_on: &["serve_hits", "fleet_mixed"],
        moves: HIT_MOVES,
        unchanged_on: &["reveal"],
    }
}

const fn fleet(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        traced_on: &["fleet_mixed"],
        moves,
        unchanged_on: &["reveal", "serve_hits"],
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[LayerMetric] = &[
    pipeline("packer.ms_per_op", "ms"),
    pipeline("collect.ms_per_op", "ms"),
    pipeline("runtime.insns_per_op", "count"),
    pipeline("runtime.minsns_per_s", "Minsn/s"),
    pipeline("files.ms_per_op", "ms"),
    pipeline("files.dump_kb_per_op", "KiB"),
    shape("reassemble.ms_per_op", "ms"),
    shape("reassemble.tree_merge_ms_per_op", "ms"),
    shape("reassemble.dexgen_ms_per_op", "ms"),
    shape("dalvik.canonicalize_ms_per_op", "ms"),
    pipeline("verifier.ms_per_op", "ms"),
    pipeline("verifier.kinsns_per_s", "kinsn/s"),
    LayerMetric {
        traced_on: &["reveal", "fleet_mixed"],
        ..pipeline("verifier.cache_hit_ratio", "ratio")
    },
    pipeline("pipeline.validate_ms_per_op", "ms"),
    pipeline("dex.write_ms_per_op", "ms"),
    pipeline("harness.conformance_ms_per_op", "ms"),
    hit("service.rtt_ms_per_op", "ms"),
    hit("service.request_encode_ms_per_op", "ms"),
    hit("service.request_parse_ms_per_op", "ms"),
    hit("dex.read_ms_per_op", "ms"),
    hit("harness.job_key_ms_per_op", "ms"),
    hit("store.get_ms_per_op", "ms"),
    hit("service.reply_encode_ms_per_op", "ms"),
    hit("service.reply_parse_ms_per_op", "ms"),
    hit("service.unattributed_ms_per_op", "ms"),
    hit("service.request_kb_per_op", "KiB"),
    hit("service.reply_kb_per_op", "KiB"),
    hit("store.hit_ratio", "ratio"),
    fleet("router.overhead_ms_per_op", "ms", FLEET_MOVES),
    fleet("router.hedges_per_op", "count", FLEET_MOVES),
    fleet("router.hedge_win_ratio", "ratio", FLEET_MOVES),
    fleet("router.duplicate_extract_ratio", "ratio", FLEET_MISS_MOVES),
    fleet("router.backfills_per_op", "count", FLEET_MISS_MOVES),
    fleet("store.put_ms_per_op", "ms", FLEET_MISS_MOVES),
    fleet("service.pool_wait_ms_per_miss", "ms", FLEET_MISS_MOVES),
    LayerMetric {
        name: "trace.coverage_ratio",
        unit: "ratio",
        traced_on: &["reveal", "serve_hits", "fleet_mixed"],
        moves: "none: trace quality, the share of op wall time the spans attribute",
        unchanged_on: &["reveal", "serve_hits", "fleet_mixed"],
    },
    LayerMetric {
        name: "trace.overhead_ratio",
        unit: "ratio",
        traced_on: &["reveal", "serve_hits", "fleet_mixed"],
        moves: "none: traced over untraced cpu_ms_per_op",
        unchanged_on: &["reveal", "serve_hits", "fleet_mixed"],
    },
];

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dexlego_harness::json::{parse, Value};

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    pub(crate) fn listed(key: &str) -> Vec<(String, String)> {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect("string").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn table_matches_benchmark_json() {
        let table: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|l| (l.name.to_owned(), l.unit.to_owned()))
            .collect();
        assert_eq!(table, listed("per_layer"));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for l in PER_LAYER {
            assert!(l.name.len() <= 64 && l.unit.len() <= 16, "{}", l.name);
            assert!(!l.traced_on.is_empty() && !l.moves.is_empty());
        }
    }
}
