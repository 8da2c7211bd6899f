//! What a run prints: the end-to-end metrics of an untraced run, the
//! per-layer metrics of a traced run, and a detail line with the base
//! count behind every ratio and percentile.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::layers::PER_LAYER;
use crate::stats::{percentile, ratio, steal_share, Mark, Percentile, FAILED};
use crate::trace::Tracer;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed and no op failed.
    pub correct: bool,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Supporting figures (`key → JSON text`) for the detail line.
    pub detail: BTreeMap<String, String>,
}

impl Outcome {
    /// Adds a detail figure.
    pub fn note(&mut self, key: &str, json: String) {
        self.detail.insert(key.to_owned(), json);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail line (printed before the result line).
    pub fn detail_line(&self) -> String {
        let members: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

/// A JSON number; latencies of failed ops (infinite) print as `1e300`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_owned()
    }
}

/// `{"value": v, "base": n}` — a ratio or mean next to its base count.
pub fn with_base(value: f64, base: u64) -> String {
    format!("{{\"value\": {}, \"base\": {base}}}", json_number(value))
}

/// One block of the measured phase: a run of consecutive completions.
/// On `serve_hits` and `fleet_mixed` every block holds the same request
/// mix, so how long a block took measures only how fast the machine ran
/// the program at the time.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block's ops: indices into [`Timed::latency_ms`].
    pub ops: Range<usize>,
    /// Block length, seconds.
    pub wall_s: f64,
    /// Process CPU over the block, seconds.
    pub cpu_s: f64,
    /// System-wide share of time the hypervisor stole during the block.
    pub steal_share: f64,
}

impl Block {
    /// The block of `ops` between two marks.
    pub fn between(from: &Mark, to: &Mark, ops: Range<usize>) -> Block {
        Block {
            ops,
            wall_s: to.at_s - from.at_s,
            cpu_s: to.cpu_s - from.cpu_s,
            steal_share: steal_share(from.jiffies, to.jiffies),
        }
    }
}

/// The blocks of `size` consecutive completions between consecutive
/// `marks` (see [`crate::stats::BlockClock`]).
pub fn blocks(marks: &[Mark], size: usize) -> Vec<Block> {
    marks
        .windows(2)
        .enumerate()
        .map(|(k, w)| Block::between(&w[0], &w[1], k * size..(k + 1) * size))
        .collect()
}

/// Share of blocks the closed-loop workloads keep: the faster half.
pub const FASTER_HALF: f64 = 0.5;

/// Ops the kept blocks must hold at least: enough for the 90th
/// percentile to have [`MIN_BEYOND`](crate::stats::MIN_BEYOND) samples
/// beyond it twice over.
pub const MIN_KEPT_OPS: usize = 200;

/// Everything the measured (untraced) phase of a workload observed.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-op latency in ms, in completion order; failed ops are
    /// [`FAILED`].
    pub latency_ms: Vec<f64>,
    /// Latencies of ops answered from a store (no pipeline run).
    pub hit_ms: Vec<f64>,
    /// Latencies of ops that ran the extraction pipeline.
    pub miss_ms: Vec<f64>,
    /// Timed wall time, seconds.
    pub wall_s: f64,
    /// Process CPU over the timed phase, seconds.
    pub cpu_s: f64,
    /// Ops that failed (counted in `latency_ms` as [`FAILED`] too).
    pub failed: u64,
    /// Revealed DEX bytes over the successful ops.
    pub revealed_bytes: u64,
    /// Ops with each named property (`store_hit`, `repeated_verification`,
    /// `size.small` …).
    pub properties: BTreeMap<String, u64>,
    /// The measured phase's blocks, in order. Ops after the last whole
    /// block count in the whole-phase figures only.
    pub blocks: Vec<Block>,
    /// Share of the blocks, shortest first, the bounded metrics are
    /// computed over (1 = every block). Other tenants of the host slow
    /// the program down for seconds at a time and never speed it up, so
    /// the faster blocks of a run show the program rather than its
    /// neighbours.
    pub keep: f64,
    /// System-wide share of CPU time stolen by the hypervisor during the
    /// measured phase.
    pub steal_share: f64,
    /// Peak resident memory of the process when the measured phase ended
    /// (before any after-the-fact output checks), MiB.
    pub peak_rss_mb: f64,
}

/// Throughput, CPU and latency over a set of blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figures {
    /// Blocks the figures cover.
    pub blocks: usize,
    /// Ops attempted in them.
    pub ops: usize,
    /// Completed ops per second of the blocks' wall time.
    pub ops_per_s: f64,
    /// Process CPU per attempted op, ms.
    pub cpu_ms_per_op: f64,
    /// Nearest-rank median over the blocks' ops.
    pub p50: Option<Percentile>,
    /// Nearest-rank 90th percentile over the blocks' ops.
    pub p90: Option<Percentile>,
}

impl Timed {
    /// Records one op. `None` = failed.
    pub fn op(&mut self, latency_ms: Option<f64>, revealed_bytes: usize) {
        match latency_ms {
            Some(ms) => {
                self.latency_ms.push(ms);
                self.revealed_bytes += revealed_bytes as u64;
            }
            None => {
                self.latency_ms.push(FAILED);
                self.failed += 1;
            }
        }
    }

    /// Counts one op with `property`.
    pub fn mark(&mut self, property: &str) {
        *self.properties.entry(property.to_owned()).or_default() += 1;
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    /// Process CPU per op over the whole phase, milliseconds.
    pub fn cpu_ms_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e3, self.attempted() as f64)
    }

    /// The blocks the bounded metrics use: the [`Timed::keep`] share with
    /// the shortest wall time, widened in the same order until they hold
    /// [`MIN_KEPT_OPS`] ops (or every block).
    pub fn kept(&self) -> Vec<&Block> {
        let mut order: Vec<&Block> = self.blocks.iter().collect();
        order.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let want = (self.keep * order.len() as f64).ceil() as usize;
        let mut kept = Vec::new();
        let mut ops = 0;
        for block in order {
            if kept.len() >= want && ops >= MIN_KEPT_OPS {
                break;
            }
            ops += block.ops.len();
            kept.push(block);
        }
        kept
    }

    /// Throughput, CPU and latency over `blocks`.
    pub fn figures(&self, blocks: &[&Block]) -> Figures {
        let latency: Vec<f64> = blocks
            .iter()
            .flat_map(|b| self.latency_ms[b.ops.clone()].iter().copied())
            .collect();
        let completed = latency.iter().filter(|ms| ms.is_finite()).count();
        let wall_s: f64 = blocks.iter().map(|b| b.wall_s).sum();
        let cpu_s: f64 = blocks.iter().map(|b| b.cpu_s).sum();
        Figures {
            blocks: blocks.len(),
            ops: latency.len(),
            ops_per_s: ratio(completed as f64, wall_s),
            cpu_ms_per_op: ratio(cpu_s * 1e3, latency.len() as f64),
            p50: percentile(&latency, 0.5),
            p90: percentile(&latency, 0.9),
        }
    }
}

/// Fills `out` with the end-to-end metrics of `timed` (in
/// `BENCHMARK.json` order) and their supporting figures. Throughput, CPU
/// per op and the latency percentiles come from the kept blocks (see
/// [`Timed::kept`]); the detail line also gives them over every block.
/// Returns false when a percentile lacks the samples beyond it to be
/// reported.
pub fn end_to_end(out: &mut Outcome, timed: &Timed, setup_s: f64) -> bool {
    let attempted = timed.attempted();
    let completed = attempted - timed.failed;
    out.attempted = attempted;
    out.failed = timed.failed;
    let kept = timed.figures(&timed.kept());
    let mut complete = true;
    let mut metric = |name: &'static str, value: Option<f64>, unit: &'static str| match value {
        Some(value) => out.metrics.push(Metric { name, value, unit }),
        None => {
            eprintln!("perfbench: {name}: fewer than 10 samples beyond the percentile");
            complete = false;
        }
    };
    metric("setup_s", Some(setup_s), "s");
    metric("ops_per_s", Some(kept.ops_per_s), "1/s");
    metric("latency_p50_ms", kept.p50.map(|p| p.value), "ms");
    metric("latency_p90_ms", kept.p90.map(|p| p.value), "ms");
    metric("cpu_ms_per_op", Some(kept.cpu_ms_per_op), "ms");
    metric("peak_rss_mb", Some(timed.peak_rss_mb), "MiB");
    metric(
        "revealed_kb_per_op",
        Some(ratio(
            timed.revealed_bytes as f64 / 1024.0,
            completed as f64,
        )),
        "KiB",
    );

    out.note("timed_wall_s", json_number(timed.wall_s));
    out.note("completed_ops", completed.to_string());
    out.note("steal_share", json_number(timed.steal_share));
    let all: Vec<&Block> = timed.blocks.iter().collect();
    for (key, figures) in [("kept_blocks", kept), ("all_blocks", timed.figures(&all))] {
        out.note(key, figures_json(&figures));
    }
    let per_block: Vec<String> = timed
        .blocks
        .iter()
        .map(|b| {
            format!(
                "[{}, {}, {}]",
                json_number(b.wall_s),
                json_number(ratio(b.cpu_s * 1e3, b.ops.len() as f64)),
                json_number(b.steal_share)
            )
        })
        .collect();
    out.note(
        "blocks_wall_s_cpu_ms_steal",
        format!("[{}]", per_block.join(", ")),
    );
    out.note(
        "whole_phase",
        format!(
            "{{\"ops_per_s\": {}, \"cpu_ms_per_op\": {}}}",
            json_number(ratio(completed as f64, timed.wall_s)),
            json_number(timed.cpu_ms_per_op())
        ),
    );
    out.note(
        "fail_ratio",
        with_base(ratio(timed.failed as f64, attempted as f64), attempted),
    );
    out.note(
        "hit_latency_p50_ms",
        percentile_json(percentile(&timed.hit_ms, 0.5), timed.hit_ms.len() as u64),
    );
    out.note(
        "miss_latency_p50_ms",
        percentile_json(percentile(&timed.miss_ms, 0.5), timed.miss_ms.len() as u64),
    );
    let mut properties = timed.properties.clone();
    for named in ["store_hit", "repeated_verification"] {
        properties.entry(named.to_owned()).or_default();
    }
    let shares: Vec<String> = properties
        .iter()
        .map(|(k, &n)| {
            format!(
                "\"{k}\": {}",
                with_base(ratio(n as f64, attempted as f64), attempted)
            )
        })
        .collect();
    out.note("op_shares", format!("{{{}}}", shares.join(", ")));
    complete
}

fn figures_json(f: &Figures) -> String {
    format!(
        "{{\"blocks\": {}, \"ops_per_s\": {}, \"cpu_ms_per_op\": {}, \"latency_p50_ms\": {}, \"latency_p90_ms\": {}}}",
        f.blocks,
        json_number(f.ops_per_s),
        json_number(f.cpu_ms_per_op),
        percentile_json(f.p50, f.ops as u64),
        percentile_json(f.p90, f.ops as u64)
    )
}

fn percentile_json(p: Option<Percentile>, samples: u64) -> String {
    match p {
        Some(p) => format!(
            "{{\"value\": {}, \"samples\": {}, \"beyond\": {}}}",
            json_number(p.value),
            p.samples,
            p.beyond
        ),
        None => format!("{{\"value\": null, \"samples\": {samples}, \"reason\": \"fewer than 10 samples beyond\"}}"),
    }
}

/// Per-layer figures a traced run produced, keyed by metric name, each
/// with its base count.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    /// Sets `name` to `value` over `base`.
    pub fn set(&mut self, name: &'static str, value: f64, base: u64) {
        assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "{name} is not a listed per-layer metric"
        );
        self.values.insert(name, (value, base));
    }

    /// Sets `name` to `total / base` (0 over an empty base).
    pub fn per(&mut self, name: &'static str, total: f64, base: u64) {
        self.set(name, ratio(total, base as f64), base);
    }

    /// Writes every listed per-layer metric into `out`, in
    /// `BENCHMARK.json` order, and each span name's count, total and self
    /// time into the detail line. A layer this workload does not exercise
    /// did no work here and reads 0 over a base of 0.
    pub fn emit(&self, out: &mut Outcome, workload: &str, spans: &Tracer) {
        let totals: Vec<String> = spans
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    t.count,
                    json_number(t.total_ns as f64 / 1e6),
                    json_number(t.self_ns as f64 / 1e6)
                )
            })
            .collect();
        out.note("spans", format!("{{{}}}", totals.join(", ")));
        let mut detail = Vec::new();
        for layer in PER_LAYER {
            let (value, base) = self.values.get(layer.name).copied().unwrap_or((0.0, 0));
            out.metrics.push(Metric {
                name: layer.name,
                value,
                unit: layer.unit,
            });
            if layer.traced_on.contains(&workload) || self.values.contains_key(layer.name) {
                let unchanged: Vec<String> = layer
                    .unchanged_on
                    .iter()
                    .map(|w| format!("\"{w}\""))
                    .collect();
                detail.push(format!(
                    "\"{}\": {{\"value\": {}, \"base\": {base}, \"moves\": \"{}\", \"unchanged_on\": [{}]}}",
                    layer.name,
                    json_number(value),
                    layer.moves,
                    unchanged.join(", ")
                ));
            }
        }
        out.note("layers", format!("{{{}}}", detail.join(", ")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
            detail: BTreeMap::new(),
        };
        assert_eq!(
            out.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    /// One block over `ops` of `wall_s` seconds and `cpu_s` CPU seconds.
    fn block(ops: Range<usize>, wall_s: f64, cpu_s: f64) -> Block {
        Block {
            ops,
            wall_s,
            cpu_s,
            steal_share: 0.0,
        }
    }

    #[test]
    fn failed_ops_count_as_attempted() {
        let mut t = Timed::default();
        for _ in 0..100 {
            t.op(Some(2.0), 1024);
        }
        t.op(None, 0);
        t.wall_s = 1.0;
        t.keep = 1.0;
        t.blocks = vec![block(0..101, 1.0, 0.3)];
        let mut out = Outcome::default();
        assert!(end_to_end(&mut out, &t, 0.1));
        assert_eq!((out.attempted, out.failed), (101, 1));
        let ops = out.metrics.iter().find(|m| m.name == "ops_per_s").unwrap();
        assert_eq!(ops.value, 100.0);
        // The failure is the slowest op: p90 (rank 91 of 101) is still real.
        let p90 = out
            .metrics
            .iter()
            .find(|m| m.name == "latency_p90_ms")
            .unwrap();
        assert_eq!(p90.value, 2.0);
        let kb = out
            .metrics
            .iter()
            .find(|m| m.name == "revealed_kb_per_op")
            .unwrap();
        assert_eq!(kb.value, 1.0);
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let mut t = Timed::default();
        for _ in 0..100 {
            t.op(Some(1.0), 1);
        }
        t.keep = 1.0;
        t.blocks = vec![block(0..100, 1.0, 0.1)];
        let mut out = Outcome::default();
        assert!(end_to_end(&mut out, &t, 0.1));
        let printed: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(printed, crate::layers::tests::listed("end_to_end"));
    }

    #[test]
    fn blocks_split_completions_at_the_marks() {
        let mark = |at_s, cpu_s| Mark {
            at_s,
            cpu_s,
            jiffies: (0, 0),
        };
        let marks = [mark(0.0, 0.0), mark(1.0, 0.5), mark(3.0, 1.5)];
        let b = blocks(&marks, 4);
        assert_eq!(b, [block(0..4, 1.0, 0.5), block(4..8, 2.0, 1.0)]);
    }

    #[test]
    fn kept_blocks_are_the_faster_half() {
        let mut t = Timed {
            keep: 0.5,
            ..Timed::default()
        };
        // Four blocks of 100 ops: two fast (1 ms per op), two slowed down
        // by a neighbour (3 ms per op).
        for (k, (ms, wall_s)) in [(3.0, 0.3), (1.0, 0.1), (3.0, 0.3), (1.0, 0.1)]
            .into_iter()
            .enumerate()
        {
            for _ in 0..100 {
                t.op(Some(ms), 0);
            }
            t.blocks.push(block(k * 100..(k + 1) * 100, wall_s, wall_s));
        }
        let kept = t.figures(&t.kept());
        assert_eq!((kept.blocks, kept.ops), (2, 200));
        assert!((kept.ops_per_s - 1000.0).abs() < 1e-9);
        assert!((kept.cpu_ms_per_op - 1.0).abs() < 1e-9);
        assert_eq!(kept.p90.map(|p| p.value), Some(1.0));
        let all: Vec<&Block> = t.blocks.iter().collect();
        assert_eq!(t.figures(&all).p90.map(|p| p.value), Some(3.0));
    }

    #[test]
    fn kept_blocks_widen_to_enough_ops() {
        let mut t = Timed {
            keep: 0.5,
            ..Timed::default()
        };
        for k in 0..8 {
            for _ in 0..50 {
                t.op(Some(1.0 + k as f64), 0);
            }
            t.blocks
                .push(block(k * 50..(k + 1) * 50, 1.0 + k as f64, 0.1));
        }
        // Half the blocks hold 200 ops, exactly enough.
        assert_eq!(t.kept().len(), 4);
        t.latency_ms.truncate(0);
        t.blocks.truncate(0);
        for k in 0..4 {
            for _ in 0..80 {
                t.op(Some(1.0), 0);
            }
            t.blocks
                .push(block(k * 80..(k + 1) * 80, 4.0 - k as f64, 0.1));
        }
        // The faster two blocks hold 160 ops: the next fastest is added.
        let kept = t.kept();
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|b| b.wall_s < 4.0));
    }

    #[test]
    fn too_few_samples_is_incomplete() {
        let mut t = Timed::default();
        t.op(Some(1.0), 0);
        t.wall_s = 1.0;
        t.keep = 1.0;
        t.blocks = vec![block(0..1, 1.0, 0.1)];
        assert!(!end_to_end(&mut Outcome::default(), &t, 0.1));
    }

    #[test]
    fn unexercised_layers_read_zero() {
        let mut layers = Layers::default();
        layers.per("packer.ms_per_op", 10.0, 4);
        let mut out = Outcome::default();
        layers.emit(&mut out, "reveal", &Tracer::new(std::time::Instant::now()));
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        let packer = out
            .metrics
            .iter()
            .find(|m| m.name == "packer.ms_per_op")
            .unwrap();
        assert_eq!(packer.value, 2.5);
        let hedges = out
            .metrics
            .iter()
            .find(|m| m.name == "router.hedges_per_op")
            .unwrap();
        assert_eq!(hedges.value, 0.0);
    }
}
