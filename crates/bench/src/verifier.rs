//! Verifier throughput benchmark: the one fixpoint engine verifying a
//! generated corpus cold and warm, reported as verified instructions per
//! second.
//!
//! Three measurements per corpus:
//!
//! * **cold** — one pass against an empty verify cache;
//! * **warm** — the same corpus re-verified, so every DEX is served from
//!   the cache;
//! * **corpus workload** — every DEX verified `rounds` times, modelling
//!   the pipeline's verification gate plus the taint tools each
//!   re-verifying the same revealed DEX: once against one shared cache,
//!   and once re-verifying every round from an empty cache, as the
//!   pipeline did before the verify-once change.
//!
//! Before any timing, a warm pass is checked against the cold one: every
//! DEX's cache-hit diagnostics must equal its fresh ones, or the bench
//! panics.

use std::time::Instant;

use dexlego_dex::DexFile;
use dexlego_harness::json;
use dexlego_verifier::{clear_verify_cache, verify_dex_typed, TypedDex, VerifyOptions};

/// Everything measured over one corpus.
#[derive(Debug, Clone)]
pub struct VerifierBenchResult {
    /// Apps in the corpus.
    pub apps: usize,
    /// Method bodies verified per corpus pass.
    pub methods: usize,
    /// Instructions verified per corpus pass.
    pub insns: u64,
    /// Rounds per corpus-workload measurement.
    pub rounds: u32,
    /// Best-of-N seconds for one pass against an empty cache.
    pub cold_s: f64,
    /// Best-of-N seconds for one pass against a warm cache.
    pub warm_s: f64,
    /// Seconds for `rounds` passes, each from an empty cache.
    pub corpus_uncached_s: f64,
    /// Seconds for `rounds` passes sharing one cache.
    pub corpus_cached_s: f64,
    /// Verify-cache hits across the cached corpus workload.
    pub cache_hits: u64,
    /// Verify-cache misses across the cached corpus workload.
    pub cache_misses: u64,
}

impl VerifierBenchResult {
    /// Warm-pass speedup over the cold pass (pure cache hits).
    pub fn warm_speedup(&self) -> f64 {
        self.cold_s / self.warm_s.max(1e-9)
    }

    /// Corpus-workload speedup: `rounds` passes from an empty cache versus
    /// `rounds` passes sharing the verify cache. The headline number.
    pub fn corpus_speedup(&self) -> f64 {
        self.corpus_uncached_s / self.corpus_cached_s.max(1e-9)
    }

    /// Cold verified instructions per second (single pass).
    pub fn cold_insns_per_s(&self) -> f64 {
        self.insns as f64 / self.cold_s.max(1e-9)
    }

    /// Cached corpus-workload instructions per second.
    pub fn corpus_cached_insns_per_s(&self) -> f64 {
        (self.insns * u64::from(self.rounds)) as f64 / self.corpus_cached_s.max(1e-9)
    }
}

/// Builds the corpus: generated apps with realistic class/method shapes.
fn corpus(apps: usize, base_insns: usize) -> Vec<DexFile> {
    dexlego_droidbench::appgen::corpus_apps(apps, base_insns)
        .into_iter()
        .map(|(_, app)| app.dex)
        .collect()
}

/// One corpus pass; returns the typed results and seconds.
fn pass(dexes: &[DexFile]) -> (Vec<TypedDex>, f64) {
    let options = VerifyOptions::default();
    let start = Instant::now();
    let typed: Vec<TypedDex> = dexes
        .iter()
        .map(|d| verify_dex_typed(d, &options))
        .collect();
    (typed, start.elapsed().as_secs_f64())
}

/// One corpus pass from an empty verify cache (the clear is not timed).
fn cold_pass(dexes: &[DexFile]) -> (Vec<TypedDex>, f64) {
    clear_verify_cache();
    pass(dexes)
}

/// Runs the full measurement over `apps` generated apps of `base_insns`
/// baseline size: single-pass cold/warm (best of `repeats`), then the
/// `rounds`-pass corpus workload with and without the cache.
pub fn run(apps: usize, base_insns: usize, rounds: u32, repeats: u32) -> VerifierBenchResult {
    let dexes = corpus(apps, base_insns);

    // Before any timing: every cache hit must reproduce the fresh result.
    let (cold, _) = cold_pass(&dexes);
    let (warm, _) = pass(&dexes);
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert!(w.cache_hits > 0 || c.methods.is_empty(), "app {i}: no hit");
        assert_eq!(
            c.diagnostics, w.diagnostics,
            "app {i}: cache-hit diagnostics diverge from the fresh ones"
        );
    }
    let methods: usize = cold.iter().map(|t| t.methods.len()).sum();
    let insns: u64 = cold.iter().map(|t| t.insn_count() as u64).sum();

    let mut cold_s = f64::MAX;
    let mut warm_s = f64::MAX;
    for _ in 0..repeats.max(1) {
        cold_s = cold_s.min(cold_pass(&dexes).1);
        // The cache is now warm from the cold pass.
        warm_s = warm_s.min(pass(&dexes).1);
    }

    // Corpus workload, both sides best-of-`repeats`. Each cached repeat
    // starts cold, so a measurement is one cold round plus `rounds - 1`
    // warm ones.
    let mut corpus_uncached_s = f64::MAX;
    let mut corpus_cached_s = f64::MAX;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for _ in 0..repeats.max(1) {
        let uncached: f64 = (0..rounds).map(|_| cold_pass(&dexes).1).sum();
        corpus_uncached_s = corpus_uncached_s.min(uncached);

        clear_verify_cache();
        let (mut hits, mut misses, mut s) = (0u64, 0u64, 0.0);
        for _ in 0..rounds {
            let (typed, secs) = pass(&dexes);
            s += secs;
            for t in &typed {
                hits += t.cache_hits;
                misses += t.cache_misses;
            }
        }
        if s < corpus_cached_s {
            corpus_cached_s = s;
            cache_hits = hits;
            cache_misses = misses;
        }
    }

    VerifierBenchResult {
        apps: dexes.len(),
        methods,
        insns,
        rounds,
        cold_s,
        warm_s,
        corpus_uncached_s,
        corpus_cached_s,
        cache_hits,
        cache_misses,
    }
}

/// Formats the results as one JSON object (BENCH_verifier.json).
pub fn format(r: &VerifierBenchResult) -> String {
    json::object(&[
        ("experiment", json::string("verifier")),
        ("apps", r.apps.to_string()),
        ("methods", r.methods.to_string()),
        ("insns", r.insns.to_string()),
        ("rounds", r.rounds.to_string()),
        ("cold_us", format!("{:.0}", r.cold_s * 1e6)),
        ("warm_us", format!("{:.0}", r.warm_s * 1e6)),
        (
            "corpus_uncached_us",
            format!("{:.0}", r.corpus_uncached_s * 1e6),
        ),
        (
            "corpus_cached_us",
            format!("{:.0}", r.corpus_cached_s * 1e6),
        ),
        ("cold_insns_per_s", format!("{:.0}", r.cold_insns_per_s())),
        (
            "corpus_cached_insns_per_s",
            format!("{:.0}", r.corpus_cached_insns_per_s()),
        ),
        ("warm_speedup", format!("{:.2}", r.warm_speedup())),
        ("corpus_speedup", format!("{:.2}", r.corpus_speedup())),
        ("cache_hits", r.cache_hits.to_string()),
        ("cache_misses", r.cache_misses.to_string()),
    ])
}
