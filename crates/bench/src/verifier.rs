//! Verifier throughput benchmark: the reference sequential fixpoint
//! versus the fast path (slab frames, whole-DEX verify cache), reported as
//! verified instructions per second.
//!
//! Three measurements per corpus:
//!
//! * **baseline** — `VerifyOptions::sequential_reference()`, the
//!   pre-optimization engine, against an empty verify cache;
//! * **fast cold** — the fast engine against an empty verify cache;
//! * **fast warm** — the fast engine re-verifying the same corpus, so
//!   every DEX is served from the cache.
//!
//! The headline number is the *corpus workload*: every DEX verified
//! `rounds` times, modelling the pipeline's verification gate plus the
//! taint tools each re-verifying the same revealed DEX. The fast path runs
//! the workload against one shared cache; the baseline re-verifies every
//! round from an empty cache, exactly as the pipeline did before the
//! verify-once change. The reference engine's results are cached under
//! their own key, so every baseline pass clears the cache first, outside
//! the timed region.
//!
//! Every fast-path run is differentially checked against the baseline:
//! diagnostics must match exactly, method by method, or the bench panics.

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
    /// Best-of-N seconds for one baseline corpus pass.
    pub baseline_s: f64,
    /// Best-of-N seconds for one fast pass against an empty cache.
    pub fast_cold_s: f64,
    /// Best-of-N seconds for one fast pass against a warm cache.
    pub fast_warm_s: f64,
    /// Seconds for `rounds` baseline passes (each from an empty cache).
    pub corpus_baseline_s: f64,
    /// Seconds for `rounds` fast passes sharing one cache.
    pub corpus_fast_s: f64,
    /// Verify-cache hits across the fast corpus workload.
    pub cache_hits: u64,
    /// Verify-cache misses across the fast corpus workload.
    pub cache_misses: u64,
}

impl VerifierBenchResult {
    /// Fast-cold speedup over the baseline engine (algorithmic win only).
    pub fn cold_speedup(&self) -> f64 {
        self.baseline_s / self.fast_cold_s.max(1e-9)
    }

    /// Fast-warm speedup over the baseline engine (pure cache hits).
    pub fn warm_speedup(&self) -> f64 {
        self.baseline_s / self.fast_warm_s.max(1e-9)
    }

    /// Corpus-workload speedup: `rounds` baseline passes versus `rounds`
    /// fast passes sharing the verify cache. The headline number.
    pub fn corpus_speedup(&self) -> f64 {
        self.corpus_baseline_s / self.corpus_fast_s.max(1e-9)
    }

    /// Baseline verified instructions per second (single pass).
    pub fn baseline_insns_per_s(&self) -> f64 {
        self.insns as f64 / self.baseline_s.max(1e-9)
    }

    /// Fast-path corpus-workload instructions per second.
    pub fn corpus_fast_insns_per_s(&self) -> f64 {
        (self.insns * u64::from(self.rounds)) as f64 / self.corpus_fast_s.max(1e-9)
    }
}

/// Builds the corpus: generated apps with realistic class/method shapes.
fn corpus(apps: usize, base_insns: usize) -> Vec<DexFile> {
    dexlego_droidbench::appgen::corpus_apps(apps, base_insns)
        .into_iter()
        .map(|(_, app)| app.dex)
        .collect()
}

/// One corpus pass under `options`; returns the typed results and seconds.
fn pass(dexes: &[DexFile], options: &VerifyOptions) -> (Vec<TypedDex>, f64) {
    let start = Instant::now();
    let typed: Vec<TypedDex> = dexes.iter().map(|d| verify_dex_typed(d, options)).collect();
    (typed, start.elapsed().as_secs_f64())
}

/// One corpus pass from an empty verify cache (the clear is not timed).
fn cold_pass(dexes: &[DexFile], options: &VerifyOptions) -> (Vec<TypedDex>, f64) {
    clear_verify_cache();
    pass(dexes, options)
}

/// Seconds for `rounds` cold passes under `options`.
fn cold_rounds(dexes: &[DexFile], options: &VerifyOptions, rounds: u32) -> f64 {
    (0..rounds).map(|_| cold_pass(dexes, options).1).sum()
}

/// Panics unless both engines produced identical diagnostics per DEX.
fn assert_identical(baseline: &[TypedDex], fast: &[TypedDex]) {
    assert_eq!(baseline.len(), fast.len());
    for (i, (b, f)) in baseline.iter().zip(fast).enumerate() {
        assert_eq!(
            b.diagnostics, f.diagnostics,
            "app {i}: fast-path diagnostics diverge from the reference engine"
        );
    }
}

/// Runs the full measurement over `apps` generated apps of `base_insns`
/// baseline size: single-pass baseline/cold/warm (best of `repeats`), then
/// the `rounds`-pass corpus workload under both engines.
pub fn run(apps: usize, base_insns: usize, rounds: u32, repeats: u32) -> VerifierBenchResult {
    let dexes = corpus(apps, base_insns);
    let baseline_opts = VerifyOptions::default().sequential_reference();
    let fast_opts = VerifyOptions::default();

    // Differential check before any timing: the two engines must agree.
    let (base_typed, _) = cold_pass(&dexes, &baseline_opts);
    let (fast_typed, _) = cold_pass(&dexes, &fast_opts);
    assert_identical(&base_typed, &fast_typed);
    let methods: usize = base_typed.iter().map(|t| t.methods.len()).sum();
    let insns: u64 = base_typed.iter().map(|t| t.insn_count() as u64).sum();

    let mut baseline_s = f64::MAX;
    let mut fast_cold_s = f64::MAX;
    let mut fast_warm_s = f64::MAX;
    for _ in 0..repeats.max(1) {
        baseline_s = baseline_s.min(cold_pass(&dexes, &baseline_opts).1);
        fast_cold_s = fast_cold_s.min(cold_pass(&dexes, &fast_opts).1);
        // The cache is now warm from the cold pass.
        fast_warm_s = fast_warm_s.min(pass(&dexes, &fast_opts).1);
    }

    // Corpus workload: every DEX verified `rounds` times, the shape of the
    // pipeline gate plus downstream taint tools before verify-once. Both
    // sides are best-of-`repeats`; each fast repeat starts cold so a
    // measurement is always one cold round plus `rounds - 1` warm ones.
    let mut corpus_baseline_s = f64::MAX;
    let mut corpus_fast_s = f64::MAX;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for _ in 0..repeats.max(1) {
        corpus_baseline_s = corpus_baseline_s.min(cold_rounds(&dexes, &baseline_opts, rounds));

        clear_verify_cache();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut s = 0.0;
        for _ in 0..rounds {
            let (typed, secs) = pass(&dexes, &fast_opts);
            s += secs;
            for t in &typed {
                hits += t.cache_hits;
                misses += t.cache_misses;
            }
        }
        if s < corpus_fast_s {
            corpus_fast_s = s;
            cache_hits = hits;
            cache_misses = misses;
        }
    }

    VerifierBenchResult {
        apps: dexes.len(),
        methods,
        insns,
        rounds,
        baseline_s,
        fast_cold_s,
        fast_warm_s,
        corpus_baseline_s,
        corpus_fast_s,
        cache_hits,
        cache_misses,
    }
}

/// Baseline-only measurement: the reference sequential engine, single
/// pass and corpus workload, with no fast path involved. Used to pin the
/// pre-optimization numbers independently of the comparison run.
pub fn run_baseline(apps: usize, base_insns: usize, rounds: u32, repeats: u32) -> (f64, f64, u64) {
    let dexes = corpus(apps, base_insns);
    let baseline_opts = VerifyOptions::default().sequential_reference();
    let (typed, _) = cold_pass(&dexes, &baseline_opts);
    let insns: u64 = typed.iter().map(|t| t.insn_count() as u64).sum();
    let mut single_s = f64::MAX;
    for _ in 0..repeats.max(1) {
        single_s = single_s.min(cold_pass(&dexes, &baseline_opts).1);
    }
    (single_s, cold_rounds(&dexes, &baseline_opts, rounds), insns)
}

/// Formats the results as one JSON object (BENCH_verifier.json).
pub fn format(r: &VerifierBenchResult) -> String {
    json::object(&[
        ("experiment", json::string("verifier")),
        ("apps", r.apps.to_string()),
        ("methods", r.methods.to_string()),
        ("insns", r.insns.to_string()),
        ("rounds", r.rounds.to_string()),
        ("baseline_us", format!("{:.0}", r.baseline_s * 1e6)),
        ("fast_cold_us", format!("{:.0}", r.fast_cold_s * 1e6)),
        ("fast_warm_us", format!("{:.0}", r.fast_warm_s * 1e6)),
        (
            "corpus_baseline_us",
            format!("{:.0}", r.corpus_baseline_s * 1e6),
        ),
        ("corpus_fast_us", format!("{:.0}", r.corpus_fast_s * 1e6)),
        (
            "baseline_insns_per_s",
            format!("{:.0}", r.baseline_insns_per_s()),
        ),
        (
            "corpus_fast_insns_per_s",
            format!("{:.0}", r.corpus_fast_insns_per_s()),
        ),
        ("cold_speedup", format!("{:.2}", r.cold_speedup())),
        ("warm_speedup", format!("{:.2}", r.warm_speedup())),
        ("corpus_speedup", format!("{:.2}", r.corpus_speedup())),
        ("cache_hits", r.cache_hits.to_string()),
        ("cache_misses", r.cache_misses.to_string()),
    ])
}
