//! Verifier throughput benchmark, as one JSON line (BENCH_verifier.json).
//!
//! ```text
//! cargo run -p dexlego-bench --release --bin verifier \
//!     [-- --apps N --insns N --rounds N --repeats N --smoke --baseline]
//! ```
//!
//! The default mode measures the reference sequential engine against the
//! fast path (slab frames + whole-DEX verify cache) over a generated
//! corpus, differentially checking that both emit identical diagnostics.
//! `--baseline` measures only the reference engine (for pinning pre-
//! optimization numbers). `--smoke` runs a reduced corpus and asserts the
//! fast-path invariants hold; `verify.sh` runs it on every change.

fn main() {
    let mut apps = 12usize;
    let mut insns = 160usize;
    let mut rounds = 4u32;
    let mut repeats = 3u32;
    let mut smoke = false;
    let mut baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--apps" | "--insns" | "--rounds" | "--repeats" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| panic!("{arg} expects a value"));
                let parsed: u64 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("{arg} expects a number"));
                match arg.as_str() {
                    "--apps" => apps = parsed as usize,
                    "--insns" => insns = parsed as usize,
                    "--rounds" => rounds = parsed as u32,
                    _ => repeats = parsed as u32,
                }
            }
            "--smoke" => smoke = true,
            "--baseline" => baseline = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    if smoke {
        apps = 4;
        insns = 80;
        rounds = 3;
        repeats = 2;
    }
    if baseline {
        let (single_s, corpus_s, bench_insns) =
            dexlego_bench::verifier::run_baseline(apps, insns, rounds, repeats);
        println!(
            "{}",
            dexlego_harness::json::object(&[
                (
                    "experiment",
                    dexlego_harness::json::string("verifier_baseline")
                ),
                ("apps", apps.to_string()),
                ("insns", bench_insns.to_string()),
                ("rounds", rounds.to_string()),
                ("baseline_us", format!("{:.0}", single_s * 1e6)),
                ("corpus_baseline_us", format!("{:.0}", corpus_s * 1e6)),
                (
                    "baseline_insns_per_s",
                    format!("{:.0}", bench_insns as f64 / single_s.max(1e-9)),
                ),
            ])
        );
        return;
    }
    let r = dexlego_bench::verifier::run(apps, insns, rounds, repeats);
    println!("{}", dexlego_bench::verifier::format(&r));
    if smoke {
        eprintln!(
            "verifier smoke: {} methods, corpus {:.2}x, cold {:.2}x, warm {:.2}x, {} hits / {} misses",
            r.methods,
            r.corpus_speedup(),
            r.cold_speedup(),
            r.warm_speedup(),
            r.cache_hits,
            r.cache_misses
        );
        // The corpus workload re-verifies every DEX each round; with the
        // cache only the first round pays, so the floor is conservative
        // even on one core.
        assert!(
            r.corpus_speedup() >= 1.2,
            "corpus workload speedup regressed: {:.2}x < 1.2x",
            r.corpus_speedup()
        );
        // A warm pass is pure cache hits and must beat verifying cold.
        assert!(
            r.fast_warm_s <= r.fast_cold_s,
            "warm pass slower than cold pass ({:.0}us > {:.0}us)",
            r.fast_warm_s * 1e6,
            r.fast_cold_s * 1e6
        );
        assert!(
            r.cache_hits > 0,
            "corpus workload produced no verify-cache hits"
        );
    }
}
