//! Verifier throughput benchmark, as one JSON line (BENCH_verifier.json).
//!
//! ```text
//! cargo run -p dexlego-bench --release --bin verifier \
//!     [-- --apps N --insns N --rounds N --repeats N --smoke]
//! ```
//!
//! Measures the verifier over a generated corpus: one pass cold, one warm
//! (every DEX a verify-cache hit, checked against the cold diagnostics),
//! and the repeated-verification corpus workload with the cache against
//! re-verifying every round from an empty cache. `--smoke` runs a reduced
//! corpus and asserts the cache invariants hold; `verify.sh` runs it on
//! every change.

fn main() {
    let mut apps = 12usize;
    let mut insns = 160usize;
    let mut rounds = 4u32;
    let mut repeats = 3u32;
    let mut smoke = false;
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
            other => panic!("unknown argument: {other}"),
        }
    }
    if smoke {
        apps = 4;
        insns = 80;
        rounds = 3;
        repeats = 2;
    }
    let r = dexlego_bench::verifier::run(apps, insns, rounds, repeats);
    println!("{}", dexlego_bench::verifier::format(&r));
    if smoke {
        eprintln!(
            "verifier smoke: {} methods, corpus {:.2}x, warm {:.2}x, {} hits / {} misses",
            r.methods,
            r.corpus_speedup(),
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
            r.warm_s <= r.cold_s,
            "warm pass slower than cold pass ({:.0}us > {:.0}us)",
            r.warm_s * 1e6,
            r.cold_s * 1e6
        );
        assert!(
            r.cache_hits > 0,
            "corpus workload produced no verify-cache hits"
        );
    }
}
