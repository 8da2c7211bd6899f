//! Interpreter fetch microbenchmark, as one JSON line (BENCH_interp.json).
//!
//! ```text
//! cargo run -p dexlego-bench --release --bin interp \
//!     [-- --iters N --repeats N --filter PATTERN --quick-smoke]
//! ```
//!
//! `--filter` restricts the run to workloads whose name matches the given
//! pattern (literal chars, `.`, `*`, `^`, `$` — see `dexlego_bench::filter`).
//! `--quick-smoke` runs a reduced workload and asserts the quickened fast
//! path is not slower than per-step decoding (used by `verify.sh`).

use dexlego_bench::filter::Pattern;

fn main() {
    let mut iters = 200_000i32;
    let mut repeats = 5u32;
    let mut quick_smoke = false;
    let mut filter: Option<Pattern> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" | "--repeats" | "--filter" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| panic!("{arg} expects a value"));
                match arg.as_str() {
                    "--iters" => iters = value.parse().expect("--iters expects a number"),
                    "--repeats" => repeats = value.parse().expect("--repeats expects a number"),
                    _ => {
                        filter =
                            Some(Pattern::new(&value).unwrap_or_else(|e| panic!("--filter: {e}")));
                    }
                }
            }
            "--quick-smoke" => quick_smoke = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    if quick_smoke {
        iters = 20_000;
        repeats = 3;
    }
    let results = dexlego_bench::interp::run_filtered(iters, repeats, filter.as_ref());
    assert!(!results.is_empty(), "--filter matched no workload");
    println!("{}", dexlego_bench::interp::format(&results));
    if quick_smoke {
        for r in &results {
            eprintln!(
                "interp quick-smoke: {} quickened {:.2}x vs per-step",
                r.name,
                r.quick_speedup()
            );
            assert!(
                r.quick_speedup() >= 1.0,
                "{}: quickened path slower than per-step ({:.2}x)",
                r.name,
                r.quick_speedup()
            );
        }
    }
}
