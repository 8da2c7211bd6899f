//! Interpreter fetch microbenchmark, as one JSON line (BENCH_interp.json).
//!
//! ```text
//! cargo run -p dexlego-bench --release --bin interp \
//!     [-- --iters N --repeats N --quick-smoke]
//! ```
//!
//! `--quick-smoke` runs a reduced workload and asserts the quickened fast
//! path is not slower than per-step decoding (used by `verify.sh`).

fn main() {
    let mut iters = 200_000i32;
    let mut repeats = 5u32;
    let mut quick_smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" | "--repeats" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| panic!("{arg} expects a value"));
                if arg == "--iters" {
                    iters = value.parse().expect("--iters expects a number");
                } else {
                    repeats = value.parse().expect("--repeats expects a number");
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
    let results = dexlego_bench::interp::run(iters, repeats);
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
