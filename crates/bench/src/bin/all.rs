//! Regenerates every table and figure.
//!
//! The functional experiments (Tables I–VII, Figure 5) are independent of
//! each other, so they run as named closures on the harness worker pool —
//! Figure 5 rides in Table II's closure because it consumes its results. The
//! two performance experiments (Figure 6, Table VIII) measure wall time and
//! would be skewed by concurrent load, so they run sequentially afterwards.
//! Output is printed in the paper's canonical order regardless of
//! completion order.

use dexlego_harness::{default_workers, parallel_map};

/// A functional experiment: its name and the function that prints it.
type Experiment = (&'static str, fn() -> String);

fn main() {
    let experiments: [Experiment; 6] = [
        ("table1", || {
            let (counts, cells) = dexlego_bench::table1::run();
            dexlego_bench::table1::format(&counts, &cells)
        }),
        ("table2+fig5", || {
            let t2 = dexlego_bench::table2::run();
            format!(
                "{}\n{}",
                dexlego_bench::table2::format(&t2),
                dexlego_bench::fig5::format(&dexlego_bench::fig5::run(&t2))
            )
        }),
        ("table4", || {
            dexlego_bench::table4::format(&dexlego_bench::table4::run())
        }),
        ("table5", || {
            dexlego_bench::table5::format(&dexlego_bench::table5::run())
        }),
        ("table6", || {
            dexlego_bench::table6::format(&dexlego_bench::table6::run())
        }),
        ("table7", || {
            dexlego_bench::table7::format(&dexlego_bench::table7::run())
        }),
    ];
    let outputs = parallel_map(experiments.to_vec(), default_workers(), |(_, run)| run());
    for ((name, _), output) in experiments.iter().zip(outputs) {
        match output {
            Ok(output) => println!("{output}"),
            Err(e) => panic!("{name} failed: {e}"),
        }
    }
    println!(
        "{}",
        dexlego_bench::fig6::format(&dexlego_bench::fig6::run())
    );
    println!(
        "{}",
        dexlego_bench::table8::format(&dexlego_bench::table8::run())
    );
}
