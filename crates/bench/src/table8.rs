//! Table VIII: application launch time with and without DexLego, mean and
//! standard deviation over 30 launches of three popular-app stand-ins.
//!
//! The launches alternate between the two configurations, one of each per
//! round, so host drift during a run hits both alike; the slowdown is the
//! ratio of the two medians, which drops the launches a stall landed in.

use std::time::Instant;

use dexlego_core::JitCollector;
use dexlego_droidbench::appgen::{generate, AppSpec};
use dexlego_runtime::class::SigKey;
use dexlego_runtime::observer::NullObserver;
use dexlego_runtime::{Runtime, RuntimeObserver, Slot};

use crate::stats::median;

/// The paper's three applications with stand-in code sizes (launch cost is
/// dominated by class initialisation and `onCreate` work).
pub const APPS: [(&str, &str, usize); 3] = [
    ("Snapchat", "9.43.0.0", 24_000),
    ("Instagram", "9.7.0", 18_000),
    ("WhatsApp", "2.16.310", 7_000),
];

/// Launches per configuration.
pub const LAUNCHES: usize = 30;

/// One row of Table VIII.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application name.
    pub app: &'static str,
    /// Version.
    pub version: &'static str,
    /// Launch times (ms) on the unmodified runtime, in launch order.
    pub original: Vec<f64>,
    /// Launch times (ms) with DexLego collecting, in launch order.
    pub dexlego: Vec<f64>,
}

impl Row {
    /// Median DexLego launch time over the median unmodified one.
    pub fn slowdown(&self) -> f64 {
        median(&self.dexlego) / median(&self.original).max(1e-9)
    }
}

fn mean_std(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// One cold launch: fresh runtime, fresh linking, `onCreate`.
fn launch_ms(dex: &dexlego_dex::DexFile, entry: &str, collected: bool) -> f64 {
    let mut rt = Runtime::new();
    let mut collector = JitCollector::new();
    let mut null = NullObserver;
    let obs: &mut dyn RuntimeObserver = if collected { &mut collector } else { &mut null };
    let start = Instant::now();
    rt.load_dex_observed(dex, "app", obs).expect("loads");
    let activity = rt.new_instance(obs, entry).expect("instantiates");
    let class = rt.find_class(entry).expect("linked");
    if let Some(on_create) =
        rt.resolve_method(class, &SigKey::new("onCreate", "(Landroid/os/Bundle;)V"))
    {
        let _ = rt.call_method(obs, on_create, &[Slot::of(activity), Slot::of(0)]);
    }
    start.elapsed().as_secs_f64() * 1000.0
}

/// Runs Table VIII: per app, [`LAUNCHES`] rounds of one unmodified and one
/// collected launch, in alternating order.
pub fn run() -> Vec<Row> {
    APPS.iter()
        .map(|&(app, version, size)| {
            let generated = generate(&AppSpec::plain_profile(
                &format!("popular/{}", app.to_lowercase()),
                size,
            ));
            let (dex, entry) = (&generated.dex, &generated.entry);
            let mut row = Row {
                app,
                version,
                original: Vec::with_capacity(LAUNCHES),
                dexlego: Vec::with_capacity(LAUNCHES),
            };
            for round in 0..LAUNCHES {
                for collected in [round % 2 == 1, round % 2 == 0] {
                    let ms = launch_ms(dex, entry, collected);
                    if collected {
                        row.dexlego.push(ms);
                    } else {
                        row.original.push(ms);
                    }
                }
            }
            row
        })
        .collect()
}

/// Formats Table VIII.
pub fn format(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table VIII — launch time (ms), {LAUNCHES} alternating rounds\n"
    ));
    out.push_str(
        "app       | version   | original mean/std | DexLego mean/std | slowdown (median)\n",
    );
    for r in rows {
        let (original, dexlego) = (mean_std(&r.original), mean_std(&r.dexlego));
        out.push_str(&format!(
            "{:<9} | {:<9} | {:>8.2} / {:<6.2} | {:>8.2} / {:<6.2} | {:>5.2}x\n",
            r.app,
            r.version,
            original.0,
            original.1,
            dexlego.0,
            dexlego.1,
            r.slowdown(),
        ));
    }
    out
}
