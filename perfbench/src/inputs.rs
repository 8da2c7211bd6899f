//! Seeded input generation. Every input the program sees — app DEX
//! bytes, packer choice, fuzz seeds and request order — is drawn here from
//! the run's `--seed`; the program receives only the generated bytes and
//! requests.

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::{generate, AppSpec};
use dexlego_harness::all_packers;
use dexlego_packer::PackerId;
use dexlego_service::ExtractRequest;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Instruction counts of the paper's four AOSP apps in Table I
/// (HTMLViewer, Calculator, Calendar, Contacts). These four counts are the
/// only measured app sizes the benchmark has.
pub const TABLE_ONE: [f64; 4] = [217.0, 2_507.0, 78_598.0, 103_602.0];
/// Apps per size schedule: Table I's four counts and the three geometric
/// midpoints between neighbours.
pub const STRATA: usize = 2 * TABLE_ONE.len() - 1;

/// App size at quantile `u` of the size distribution. Table I's four
/// counts sit at quantiles 0, 1/3, 2/3 and 1; between two neighbours the
/// size grows log-linearly. The interpolation is an assumption, not a
/// measurement: it only fills the gaps between the four measured apps.
pub fn size_quantile(u: f64) -> f64 {
    let gaps = TABLE_ONE.len() - 1;
    let at = u.clamp(0.0, 1.0) * gaps as f64;
    let i = (at as usize).min(gaps - 1);
    TABLE_ONE[i] * (TABLE_ONE[i + 1] / TABLE_ONE[i]).powf(at - i as f64)
}

/// The [`STRATA`] sizes at quantiles `i / (STRATA - 1)` — Table I's four
/// counts and the midpoints between them — each jittered by up to ±3%
/// and returned in seeded order. Taking every stratum once, instead of
/// independent draws, keeps one seed's workload as heavy as another's.
pub fn size_schedule(rng: &mut Rng) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..STRATA)
        .map(|i| jittered_size(i as f64 / (STRATA - 1) as f64, rng))
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}

/// The size at quantile `u`, jittered by up to ±3%.
fn jittered_size(u: f64, rng: &mut Rng) -> usize {
    let jitter = 0.97 + 0.06 * rng.unit();
    let (min, max) = (TABLE_ONE[0], TABLE_ONE[TABLE_ONE.len() - 1]);
    (size_quantile(u) * jitter).clamp(min, max) as usize
}

/// `count` sizes at the midpoints of `count` equal strata of the size
/// distribution's lower `max_u` share, each jittered by up to ±3%, in
/// seeded order. A finer grid than [`size_schedule`] gives the hot sets a
/// latency distribution without large steps, so their percentiles do not
/// jump between neighbouring apps from run to run.
pub fn hot_sizes(count: usize, max_u: f64, rng: &mut Rng) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..count)
        .map(|i| jittered_size((i as f64 + 0.5) / count as f64 * max_u, rng))
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}

/// App size class, for reporting the workload's mix.
pub fn size_class(insns: usize) -> &'static str {
    match insns {
        0..=999 => "small",
        1000..=9999 => "medium",
        _ => "large",
    }
}

/// A generated app: the bytes the program receives.
#[derive(Debug, Clone)]
pub struct App {
    /// The app's DEX file.
    pub dex: Vec<u8>,
    /// Entry activity descriptor.
    pub entry: String,
    /// Instructions in the app.
    pub insns: usize,
}

/// Callback events fired per fuzz seed.
pub const EVENTS: usize = 2;

/// Generates a fully reachable app of about `insns` instructions under a
/// package unique to `tag`, with a seeded number of UI callbacks. An app
/// never registers more callbacks than one fuzz seed fires events: DexLego
/// reveals only code that ran, so a never-fired listener's body is absent
/// from the revealed DEX and the conformance check (which replays the
/// original's event stream) would flag the coverage gap, not an
/// extraction error.
pub fn generate_app(tag: &str, insns: usize, rng: &mut Rng) -> App {
    let mut spec = AppSpec::plain_profile(&format!("perf/{tag}"), insns);
    spec.callbacks = 1 + rng.below(EVENTS);
    let app = generate(&spec);
    App {
        dex: write_dex(&app.dex).expect("generated apps serialise"),
        entry: app.entry,
        insns: app.insn_count,
    }
}

/// Display name of a packer configuration (`plain` for none).
pub fn packer_name(packer: Option<PackerId>) -> &'static str {
    packer.map_or("plain", |id| id.profile().name)
}

/// A seeded packer configuration: plain, one of the five Table I packers,
/// or Advanced.
pub fn pick_packer(rng: &mut Rng) -> Option<PackerId> {
    let packers = all_packers();
    packers[rng.below(packers.len())]
}

/// A seeded packed configuration (never plain). A plain app reveals to
/// about half the DEX of a packed one, so letting the seed choose plain
/// for a hot entry would change what a whole run serves.
pub fn pick_packed(rng: &mut Rng) -> Option<PackerId> {
    let packers = all_packers();
    packers[1 + rng.below(packers.len() - 1)]
}

/// The request for one (app, packer) job: conformance checking on, one
/// seeded fuzz run of [`EVENTS`] callback events.
pub fn request(app: &App, packer: Option<PackerId>, fuzz_seed: u64) -> ExtractRequest {
    let mut req = ExtractRequest::new(app.dex.clone(), &app.entry);
    req.packer = packer.map(|id| id.profile().name.to_owned());
    req.seeds = vec![fuzz_seed];
    req.events = EVENTS;
    req.conformance = true;
    req
}

/// A fuzz seed: small and never zero.
pub fn fuzz_seed(rng: &mut Rng) -> u64 {
    1 + rng.next_u64() % 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn schedule_holds_table_one_counts_and_midpoints() {
        let mut sizes = size_schedule(&mut Rng::new(3, 0));
        sizes.sort_unstable();
        assert_eq!(sizes.len(), STRATA);
        for (i, &count) in TABLE_ONE.iter().enumerate() {
            let size = sizes[2 * i] as f64;
            assert!((size / count - 1.0).abs() <= 0.03, "{sizes:?}");
        }
        for (i, pair) in TABLE_ONE.windows(2).enumerate() {
            let midpoint = (pair[0] * pair[1]).sqrt();
            let size = sizes[2 * i + 1] as f64;
            assert!((size / midpoint - 1.0).abs() <= 0.03, "{sizes:?}");
        }
    }

    #[test]
    fn hot_sizes_stay_under_the_cap() {
        let sizes = hot_sizes(33, 2.0 / 3.0, &mut Rng::new(5, 0));
        assert_eq!(sizes.len(), 33);
        let cap = (TABLE_ONE[2] * 1.03) as usize;
        assert!(sizes.iter().all(|&s| (217..=cap).contains(&s)), "{sizes:?}");
    }

    #[test]
    fn quantiles_pass_through_table_one() {
        for (i, &count) in TABLE_ONE.iter().enumerate() {
            let u = i as f64 / (TABLE_ONE.len() - 1) as f64;
            assert!((size_quantile(u) / count - 1.0).abs() < 1e-9);
        }
        assert!(size_quantile(0.5) > TABLE_ONE[1] && size_quantile(0.5) < TABLE_ONE[2]);
    }

    #[test]
    fn same_seed_same_app_bytes() {
        let a = generate_app("t/a", 300, &mut Rng::new(1, 0));
        let b = generate_app("t/a", 300, &mut Rng::new(1, 0));
        assert_eq!(a.dex, b.dex);
        assert_eq!(size_class(a.insns), "small");
    }
}
