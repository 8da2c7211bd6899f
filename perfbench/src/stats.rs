//! Statistics helpers: nearest-rank percentiles that know when they are
//! trustworthy, and process CPU time and peak memory read from `/proc`.

use std::fs;
use std::time::Instant;

/// Latency recorded for an op that failed or was refused: it misses every
/// latency limit, so it sorts above every real sample.
pub const FAILED: f64 = f64::INFINITY;

/// Samples that must lie strictly beyond a percentile before it is
/// reported: fewer, and the value is one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples rank strictly beyond it.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the smallest
/// sample with at least `q` of the samples at or below it. `None` when
/// fewer than [`MIN_BEYOND`] samples rank beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} out of (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    (n > 0 && beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the base is empty (the base is always printed
/// next to the ratio, so an empty base stays visible).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture it exports to user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used, all threads
/// included (exited threads too).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_s(&stat).expect("/proc/self/stat has utime and stime")
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") / 1024.0
}

/// A sample of the clocks blocks are cut from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// Seconds since the start of the measured phase.
    pub at_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// System-wide `(total, steal)` jiffies.
    pub jiffies: (u64, u64),
}

impl Mark {
    /// Samples now, relative to `t0`.
    pub fn take(t0: Instant) -> Mark {
        Mark {
            at_s: t0.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s(),
            jiffies: system_jiffies(),
        }
    }
}

/// Numbers the ops the client completes and takes a [`Mark`] after every
/// `size`-th, so the measured phase splits into blocks of `size`
/// consecutive completions.
#[derive(Debug)]
pub struct BlockClock {
    t0: Instant,
    size: usize,
    /// Completions so far.
    done: usize,
    /// The start of the phase, then the end of each finished block.
    marks: Vec<Mark>,
}

impl BlockClock {
    /// Starts the clock now, with blocks of `size` completions.
    pub fn start(size: usize) -> BlockClock {
        assert!(size > 0, "empty blocks");
        let t0 = Instant::now();
        BlockClock {
            t0,
            size,
            done: 0,
            marks: vec![Mark::take(t0)],
        }
    }

    /// When the measured phase started.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Counts one completed op.
    pub fn complete(&mut self) {
        self.done += 1;
        if self.done.is_multiple_of(self.size) {
            self.marks.push(Mark::take(self.t0));
        }
    }

    /// The marks: the start of the phase, then the end of each block.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }
}

/// System-wide `(total, steal)` jiffies from `/proc/stat`: the share of
/// time the hypervisor ran someone else while this machine wanted to run
/// explains wall-time swings that CPU time does not show.
pub fn system_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    parse_system_jiffies(&stat).expect("/proc/stat has a cpu line")
}

/// Share of system time stolen between two `(total, steal)` samples.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    ratio(
        to.1.saturating_sub(from.1) as f64,
        to.0.saturating_sub(from.0) as f64,
    )
}

fn parse_system_jiffies(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3 (state).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, so 11 and 12 after field 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&samples, 0.5).expect("50 beyond");
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&samples, 0.9).expect("10 beyond");
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // ceil(0.9 * 99) = 90, leaving 9 beyond: not reported.
        assert_eq!(percentile(&samples, 0.9), None);
        assert!(percentile(&samples, 0.5).is_some());
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
        assert!(percentile(&[1.0; 20], 0.5).is_some());
    }

    #[test]
    fn failed_ops_miss_every_limit() {
        // 30 fast ops and 20 failures: the median is still a real sample,
        // but p90 lands on a failure.
        let mut samples = vec![1.0; 30];
        samples.extend([FAILED; 20]);
        assert_eq!(percentile(&samples, 0.5).map(|p| p.value), Some(1.0));
        let mut heavy = vec![1.0; 80];
        heavy.extend([FAILED; 20]);
        assert_eq!(percentile(&heavy, 0.9).map(|p| p.value), Some(FAILED));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn parses_proc_stat_with_spaces_in_the_name() {
        let stat = "4242 (perf bench) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_s(stat), Some(3.0));
        assert_eq!(parse_cpu_s("garbage"), None);
    }

    #[test]
    fn parses_system_steal() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n";
        assert_eq!(parse_system_jiffies(stat), Some((1000, 35)));
        assert_eq!(parse_system_jiffies("intr 1 2\n"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn block_clock_marks_every_full_block() {
        let mut clock = BlockClock::start(3);
        for _ in 0..7 {
            clock.complete();
        }
        let marks = clock.marks();
        // The start, then after completions 3 and 6; the 7th is in no block.
        assert_eq!(marks.len(), 3);
        assert!(marks.windows(2).all(|w| w[0].at_s <= w[1].at_s));
    }

    #[test]
    fn live_process_readings_are_sane() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
