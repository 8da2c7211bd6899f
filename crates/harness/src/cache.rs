//! Cache-aware job execution through the content-addressed result store.
//!
//! A [`JobSpec`] is pure data: the original DEX, the packer profile, and
//! the driving parameters fully determine the revealed DEX. [`input_key`]
//! folds the DEX bytes and all the rest (plus the extractor version) into
//! a [`dexlego_core::digest::InputDigest`]; [`job_key`] applies it to a
//! parsed job, and a daemon to the bytes a request arrived with.
//! [`execute_job_cached`] turns
//! every extraction into lookup-or-fill against a shared [`Store`]:
//! concurrent workers extracting the same key run the pipeline exactly
//! once, and a second batch run over the same corpus is near-free.
//!
//! Jobs with registered tamper natives are never cached: the natives are
//! arbitrary code, so their effect on the collection is not captured by
//! the input digest.

use std::time::Instant;

use dexlego_core::digest::InputDigest;
use dexlego_dex::writer::write_dex;
use dexlego_packer::PackerId;
use dexlego_store::{CachedResult, Key, Store};

use crate::job::{execute_job_revealing, JobSpec, JobStatus};
use crate::pool::{run_batch_with, HarnessConfig};
use crate::report::{JobReport, RunReport};

/// The content-address of a job: [`input_key`] over the original DEX as
/// the writer serialises it. `None` when the job is uncacheable (tamper
/// natives registered, or the input DEX cannot be serialised).
pub fn job_key(spec: &JobSpec) -> Option<Key> {
    if !spec.tampers.is_empty() {
        return None;
    }
    let dex_bytes = write_dex(&spec.dex).ok()?;
    Some(input_key(
        &dex_bytes,
        &spec.entry,
        spec.packer,
        &spec.seeds,
        spec.events,
        spec.fuel,
        spec.check_conformance,
    ))
}

/// The content-address of a job whose DEX arrived as `dex_bytes`: a
/// stable digest over those bytes as received, the packer profile, the
/// entry descriptor, every driving parameter, and the extractor version.
/// Nothing parses the DEX, so a daemon keys a request without reading
/// it. The writer reproduces its own output byte for byte, so a request
/// it wrote gets the key [`job_key`] gives the parsed job; bytes another
/// writer made get a key of their own.
pub fn input_key(
    dex_bytes: &[u8],
    entry: &str,
    packer: Option<PackerId>,
    seeds: &[u64],
    events: usize,
    fuel: u64,
    conformance: bool,
) -> Key {
    let mut d = InputDigest::new();
    d.bytes("dex", dex_bytes);
    d.str("entry", entry);
    d.str("packer", packer.map_or("plain", |id| id.profile().name));
    for &seed in seeds {
        d.u64("seed", seed);
    }
    d.u64("events", events as u64);
    d.u64("fuel", fuel);
    d.flag("conformance", conformance);
    Key::new(d.finish())
}

/// Converts a *successful* job's report and revealed DEX into the store's
/// entry form: every counter by name, and the phase timings.
pub fn to_cached(report: &JobReport, dex_bytes: &[u8]) -> CachedResult {
    CachedResult {
        dex_bytes: dex_bytes.to_vec(),
        counters: report
            .counters()
            .map(|(name, value)| (name.to_owned(), value))
            .collect(),
        phases_us: report.phases_us.clone(),
    }
}

/// Reconstructs a job report from a cache hit. Counters and phase
/// timings describe the original extraction; a counter the entry does not
/// carry reads 0, and one the report does not know is skipped. `wall_us`
/// is left for the caller to set to the lookup time, and
/// [`JobReport::cached`] is set.
pub fn from_cached(name: &str, packer: Option<&'static str>, hit: &CachedResult) -> JobReport {
    let mut report = JobReport {
        cached: true,
        phases_us: hit.phases_us.clone(),
        ..JobReport::empty(name.to_owned(), packer)
    };
    for (counter, value) in &hit.counters {
        report.set_counter(counter, *value);
    }
    report
}

/// Executes `spec` through `store`: a verified cache hit is served without
/// running the pipeline; a miss extracts (deduplicated per key across
/// concurrent callers) and caches the result if the job succeeded. Returns
/// the report and, when available, the revealed DEX bytes.
pub fn execute_job_cached(spec: JobSpec, store: &Store) -> (JobReport, Option<Vec<u8>>) {
    match job_key(&spec) {
        Some(key) => execute_job_keyed(spec, key, store),
        None => execute_job_revealing(spec),
    }
}

/// [`execute_job_cached`] under a key the caller already holds, such as
/// the [`input_key`] of the bytes a request arrived with: a hit looked
/// up under `key` and a fill stored under it are the same entry.
pub fn execute_job_keyed(spec: JobSpec, key: Key, store: &Store) -> (JobReport, Option<Vec<u8>>) {
    let name = spec.name.clone();
    let packer = spec.packer.map(|id| id.profile().name);
    let start = Instant::now();

    let mut fresh: Option<(JobReport, Option<Vec<u8>>)> = None;
    let (cached, hit) = store.get_or_fill(&key, || {
        let (report, bytes) = execute_job_revealing(spec);
        let entry = match (&report.status, &bytes) {
            (JobStatus::Ok, Some(b)) => Some(to_cached(&report, b)),
            _ => None,
        };
        fresh = Some((report, bytes));
        entry
    });

    match fresh {
        // This caller ran the extraction: report it verbatim.
        Some(result) => result,
        None => {
            let hit_entry = cached.expect("a hit always carries the entry");
            debug_assert!(hit);
            let mut report = from_cached(&name, packer, &hit_entry);
            report.wall_us = start.elapsed().as_micros() as u64;
            (report, Some(hit_entry.dex_bytes))
        }
    }
}

/// [`crate::pool::run_batch`] with every job routed through `store`:
/// workers share the cache, identical jobs extract once, and a rerun of
/// the same corpus is served almost entirely from disk (see
/// [`RunReport::cache_hits`]).
pub fn run_batch_cached(jobs: Vec<JobSpec>, config: &HarnessConfig, store: &Store) -> RunReport {
    run_batch_with(jobs, config, |spec| execute_job_cached(spec, store).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        let apps = dexlego_droidbench::appgen::corpus_apps(1, 60);
        let (_, app) = &apps[0];
        JobSpec::new("k", app.dex.clone(), &app.entry)
    }

    #[test]
    fn key_is_stable_and_parameter_sensitive() {
        let spec = sample_spec();
        assert_eq!(job_key(&spec), job_key(&spec.clone()));
        let mut packed = spec.clone();
        packed.packer = Some(PackerId::P360);
        assert_ne!(job_key(&spec), job_key(&packed));
        let mut fueled = spec.clone();
        fueled.fuel += 1;
        assert_ne!(job_key(&spec), job_key(&fueled));
        let mut seeded = spec.clone();
        seeded.seeds = vec![2];
        assert_ne!(job_key(&spec), job_key(&seeded));
        let mut conformant = spec.clone();
        conformant.check_conformance = true;
        assert_ne!(job_key(&spec), job_key(&conformant));
        // The job *name* is reporting identity, not pipeline input.
        let mut renamed = spec.clone();
        renamed.name = "other".to_owned();
        assert_eq!(job_key(&spec), job_key(&renamed));
    }

    #[test]
    fn tampered_jobs_are_uncacheable() {
        let mut spec = sample_spec();
        spec.tampers = vec![dexlego_droidbench::TamperSpec {
            native_class: "Lx;".to_owned(),
            native_name: "t".to_owned(),
            target: ("Lx;".to_owned(), "u".to_owned(), "()V".to_owned()),
            patches: Vec::new(),
        }];
        assert_eq!(job_key(&spec), None);
    }

    /// Every counter, each set to a distinct value, and every phase
    /// survive the store entry and its codec.
    #[test]
    fn report_roundtrips_through_cache_entry() {
        let mut report = JobReport {
            wall_us: 900,
            phases_us: vec![("collect".to_owned(), 7), ("verify".to_owned(), 3)],
            ..JobReport::empty("j".to_owned(), Some("360"))
        };
        for (i, c) in crate::COUNTERS.iter().enumerate() {
            report.set_counter(c.name, 1_000 + 7 * i as u64);
        }
        let entry = to_cached(&report, &[1, 2, 3]);
        let decoded =
            dexlego_store::entry::decode(&dexlego_store::entry::encode(&entry)).expect("decodes");
        assert_eq!(decoded, entry);
        let back = from_cached("j", Some("360"), &decoded);
        assert!(back.cached);
        assert!(back.status.is_ok());
        assert!(back.counters().eq(report.counters()));
        assert_eq!(back.phases_us, report.phases_us);
        assert_eq!(decoded.dex_bytes, vec![1, 2, 3]);
    }

    /// An entry written by a build with a counter this one does not know
    /// still serves, and a counter it lacks reads 0.
    #[test]
    fn unknown_counters_are_skipped_and_missing_ones_read_zero() {
        let entry = CachedResult {
            dex_bytes: vec![9],
            counters: vec![
                ("frames".to_owned(), 4),
                ("from_a_newer_build".to_owned(), 99),
            ],
            phases_us: Vec::new(),
        };
        let decoded = dexlego_store::entry::decode(&dexlego_store::entry::encode(&entry))
            .expect("unknown names decode");
        let report = from_cached("j", None, &decoded);
        for (name, value) in report.counters() {
            assert_eq!(value, u64::from(name == "frames") * 4, "{name}");
        }
    }
}
