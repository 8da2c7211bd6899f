//! Cache-aware job execution through the content-addressed result store.
//!
//! A [`JobSpec`] is pure data: the original DEX, the packer profile, and
//! the driving parameters fully determine the revealed DEX. [`job_key`]
//! folds all of them (plus the extractor version) into a
//! [`dexlego_core::digest::InputDigest`], and [`execute_job_cached`] turns
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
use dexlego_store::{CachedResult, Key, Store};

use crate::job::{execute_job_revealing, JobSpec, JobStatus};
use crate::pool::{run_batch_with, HarnessConfig};
use crate::report::{JobReport, RunReport};

/// The content-address of a job: a stable digest over the original DEX
/// bytes, packer profile, entry descriptor, every driving parameter, and
/// the extractor version. `None` when the job is uncacheable (tamper
/// natives registered, or the input DEX cannot be serialised).
pub fn job_key(spec: &JobSpec) -> Option<Key> {
    if !spec.tampers.is_empty() {
        return None;
    }
    let dex_bytes = write_dex(&spec.dex).ok()?;
    let mut d = InputDigest::new();
    d.bytes("dex", &dex_bytes);
    d.str("entry", &spec.entry);
    d.str(
        "packer",
        spec.packer.map_or("plain", |id| id.profile().name),
    );
    for &seed in &spec.seeds {
        d.u64("seed", seed);
    }
    d.u64("events", spec.events as u64);
    d.u64("fuel", spec.fuel);
    d.flag("conformance", spec.check_conformance);
    Some(Key::new(d.finish()))
}

/// Converts a *successful* job's report and revealed DEX into the store's
/// entry form.
pub fn to_cached(report: &JobReport, dex_bytes: &[u8]) -> CachedResult {
    CachedResult {
        dex_bytes: dex_bytes.to_vec(),
        wall_us: report.wall_us,
        insns: report.insns,
        frames: report.frames,
        methods_collected: report.methods_collected as u64,
        insns_collected: report.insns_collected,
        dump_size: report.dump_size as u64,
        verifier_lints: report.verifier_lints as u64,
        typed_methods: report.typed_methods as u64,
        typed_insns: report.typed_insns,
        verify_cache_hits: report.verify_cache_hits,
        verify_cache_misses: report.verify_cache_misses,
        validation: Vec::new(), // a cached job passed validation
        phases_us: report.phases_us.clone(),
    }
}

/// Reconstructs a job report from a cache hit. Collection counters and
/// phase timings describe the original extraction; `wall_us` is the
/// lookup time and [`JobReport::cached`] is set.
pub fn from_cached(name: &str, packer: Option<&'static str>, hit: &CachedResult) -> JobReport {
    JobReport {
        status: JobStatus::Ok,
        cached: true,
        insns: hit.insns,
        frames: hit.frames,
        methods_collected: hit.methods_collected as usize,
        insns_collected: hit.insns_collected,
        dump_size: hit.dump_size as usize,
        verifier_lints: hit.verifier_lints as usize,
        typed_methods: hit.typed_methods as usize,
        typed_insns: hit.typed_insns,
        verify_cache_hits: hit.verify_cache_hits,
        verify_cache_misses: hit.verify_cache_misses,
        phases_us: hit.phases_us.clone(),
        ..JobReport::empty(name.to_owned(), packer)
    }
}

/// Executes `spec` through `store`: a verified cache hit is served without
/// running the pipeline; a miss extracts (deduplicated per key across
/// concurrent callers) and caches the result if the job succeeded. Returns
/// the report and, when available, the revealed DEX bytes.
pub fn execute_job_cached(spec: JobSpec, store: &Store) -> (JobReport, Option<Vec<u8>>) {
    let Some(key) = job_key(&spec) else {
        return execute_job_revealing(spec);
    };
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
    use dexlego_packer::PackerId;

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

    #[test]
    fn report_roundtrips_through_cache_entry() {
        let report = JobReport {
            wall_us: 900,
            insns: 11,
            frames: 2,
            methods_collected: 3,
            insns_collected: 40,
            dump_size: 512,
            verifier_lints: 1,
            typed_methods: 2,
            typed_insns: 33,
            verify_cache_hits: 6,
            verify_cache_misses: 3,
            phases_us: vec![("collect".to_owned(), 7)],
            ..JobReport::empty("j".to_owned(), Some("360"))
        };
        let entry = to_cached(&report, &[1, 2, 3]);
        let back = from_cached("j", Some("360"), &entry);
        assert!(back.cached);
        assert!(back.status.is_ok());
        assert_eq!(back.insns, report.insns);
        assert_eq!(back.frames, report.frames);
        assert_eq!(back.methods_collected, report.methods_collected);
        assert_eq!(back.typed_methods, report.typed_methods);
        assert_eq!(back.typed_insns, report.typed_insns);
        assert_eq!(back.verify_cache_hits, report.verify_cache_hits);
        assert_eq!(back.verify_cache_misses, report.verify_cache_misses);
        assert_eq!(back.phases_us, report.phases_us);
        assert_eq!(entry.dex_bytes, vec![1, 2, 3]);
    }
}
