//! Structured run reports.
//!
//! Every job produces a [`JobReport`]; [`run_batch`](crate::pool::run_batch)
//! aggregates them into a [`RunReport`]. Both serialise to JSON (hand-rolled
//! — the workspace is dependency-free) so corpus runs can be archived and
//! compared across revisions.

use dexlego_core::RevealOutcome;
use dexlego_packer::PackerId;

use crate::job::JobStatus;
use crate::json::{self, Value};

/// Everything recorded about one job.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// Job name from the spec.
    pub name: String,
    /// Packer profile display name, if the app was packed.
    pub packer: Option<&'static str>,
    /// Terminal status.
    pub status: JobStatus,
    /// Whether this report was served from the content-addressed result
    /// store instead of a fresh pipeline run (collection counters and phase
    /// timings then describe the original extraction; `wall_us` is the
    /// lookup time).
    pub cached: bool,
    /// Wall-clock time of the whole job, microseconds.
    pub wall_us: u64,
    /// Bytecode instructions interpreted while driving the app.
    pub insns: u64,
    /// Method frames entered while driving the app.
    pub frames: u64,
    /// Methods with collected trees.
    pub methods_collected: u64,
    /// Instructions collected across all trees.
    pub insns_collected: u64,
    /// Serialised collection-file size in bytes.
    pub dump_size: u64,
    /// Warning-severity verifier lints on the reassembled DEX.
    pub verifier_lints: u64,
    /// Error-severity verifier diagnostics (nonzero only when the job was
    /// rejected by the verification gate).
    pub verifier_errors: u64,
    /// Method bodies with typed IR materialized by the verifier.
    pub typed_methods: u64,
    /// Instructions across all typed-IR methods.
    pub typed_insns: u64,
    /// Method verifications served from the digest-keyed verify cache
    /// during the pipeline's verification gate.
    pub verify_cache_hits: u64,
    /// Method verifications that ran the fixpoint (verify-cache misses).
    pub verify_cache_misses: u64,
    /// Per-phase pipeline timings in microseconds, in execution order
    /// (collect, serialize, tree_merge, dexgen, canonicalize, verify,
    /// validate).
    pub phases_us: Vec<(String, u64)>,
}

/// A named `u64` counter of a `T`: a field and the name it travels under,
/// which is also its member name in every JSON object that carries it.
pub struct Counter<T> {
    /// The field's name.
    pub name: &'static str,
    get: fn(&T) -> u64,
    field: fn(&mut T) -> &mut u64,
}

impl<T> Counter<T> {
    /// The counter `name` read through `get` and written through `field`;
    /// [`counters!`](crate::counters) builds every table from these.
    pub const fn new(
        name: &'static str,
        get: fn(&T) -> u64,
        field: fn(&mut T) -> &mut u64,
    ) -> Counter<T> {
        Counter { name, get, field }
    }

    /// The counter's value in `stats`.
    pub fn get(&self, stats: &T) -> u64 {
        (self.get)(stats)
    }

    /// The counter's field in `stats`.
    pub fn field<'a>(&self, stats: &'a mut T) -> &'a mut u64 {
        (self.field)(stats)
    }
}

/// A struct whose `u64` counters one ordered [`Counter`] table names.
/// Every output that carries them walks the table: [`write_counters`]
/// emits them, [`read_counters`] rebuilds the struct, so neither names a
/// counter itself.
///
/// [`write_counters`]: Counters::write_counters
/// [`read_counters`]: Counters::read_counters
pub trait Counters: Default + 'static {
    /// The counters, in output order.
    const COUNTERS: &'static [Counter<Self>];

    /// Writes every counter as a member of `obj`, in table order.
    fn write_counters(&self, obj: &mut json::ObjectWriter<'_>) {
        for c in Self::COUNTERS {
            obj.raw(c.name, &c.get(self).to_string());
        }
    }

    /// A default `Self` with every counter read from the member of
    /// `value` under its name; a missing name reads 0.
    fn read_counters(value: &Value) -> Self {
        let mut stats = Self::default();
        for c in Self::COUNTERS {
            *c.field(&mut stats) = value.get(c.name).and_then(Value::as_u64).unwrap_or(0);
        }
        stats
    }
}

/// Builds [`Counter`] tables.
///
/// `counters![T: a, b]` is the table of `T`'s `u64` fields `a` and `b`,
/// in that order. Given a struct whose fields are bare names, it defines
/// the struct with one `u64` field per name, as visible as the struct,
/// and implements [`Counters`] for it with the fields in order, so a new
/// counter is a field and the code that counts it. Typed fields after a
/// `;` are private fields outside the table:
///
/// ```
/// use dexlego_harness::Counters;
///
/// dexlego_harness::counters! {
///     /// Lines a reader saw.
///     #[derive(Debug, Default)]
///     pub struct Lines {
///         /// Lines read.
///         read,
///         /// Lines refused.
///         refused;
///         /// The longest line read.
///         longest: String,
///     }
/// }
///
/// let names: Vec<&str> = Lines::COUNTERS.iter().map(|c| c.name).collect();
/// assert_eq!(names, ["read", "refused"]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field:ident),+ $(,)?
            $(; $($(#[$other_meta:meta])* $other:ident: $other_ty:ty),+ $(,)?)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $vis $field: u64,)+
            $($($(#[$other_meta])* $other: $other_ty,)+)?
        }

        impl $crate::report::Counters for $name {
            const COUNTERS: &'static [$crate::report::Counter<Self>] =
                $crate::counters![$name: $($field),+];
        }
    };
    ($ty:ty: $($field:ident),+ $(,)?) => {
        &[$($crate::report::Counter::new(
            stringify!($field),
            |stats: &$ty| stats.$field,
            |stats: &mut $ty| &mut stats.$field,
        )),+]
    };
}

/// The job counters, in report order. The report's JSON, the store entry
/// ([`crate::cache::to_cached`]) and dexlegod's `stats` carry each one by
/// name, so a new counter is a [`JobReport`] field, an entry here and the
/// code that counts it. Pipeline counters reach the report through
/// [`JobReport::absorb`] under the same name.
pub const COUNTERS: &[Counter<JobReport>] = counters![
    JobReport: insns,
    frames,
    methods_collected,
    insns_collected,
    dump_size,
    verifier_lints,
    verifier_errors,
    typed_methods,
    typed_insns,
    verify_cache_hits,
    verify_cache_misses,
];

impl Counters for JobReport {
    const COUNTERS: &'static [Counter<JobReport>] = COUNTERS;
}

impl JobReport {
    /// A zeroed report carrying only identity; callers fill in what the
    /// job managed to produce before it stopped.
    pub fn empty(name: String, packer: Option<&'static str>) -> JobReport {
        JobReport {
            name,
            packer,
            ..JobReport::default()
        }
    }

    /// Every counter's name and value, in [`COUNTERS`] order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTERS.iter().map(move |c| (c.name, c.get(self)))
    }

    /// Sets the counter called `name`; a name [`COUNTERS`] does not know
    /// is ignored.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        if let Some(c) = COUNTERS.iter().find(|c| c.name == name) {
            *c.field(self) = value;
        }
    }

    /// Copies every pipeline counter [`COUNTERS`] names, and the phase
    /// timings, out of a reveal outcome.
    pub fn absorb(&mut self, outcome: &RevealOutcome) {
        for &(name, value) in outcome.metrics.counters() {
            self.set_counter(name, value);
        }
        self.phases_us = outcome
            .metrics
            .phases()
            .iter()
            .map(|&(name, us)| (name.to_owned(), us))
            .collect();
    }

    /// Whether the job failed.
    pub fn failed(&self) -> bool {
        !self.status.is_ok()
    }

    /// Timing of a named phase, if recorded.
    pub fn phase_us(&self, phase: &str) -> Option<u64> {
        self.phases_us
            .iter()
            .find(|(name, _)| name == phase)
            .map(|&(_, us)| us)
    }

    /// Reconstructs a report from the parsed JSON object emitted by
    /// [`JobReport::to_json`] — the receive side of a report travelling
    /// over the daemon wire protocol (the routing tier rebuilds batch-run
    /// reports from extract replies). Missing numeric members default to
    /// zero; an unknown packer name degrades to `None` (the display name
    /// is reporting identity, not pipeline input).
    ///
    /// # Errors
    ///
    /// A missing `name` or an unrecognisable `status` label.
    pub fn from_json(value: &Value) -> Result<JobReport, String> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "report without \"name\"".to_owned())?
            .to_owned();
        let label = value
            .get("status")
            .and_then(Value::as_str)
            .ok_or_else(|| "report without \"status\"".to_owned())?;
        let detail = value.get("detail").and_then(Value::as_str);
        let status = JobStatus::from_label(label, detail)
            .ok_or_else(|| format!("unknown report status: {label}"))?;
        let packer = value
            .get("packer")
            .and_then(Value::as_str)
            .and_then(PackerId::by_name)
            .map(|id| id.profile().name);
        let phases_us = match value.get("phases_us") {
            Some(Value::Obj(members)) => members
                .iter()
                .filter_map(|(phase, us)| us.as_u64().map(|us| (phase.clone(), us)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(JobReport {
            name,
            packer,
            status,
            cached: value
                .get("cached")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            wall_us: value.get("wall_us").and_then(Value::as_u64).unwrap_or(0),
            phases_us,
            ..JobReport::read_counters(value)
        })
    }

    /// This job as a JSON object.
    pub fn to_json(&self) -> String {
        let phases: Vec<(&str, String)> = self
            .phases_us
            .iter()
            .map(|(name, us)| (name.as_str(), us.to_string()))
            .collect();
        let mut out = String::with_capacity(512);
        let mut obj = json::ObjectWriter::new(&mut out);
        obj.string("name", &self.name);
        match self.packer {
            Some(packer) => obj.string("packer", packer),
            None => obj.raw("packer", "null"),
        }
        obj.string("status", self.status.label());
        obj.raw("cached", &self.cached.to_string());
        match self.status.detail() {
            Some(detail) => obj.string("detail", &detail),
            None => obj.raw("detail", "null"),
        }
        obj.raw("wall_us", &self.wall_us.to_string());
        self.write_counters(&mut obj);
        obj.raw("phases_us", &json::object(&phases));
        obj.finish();
        out
    }
}

/// Aggregate result of a batch run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole batch, microseconds.
    pub wall_us: u64,
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
}

impl RunReport {
    /// Whether every job succeeded.
    pub fn ok(&self) -> bool {
        self.jobs.iter().all(|j| !j.failed())
    }

    /// The jobs that failed.
    pub fn failed(&self) -> Vec<&JobReport> {
        self.jobs.iter().filter(|j| j.failed()).collect()
    }

    /// How many jobs were served from the result store.
    pub fn cache_hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cached).count()
    }

    /// One-line human summary, plus one line per failed job.
    pub fn summary(&self) -> String {
        let failed = self.failed();
        let hits = self.cache_hits();
        let cached = if hits > 0 {
            format!(", {hits} cached")
        } else {
            String::new()
        };
        let mut out = format!(
            "{} jobs: {} ok, {} failed{cached} ({} workers, {:.1} ms)",
            self.jobs.len(),
            self.jobs.len() - failed.len(),
            failed.len(),
            self.workers,
            self.wall_us as f64 / 1000.0
        );
        for job in failed {
            out.push_str(&format!(
                "\n  FAILED {} [{}]{}",
                job.name,
                job.status.label(),
                job.status
                    .detail()
                    .map_or(String::new(), |d| format!(": {d}"))
            ));
        }
        out
    }

    /// The whole run as a JSON document.
    pub fn to_json(&self) -> String {
        let jobs: Vec<String> = self.jobs.iter().map(JobReport::to_json).collect();
        json::object(&[
            ("workers", self.workers.to_string()),
            ("wall_us", self.wall_us.to_string()),
            ("ok", self.ok().to_string()),
            ("jobs", json::array(&jobs)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(status: JobStatus) -> JobReport {
        JobReport {
            status,
            wall_us: 1500,
            phases_us: vec![("collect".to_owned(), 42), ("verify".to_owned(), 7)],
            ..JobReport::empty("j1".to_owned(), Some("360"))
        }
    }

    #[test]
    fn json_includes_status_and_phases() {
        let j = sample_report(JobStatus::Ok).to_json();
        assert!(j.contains("\"status\": \"ok\""), "{j}");
        assert!(j.contains("\"detail\": null"), "{j}");
        assert!(
            j.contains("\"phases_us\": {\"collect\": 42, \"verify\": 7}"),
            "{j}"
        );
        let j = sample_report(JobStatus::Panicked("boom \"quoted\"".to_owned())).to_json();
        assert!(j.contains("\"status\": \"panicked\""), "{j}");
        assert!(j.contains("boom \\\"quoted\\\""), "{j}");
    }

    #[test]
    fn run_report_summarises_failures() {
        let run = RunReport {
            workers: 2,
            wall_us: 2000,
            jobs: vec![
                sample_report(JobStatus::Ok),
                sample_report(JobStatus::Timeout),
            ],
        };
        assert!(!run.ok());
        assert_eq!(run.failed().len(), 1);
        let s = run.summary();
        assert!(s.contains("1 ok, 1 failed"), "{s}");
        assert!(s.contains("FAILED j1 [timeout]"), "{s}");
        assert!(run.to_json().contains("\"ok\": false"));
    }

    #[test]
    fn phase_lookup() {
        let j = sample_report(JobStatus::Ok);
        assert_eq!(j.phase_us("collect"), Some(42));
        assert_eq!(j.phase_us("missing"), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        for status in [
            JobStatus::Ok,
            JobStatus::Timeout,
            JobStatus::Panicked("boom".to_owned()),
            JobStatus::ValidationFailed(vec!["a".to_owned(), "b".to_owned()]),
        ] {
            let mut report = sample_report(status);
            report.cached = true;
            report.insns = 12;
            report.typed_insns = 9;
            report.verify_cache_hits = 5;
            report.verify_cache_misses = 2;
            let value = json::parse(&report.to_json()).expect("emitted JSON parses");
            let back = JobReport::from_json(&value).expect("round trip");
            assert_eq!(back.name, report.name);
            assert_eq!(back.packer, report.packer);
            assert_eq!(back.status.label(), report.status.label());
            assert_eq!(back.status.detail(), report.status.detail());
            assert_eq!(back.cached, report.cached);
            assert_eq!(back.wall_us, report.wall_us);
            assert_eq!(back.insns, report.insns);
            assert_eq!(back.typed_insns, report.typed_insns);
            assert_eq!(back.verify_cache_hits, report.verify_cache_hits);
            assert_eq!(back.verify_cache_misses, report.verify_cache_misses);
            assert_eq!(back.phases_us, report.phases_us);
        }
        let bad = json::parse(r#"{"name": "x", "status": "warped"}"#).unwrap();
        assert!(JobReport::from_json(&bad).is_err());
        let anonymous = json::parse(r#"{"status": "ok"}"#).unwrap();
        assert!(JobReport::from_json(&anonymous).is_err());
    }

    #[test]
    fn every_counter_survives_json_in_table_order() {
        let mut report = sample_report(JobStatus::Ok);
        for (i, c) in COUNTERS.iter().enumerate() {
            report.set_counter(c.name, 1_000 + 7 * i as u64);
        }
        let value = json::parse(&report.to_json()).expect("emitted JSON parses");
        let Value::Obj(members) = &value else {
            panic!("a report is an object")
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<&str> = COUNTERS.iter().map(|c| c.name).collect();
        assert_eq!(names[6..6 + COUNTERS.len()], table[..], "{names:?}");
        let back = JobReport::from_json(&value).expect("round trip");
        assert!(back.counters().eq(report.counters()));
    }

    #[test]
    fn absorb_copies_the_pipeline_counters_the_table_names() {
        let mut metrics = dexlego_core::PipelineMetrics::new();
        metrics.count("insns_collected", 40);
        metrics.count("dump_size", 512);
        metrics.count("classes_collected", 3); // not a job counter
        metrics.record_phase_us("collect", 9);
        let mut rt = dexlego_runtime::Runtime::new();
        let outcome = dexlego_core::pipeline::reveal(&mut rt, |_, _| {}).expect("reveals");
        let outcome = RevealOutcome { metrics, ..outcome };
        let mut report = JobReport {
            insns: 77,
            ..JobReport::empty("j".to_owned(), None)
        };
        report.absorb(&outcome);
        assert_eq!(report.insns_collected, 40);
        assert_eq!(report.dump_size, 512);
        assert_eq!(
            report.insns, 77,
            "counters the pipeline does not count stay"
        );
        assert_eq!(report.phases_us, vec![("collect".to_owned(), 9)]);
    }
}
