//! A [`run_batch_cached`](dexlego_harness::run_batch_cached)-compatible
//! batch runner that routes every job through a router (or a single
//! daemon — the wire dialect is identical): same [`RunReport`] out,
//! but the extraction work and the cache live in the fleet.

use std::sync::Mutex;
use std::time::Duration;

use dexlego_dex::writer::write_dex;
use dexlego_harness::pool::run_batch_with;
use dexlego_harness::{HarnessConfig, JobReport, JobSpec, JobStatus, RunReport};
use dexlego_service::{Client, ExtractReply, ExtractRequest};

/// How often a shed (`overloaded`) job is retried before giving up.
const SHED_RETRIES: u32 = 5;
/// Reconnect attempts after a mid-batch transport failure.
const TRANSPORT_RETRIES: u32 = 3;

fn wire_request(spec: &JobSpec) -> Result<ExtractRequest, String> {
    if !spec.tampers.is_empty() {
        // The wire protocol deliberately cannot describe tampering
        // natives; silently running the un-tampered app remotely would
        // produce a wrong-but-plausible result.
        return Err("tampered jobs cannot be routed; run them locally".to_owned());
    }
    let dex = write_dex(&spec.dex).map_err(|e| format!("serialise dex: {e}"))?;
    let mut req = ExtractRequest::new(dex, &spec.entry);
    req.name = Some(spec.name.clone());
    req.packer = spec.packer.map(|id| id.profile().name.to_owned());
    req.seeds = spec.seeds.clone();
    req.events = spec.events;
    req.fuel = spec.fuel;
    req.conformance = spec.check_conformance;
    Ok(req)
}

fn failure(spec: &JobSpec, reason: String) -> JobReport {
    let mut report = JobReport::empty(spec.name.clone(), spec.packer.map(|id| id.profile().name));
    report.status = JobStatus::SetupFailed(reason);
    report
}

fn run_one(addr: &str, pool: &Mutex<Vec<Client>>, spec: &JobSpec) -> JobReport {
    let req = match wire_request(spec) {
        Ok(req) => req,
        Err(reason) => return failure(spec, reason),
    };
    let mut transport_budget = TRANSPORT_RETRIES;
    let mut shed_budget = SHED_RETRIES;
    loop {
        let mut client = match pool.lock().expect("client pool lock").pop() {
            Some(client) => client,
            None => match Client::connect(addr) {
                Ok(client) => client,
                Err(e) => {
                    if transport_budget == 0 {
                        return failure(spec, format!("connect {addr}: {e}"));
                    }
                    transport_budget -= 1;
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            },
        };
        match client.extract(&req) {
            Ok(ExtractReply::Done { report, .. }) => {
                pool.lock().expect("client pool lock").push(client);
                return JobReport::from_json(&report)
                    .unwrap_or_else(|e| failure(spec, format!("undecodable report: {e}")));
            }
            Ok(ExtractReply::Failed { job_status, detail }) => {
                pool.lock().expect("client pool lock").push(client);
                let mut report =
                    JobReport::empty(spec.name.clone(), spec.packer.map(|id| id.profile().name));
                report.status = JobStatus::from_label(&job_status, detail.as_deref()).unwrap_or(
                    JobStatus::SetupFailed(format!("unknown failure label {job_status:?}")),
                );
                return report;
            }
            Ok(ExtractReply::Overloaded) => {
                pool.lock().expect("client pool lock").push(client);
                if shed_budget == 0 {
                    return failure(spec, "fleet overloaded".to_owned());
                }
                shed_budget -= 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok(ExtractReply::DeadlineExceeded { waited_ms }) => {
                pool.lock().expect("client pool lock").push(client);
                return failure(spec, format!("shed after waiting {waited_ms}ms"));
            }
            Err(e) => {
                // The connection is suspect; drop it and retry on a
                // fresh one (extracts are idempotent — the fleet cache
                // absorbs the duplicate).
                drop(client);
                if transport_budget == 0 {
                    return failure(spec, format!("transport: {e}"));
                }
                transport_budget -= 1;
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Runs `jobs` against the daemon-protocol endpoint at `addr` (a
/// router fronting a fleet, or a single `dexlegod`) on
/// `config.workers` local threads, returning the same [`RunReport`] a
/// local [`run_batch_cached`](dexlego_harness::run_batch_cached) run
/// produces. Connections are pooled and reused across jobs; shed jobs
/// retry with backoff; a job the wire cannot express (tampering
/// natives) fails its report rather than running wrong remotely.
#[must_use]
pub fn run_batch_routed(addr: &str, jobs: Vec<JobSpec>, config: &HarnessConfig) -> RunReport {
    let pool: Mutex<Vec<Client>> = Mutex::new(Vec::new());
    run_batch_with(jobs, config, |spec| run_one(addr, &pool, &spec))
}
