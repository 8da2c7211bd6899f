//! `dexlegod-smoke`: an end-to-end exercise of a running daemon.
//!
//! ```text
//! dexlegod-smoke --addr HOST:PORT [--insns N] [--packer NAME] [--shutdown]
//! ```
//!
//! Opens with two hostile request lines, 100,000 nested `[` and an
//! extract whose DEX (valid checksum and signature) nests 20,000 static
//! value arrays, and asserts each gets an `error` reply. Then, on the same
//! connection, pings the daemon, submits the same extraction twice, and
//! asserts the second reply is a cache hit with a byte-identical revealed
//! DEX; then checks the stats endpoint saw at least one hit and counted
//! both hostile lines as errors (under `router` behind a router). With
//! `--shutdown`, asks the daemon to drain and exit afterwards. Exits 0 on
//! success, 1 on any failed assertion.

use std::process::ExitCode;

use dexlego_dex::checksum::{adler32, sha1};
use dexlego_dex::writer::write_dex;
use dexlego_dex::{ClassDef, DexFile, EncodedValue};
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::Value;
use dexlego_service::{Client, ExtractReply, ExtractRequest, Reply};

struct Args {
    addr: String,
    insns: usize,
    packer: Option<String>,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut addr: Option<String> = None;
    let mut insns = 60usize;
    let mut packer = None;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--insns" => {
                insns = value("--insns")?
                    .parse()
                    .map_err(|_| "--insns expects a number".to_owned())?;
            }
            "--packer" => packer = Some(value("--packer")?),
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        addr: addr.ok_or_else(|| "--addr HOST:PORT is required".to_owned())?,
        insns,
        packer,
        shutdown,
    })
}

/// A DEX whose one static value nests 20,000 arrays around a `null`,
/// with its file size, signature and checksum set as a forging client
/// would set them.
fn nested_value_dex() -> Result<Vec<u8>, String> {
    let mut dex = DexFile::new();
    let mut def = ClassDef::new(dex.intern_type("Lhostile/A;"));
    def.static_values.push(EncodedValue::Null);
    dex.add_class(def);
    let mut bytes = write_dex(&dex).map_err(|e| format!("serialise hostile DEX: {e:?}"))?;
    // Point the class's static values at a new list appended to the file.
    let class_def = u32::from_le_bytes([bytes[100], bytes[101], bytes[102], bytes[103]]) as usize;
    let at = (bytes.len() as u32).to_le_bytes();
    bytes[class_def + 28..class_def + 32].copy_from_slice(&at);
    bytes.push(1);
    for _ in 0..20_000 {
        bytes.extend([0x1c, 1]); // VALUE_ARRAY of one value
    }
    bytes.push(0x1e); // VALUE_NULL
    let len = (bytes.len() as u32).to_le_bytes();
    bytes[32..36].copy_from_slice(&len);
    let signature = sha1(&bytes[32..]);
    bytes[12..32].copy_from_slice(&signature);
    let checksum = adler32(&bytes[12..]).to_le_bytes();
    bytes[8..12].copy_from_slice(&checksum);
    Ok(bytes)
}

/// Sends each hostile line and expects an `error` reply to it.
fn refuse_hostile_lines(client: &mut Client) -> Result<(), String> {
    let nested_dex = ExtractRequest::new(nested_value_dex()?, "Lhostile/A;->main()V");
    for (what, line) in [
        ("100,000 nested '['", "[".repeat(100_000)),
        ("20,000 nested static values", nested_dex.encode()),
    ] {
        client
            .send_line(&line)
            .map_err(|e| format!("{what}: {e}"))?;
        match client.recv().map_err(|e| format!("{what}: {e}"))? {
            Reply::Error(reason) => eprintln!("dexlegod-smoke: {what} refused: {reason}"),
            other => return Err(format!("{what}: expected an error reply, got {other:?}")),
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    refuse_hostile_lines(&mut client)?;
    client.ping().map_err(|e| format!("ping: {e}"))?;

    let (_, app) = corpus_apps(1, args.insns).into_iter().next().unwrap();
    let dex = write_dex(&app.dex).map_err(|e| format!("serialise app: {e:?}"))?;
    let mut req = ExtractRequest::new(dex, &app.entry);
    req.name = Some("smoke".to_owned());
    req.packer = args.packer.clone();

    let extract = |client: &mut Client, label: &str| -> Result<(bool, Vec<u8>), String> {
        match client.extract(&req).map_err(|e| format!("{label}: {e}"))? {
            ExtractReply::Done { cached, dex, .. } => Ok((cached, dex)),
            ExtractReply::Failed { job_status, detail } => Err(format!(
                "{label}: job failed: {job_status} {}",
                detail.unwrap_or_default()
            )),
            ExtractReply::Overloaded => Err(format!("{label}: daemon overloaded")),
            ExtractReply::DeadlineExceeded { waited_ms } => {
                Err(format!("{label}: deadline exceeded after {waited_ms}ms"))
            }
        }
    };

    let (_, cold_dex) = extract(&mut client, "cold extract")?;
    if cold_dex.is_empty() {
        return Err("cold extract returned an empty DEX".to_owned());
    }
    let (warm_cached, warm_dex) = extract(&mut client, "warm extract")?;
    if !warm_cached {
        return Err("second identical extract was not served from cache".to_owned());
    }
    if warm_dex != cold_dex {
        return Err("cached DEX differs from the fresh extraction".to_owned());
    }
    eprintln!(
        "dexlegod-smoke: warm hit ok ({} bytes, byte-identical)",
        warm_dex.len()
    );

    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let hits = stats.get("hits").and_then(Value::as_u64).unwrap_or(0);
    if hits < 1 {
        return Err(format!("stats report no cache hits: {hits}"));
    }
    // A daemon counts both refused lines at the top level. A router
    // counts them in its `router` member: it refuses the first itself and
    // relays a backend's refusal of the second.
    let (name, counted) = match stats.get("router") {
        Some(front) => ("router.errors", front),
        None => ("errors", &stats),
    };
    let errors = counted.get("errors").and_then(Value::as_u64).unwrap_or(0);
    if errors < 2 {
        return Err(format!(
            "stats do not count both refused lines: {name} = {errors}"
        ));
    }
    eprintln!("dexlegod-smoke: stats ok (hits = {hits}, {name} = {errors})");

    if args.shutdown {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        eprintln!("dexlegod-smoke: shutdown acknowledged");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("dexlegod-smoke: {reason}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            eprintln!("dexlegod-smoke: FAIL: {reason}");
            ExitCode::FAILURE
        }
    }
}
