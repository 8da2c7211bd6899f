//! Golden digests of Algorithm 1's output and of the DEX reassembled from
//! it.
//!
//! Per input, two SHA-1s are pinned: one over the collection files'
//! binary form (`CollectionFiles::to_bytes`, the "dump file" whose every
//! byte the collector and the collection tree decide) and one over the
//! written revealed DEX (which tree merging, DEX generation and the
//! assembler decide). A change to how instructions are recorded, how
//! trees are deduplicated or how they are laid out as code fails here
//! even when the result still verifies and still analyses the same.
//!
//! Inputs: the DroidBench suite, which holds the self-modifying samples
//! with their tamper natives (the only inputs whose trees grow divergence
//! nodes) and the switch and array-data samples (captured payloads), and
//! one generated app collected under all seven packer configurations.
//!
//! On a mismatch the test prints every actual `name digest` line. After
//! an intended change of collected or revealed bytes (which also bumps
//! `EXTRACTOR_VERSION`), those lines replace the golden file's.

use dexlego_suite::dex::checksum::sha1;
use dexlego_suite::dex::writer::write_dex;
use dexlego_suite::dexlego::pipeline::{reveal, RevealOutcome};
use dexlego_suite::droidbench::appgen::{generate, AppSpec};
use dexlego_suite::droidbench::{build_suite, drive_sample};
use dexlego_suite::harness::all_packers;
use dexlego_suite::packer::pack;
use dexlego_suite::runtime::class::SigKey;
use dexlego_suite::runtime::observer::RuntimeObserver;
use dexlego_suite::runtime::{Runtime, Slot};

const GOLDEN: &str = include_str!("golden/collect_digests.txt");

/// Callback firings per driven app: enough to reach event handlers.
const EVENTS: usize = 4;

fn hex(digest: [u8; 20]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Fires up to `events` registered callbacks, as the sample driver does.
fn fire_callbacks(rt: &mut Runtime, obs: &mut dyn RuntimeObserver, seed: u64, events: usize) {
    for n in 0..events {
        if rt.callbacks.is_empty() {
            break;
        }
        let pick = (seed as usize + n) % rt.callbacks.len();
        let cb = rt.callbacks[pick].clone();
        rt.callback_depth += 1;
        let _ = rt.call_method(obs, cb.method, &[Slot::of(cb.receiver), Slot::of(0)]);
        rt.callback_depth -= 1;
    }
}

/// Pushes the `collect/` and `revealed/` digests of one outcome, and
/// counts the divergence nodes and captured payloads it holds.
fn push_digests(
    actual: &mut Vec<(String, String)>,
    seen: &mut (usize, usize),
    name: &str,
    outcome: &RevealOutcome,
) {
    for tree in outcome.files.methods.iter().flat_map(|m| &m.trees) {
        seen.0 += tree.node_count() - 1;
        for node in tree.nodes() {
            seen.1 += node
                .il
                .iter()
                .filter(|ins| tree.payload(ins).is_some())
                .count();
        }
    }
    let dump = outcome.files.to_bytes();
    actual.push((format!("collect/{name}"), hex(sha1(&dump))));
    let bytes = write_dex(&outcome.dex).expect("revealed DEX writes");
    actual.push((format!("revealed/{name}"), hex(sha1(&bytes))));
}

#[test]
fn collection_and_reveal_match_golden_digests() {
    let mut actual: Vec<(String, String)> = Vec::new();
    let mut seen = (0usize, 0usize);
    for sample in build_suite() {
        let mut rt = Runtime::new();
        let driven = sample.clone();
        let outcome = reveal(&mut rt, move |rt, obs| {
            if driven.install(rt, obs).is_ok() {
                drive_sample(rt, obs, &driven, 1, EVENTS);
            }
        })
        .unwrap_or_else(|e| panic!("{}: {e}", sample.name));
        push_digests(
            &mut actual,
            &mut seen,
            &format!("droidbench/{}", sample.name),
            &outcome,
        );
    }

    let app = generate(&AppSpec::plain_profile("golden/collect", 1_200));
    for packer in all_packers() {
        let tag = packer.map_or("plain", |id| id.profile().name);
        let packed = packer.map(|id| pack(&app.dex, &app.entry, id).expect("packs"));
        let mut rt = Runtime::new();
        let outcome = reveal(&mut rt, |rt, obs| {
            rt.input_state = 1;
            match &packed {
                Some(packed) => {
                    packed.install_observed(rt, obs).expect("installs");
                    packed.launch(rt, obs).expect("launches");
                }
                None => {
                    rt.load_dex_observed(&app.dex, "app", obs).expect("loads");
                    let activity = rt.new_instance(obs, &app.entry).expect("instantiates");
                    let class = rt.find_class(&app.entry).expect("linked");
                    let on_create = rt
                        .resolve_method(class, &SigKey::new("onCreate", "(Landroid/os/Bundle;)V"))
                        .expect("onCreate");
                    rt.call_method(obs, on_create, &[Slot::of(activity), Slot::of(0)])
                        .expect("onCreate runs");
                }
            }
            fire_callbacks(rt, obs, 1, EVENTS);
        })
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
        push_digests(&mut actual, &mut seen, &format!("app/{tag}"), &outcome);
    }

    // The inputs grow divergence nodes and capture payloads, so the
    // digests pin Algorithm 1's cases 1 and 2 and payload capture too.
    assert!(seen.0 > 0, "no input forked a divergence node");
    assert!(seen.1 > 0, "no input captured a payload");

    let expected: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.rsplit_once(' ').expect("`name digest` lines"))
        .collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .zip(&expected)
        .filter(|((name, digest), (want_name, want))| name != want_name || digest != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    if mismatched.is_empty() && actual.len() == expected.len() {
        return;
    }
    for (name, digest) in &actual {
        eprintln!("{name} {digest}");
    }
    panic!(
        "{} of {} digests differ from golden/collect_digests.txt ({} expected): {mismatched:?}",
        mismatched.len(),
        actual.len(),
        expected.len()
    );
}
