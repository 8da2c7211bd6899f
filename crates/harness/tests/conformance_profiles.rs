//! Differential conformance per packer profile: for every profile of
//! Table I (plus the re-hiding Advanced packer), the original app and the
//! DEX that DexLego extracts *through* that packer must produce equal
//! observable event streams — method entries, field writes, and branch
//! outcomes — under the same driving inputs.

use dexlego_core::pipeline::reveal;
use dexlego_dex::DexFile;
use dexlego_harness::check_reveal;
use dexlego_packer::{pack, PackerError, PackerId};
use dexlego_runtime::{Env, Runtime, RuntimeError};

const SEEDS: [u64; 2] = [1, 5];
const EVENTS: usize = 3;
const FUEL: u64 = 5_000_000;

/// Packs a generated app with `id`, extracts it with the standard driving
/// campaign, and returns (original DEX, revealed DEX, entry, events driven).
fn extract_through(id: PackerId, tag: &str) -> (DexFile, DexFile, String, usize) {
    let app = dexlego_droidbench::appgen::generate(
        &dexlego_droidbench::appgen::AppSpec::plain_profile(&format!("conf/{tag}"), 180),
    );
    let packed = pack(&app.dex, &app.entry, id).expect("packs");
    // The re-hiding profile garbles unpacked code once the entry activity
    // returns, so only `onCreate` is driven (and compared) for it.
    let events = if id.profile().rehide_after_run {
        0
    } else {
        EVENTS
    };
    let mut rt = Runtime::with_env(Env {
        insn_budget: FUEL,
        ..Env::default()
    });
    let outcome = reveal(&mut rt, |rt, obs| {
        packed.install_observed(rt, obs).expect("installs");
        let first = SEEDS[0];
        rt.input_state = first | 1;
        if let Err(PackerError::Runtime(RuntimeError::BudgetExhausted)) = packed.launch(rt, obs) {
            panic!("launch timed out");
        }
        for &seed in &SEEDS {
            rt.input_state = seed | 1;
            rt.fire_callbacks(obs, seed, events)
                .expect("callbacks run within budget");
        }
    })
    .expect("reveal succeeds");
    (app.dex, outcome.dex, app.entry, events)
}

fn assert_conformant(id: PackerId, tag: &str) {
    let (original, revealed, entry, events) = extract_through(id, tag);
    check_reveal(&original, &revealed, &entry, &SEEDS, events, FUEL)
        .unwrap_or_else(|diff| panic!("{tag}: behaviour diverged: {diff}"));
}

#[test]
fn conformance_through_360() {
    assert_conformant(PackerId::P360, "p360");
}

#[test]
fn conformance_through_alibaba() {
    assert_conformant(PackerId::Alibaba, "alibaba");
}

#[test]
fn conformance_through_tencent() {
    assert_conformant(PackerId::Tencent, "tencent");
}

#[test]
fn conformance_through_baidu() {
    assert_conformant(PackerId::Baidu, "baidu");
}

#[test]
fn conformance_through_bangcle() {
    assert_conformant(PackerId::Bangcle, "bangcle");
}

#[test]
fn conformance_through_advanced_rehiding() {
    assert_conformant(PackerId::Advanced, "advanced");
}

/// A deliberately divergent "revealed" DEX is caught: drop one method body
/// from the real revealed DEX and the differential check must report it.
#[test]
fn divergence_is_detected() {
    let (original, mut revealed, entry, events) = extract_through(PackerId::P360, "detect");
    // Garble the entry's onCreate in the revealed DEX: replace its code
    // with an immediate return-void, erasing every downstream event.
    let class_idx = (0..revealed.class_defs().len())
        .find(|&i| {
            revealed.type_descriptor(revealed.class_defs()[i].class_idx) == Ok(entry.as_str())
        })
        .expect("entry class is in the revealed DEX");
    let def = &mut revealed.class_defs_mut()[class_idx];
    let data = def.class_data.as_mut().expect("entry has class data");
    let mut truncated = false;
    for m in data
        .direct_methods
        .iter_mut()
        .chain(data.virtual_methods.iter_mut())
    {
        if let Some(code) = &mut m.code {
            if code.insns.len() > 1 {
                code.insns = vec![0x000e]; // return-void
                code.tries.clear();
                truncated = true;
                break;
            }
        }
    }
    assert!(truncated, "found a method to truncate");
    let diff = check_reveal(&original, &revealed, &entry, &SEEDS, events, FUEL)
        .expect_err("truncation must be caught");
    assert!(
        diff.contains("differ") || diff.contains("empty"),
        "unexpected diagnostic: {diff}"
    );
}
