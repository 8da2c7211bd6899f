//! Cross-crate integration tests: the full DexLego pipeline over the
//! benchmark corpus, packers, baselines, and analysis tools.

use dexlego_suite::analysis::tools::{all_tools, droidsafe, flowdroid, horndroid};
use dexlego_suite::dex::verify::{verify, Strictness};
use dexlego_suite::dexlego::baseline::{dump, BaselineKind};
use dexlego_suite::dexlego::pipeline::reveal;
use dexlego_suite::dexlego::JitCollector;
use dexlego_suite::droidbench::samples::build_suite;
use dexlego_suite::droidbench::{drive_sample, Category, Sample};
use dexlego_suite::packer::{pack, PackerId};
use dexlego_suite::runtime::observer::{NullObserver, RuntimeObserver};
use dexlego_suite::runtime::Runtime;

fn reveal_with_fuzz(sample: &Sample) -> dexlego_suite::dex::DexFile {
    let mut rt = Runtime::new();
    reveal(&mut rt, |rt, obs| {
        if sample.install(rt, obs).is_err() {
            return;
        }
        for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
            drive_sample(rt, obs, sample, seed, 4);
        }
    })
    .unwrap_or_else(|e| panic!("{}: {e}", sample.name))
    .dex
}

fn one_of(category: Category) -> Sample {
    build_suite()
        .into_iter()
        .find(|s| s.category == category)
        .unwrap_or_else(|| panic!("no sample of {category:?}"))
}

/// The per-category verdict matrix that generates the paper's Table II:
/// (category, [FD, DS, HD] on original, [FD, DS, HD] after DexLego).
#[test]
fn category_verdict_matrix() {
    let cases: Vec<(Category, [bool; 3], [bool; 3])> = vec![
        (Category::Direct, [true, true, true], [true, true, true]),
        (Category::Callback, [true, true, true], [true, true, true]),
        (
            Category::ArrayIndexLeak,
            [true, true, true],
            [true, true, true],
        ),
        // Tablet-gated: statically visible, not collectable on a phone.
        (
            Category::TabletGated,
            [true, true, true],
            [false, false, false],
        ),
        // Constant-string reflection: FlowDroid alone lacks reflection.
        (
            Category::ReflectionConst,
            [false, true, true],
            [true, true, true],
        ),
        // ICC: FlowDroid misses before *and* after (capability, not hiding).
        (Category::Icc, [false, true, true], [false, true, true]),
        // Implicit flows: HornDroid only, before and after.
        (
            Category::Implicit,
            [false, false, true],
            [false, false, true],
        ),
        // Hidden code categories: nobody before, (mostly) everybody after.
        (
            Category::ReflectionEncrypted,
            [false, false, false],
            [true, true, true],
        ),
        // Boxed args at unknown index: HornDroid's precise arrays drop it.
        (
            Category::ReflectionBoxed,
            [false, false, false],
            [true, true, false],
        ),
        (
            Category::DynamicLoading,
            [false, false, false],
            [true, true, true],
        ),
        (
            Category::SelfModifying,
            [false, false, false],
            [true, true, true],
        ),
        // Deep revealed chain exceeds DroidSafe's depth bound.
        (
            Category::SelfModifyingDeep,
            [false, false, false],
            [true, false, true],
        ),
        // Benign categories: entries are false-positive flags.
        (
            Category::DeadCodeMethod,
            [true, true, true],
            [false, false, false],
        ),
        (
            Category::DeadCodeBranch,
            [true, true, true],
            [false, false, false],
        ),
        (
            Category::ArrayUnknownIndex,
            [true, true, false],
            [true, true, false],
        ),
        (
            Category::OverwriteBenign,
            [false, true, false],
            [false, true, false],
        ),
        (
            Category::ImplicitBenign,
            [false, false, true],
            [false, false, true],
        ),
        (
            Category::FuzzPathAll,
            [false, false, false],
            [true, true, true],
        ),
        (
            Category::FuzzPathFlowInsens,
            [false, false, false],
            [false, true, false],
        ),
        (
            Category::FuzzPathImplicit,
            [false, false, false],
            [false, false, true],
        ),
        (
            Category::PlainBenign,
            [false, false, false],
            [false, false, false],
        ),
    ];
    let tools = [flowdroid(), droidsafe(), horndroid()];
    for (category, before, after) in cases {
        let sample = one_of(category);
        for (tool, &expected) in tools.iter().zip(&before) {
            assert_eq!(
                tool.run(&sample.dex).leaky(),
                expected,
                "{category:?} original, {}",
                tool.name
            );
        }
        let revealed = reveal_with_fuzz(&sample);
        for (tool, &expected) in tools.iter().zip(&after) {
            assert_eq!(
                tool.run(&revealed).leaky(),
                expected,
                "{category:?} after DexLego, {}",
                tool.name
            );
        }
    }
}

/// Every leaky sample except the environment-gated ones actually leaks at
/// runtime under the standard fuzzing campaign, and no benign sample does
/// (modulo the fuzz-path categories, which leak only under fuzz input —
/// the reason they become static false positives).
#[test]
fn runtime_ground_truth_matches_labels() {
    for sample in build_suite() {
        let rt = dexlego_suite::droidbench::driver::run_fresh(&sample, 0x5eed_0001, 4);
        let leaked = rt.log.tainted_sinks().count() > 0;
        match sample.category {
            Category::TabletGated | Category::Implicit => {
                // Implicit flows don't propagate runtime taint; tablet
                // samples don't execute the leak on a phone.
                assert!(!leaked, "{}: unexpected runtime taint", sample.name);
            }
            Category::FuzzPathAll | Category::FuzzPathFlowInsens | Category::FuzzPathImplicit => {
                // Leak-shaped flows only under fuzz input; either outcome
                // is acceptable at runtime, the *label* stays benign.
            }
            c if c.leaky() => {
                assert!(leaked, "{}: leaky sample did not leak", sample.name);
            }
            _ => {
                assert!(!leaked, "{}: benign sample leaked", sample.name);
            }
        }
    }
}

/// Every revealed DEX is a valid, sorted, serialisable file.
#[test]
fn revealed_dexes_are_valid_files() {
    for category in [
        Category::Direct,
        Category::SelfModifying,
        Category::DynamicLoading,
        Category::ReflectionEncrypted,
        Category::Icc,
    ] {
        let sample = one_of(category);
        let revealed = reveal_with_fuzz(&sample);
        verify(&revealed, Strictness::Sorted).unwrap_or_else(|e| panic!("{}: {e}", sample.name));
        let bytes = dexlego_suite::dex::writer::write_dex(&revealed).unwrap();
        let back = dexlego_suite::dex::reader::read_dex(&bytes).unwrap();
        assert_eq!(back, revealed, "{}", sample.name);
    }
}

/// Packing a sample and revealing it gives the same analysis verdicts as
/// revealing the original (Table III's DexLego column equals Table II's).
#[test]
fn packed_reveal_equals_plain_reveal() {
    for category in [Category::Direct, Category::DynamicLoading] {
        let sample = one_of(category);
        let plain = reveal_with_fuzz(&sample);
        let packed = pack(&sample.dex, &sample.entry, PackerId::P360).unwrap();
        let mut rt = Runtime::new();
        let packed2 = packed.clone();
        let revealed = reveal(&mut rt, move |rt, obs| {
            if packed2.install_observed(rt, obs).is_err() {
                return;
            }
            let _ = packed2.launch(rt, obs);
        })
        .unwrap()
        .dex;
        for tool in all_tools() {
            assert_eq!(
                tool.run(&plain).leaky(),
                tool.run(&revealed).leaky(),
                "{}: packed vs plain reveal verdicts differ for {}",
                sample.name,
                tool.name
            );
        }
    }
}

/// The observer picks the interpreter's fetch path. Algorithm 1's
/// collector wants every instruction, so a collecting drive runs per step
/// and never predecodes or quickens; a passive drive of the same packed
/// app runs the quickened tier over the predecoded cache. Both execute the
/// same instructions.
#[test]
fn collector_frames_run_per_step() {
    let sample = one_of(Category::Direct);
    let packed = pack(&sample.dex, &sample.entry, PackerId::P360).unwrap();
    let drive = |obs: &mut dyn RuntimeObserver| {
        let mut rt = Runtime::new();
        packed.install_observed(&mut rt, obs).unwrap();
        packed.launch(&mut rt, obs).unwrap();
        rt.stats
    };

    let mut collector = JitCollector::new();
    let collected = drive(&mut collector);
    assert!(
        !collector.into_files().methods.is_empty(),
        "nothing collected"
    );
    assert_eq!(
        (collected.predecodes, collected.quickens),
        (0, 0),
        "collecting frames must run per step"
    );

    let passive = drive(&mut NullObserver);
    assert!(passive.predecodes > 0, "passive frames must predecode");
    assert_eq!(passive.insns, collected.insns, "same execution either way");
}

/// DexHunter/AppSpear dumps of a packed dynamic-loading sample contain the
/// payload classes (the mechanism behind Table III's +3 true positives).
#[test]
fn baseline_dump_contains_dynamically_loaded_classes() {
    let sample = one_of(Category::DynamicLoading);
    let packed = pack(&sample.dex, &sample.entry, PackerId::P360).unwrap();
    let mut rt = Runtime::new();
    packed.install(&mut rt).unwrap();
    packed.launch(&mut rt, &mut NullObserver).unwrap();
    for kind in [BaselineKind::DexHunter, BaselineKind::AppSpear] {
        let dumped = dump(&rt, kind).unwrap();
        let has_payload = dumped.class_defs().iter().any(|c| {
            dumped
                .type_descriptor(c.class_idx)
                .is_ok_and(|d| d.contains("Payload"))
        });
        assert!(
            has_payload,
            "{kind:?} dump misses the dynamically loaded class"
        );
        assert!(
            flowdroid().run(&dumped).leaky(),
            "{kind:?}: payload flow visible in the dump"
        );
    }
}

/// The instrument class's guard fields make both tamper variants reachable
/// without ever colliding with app identifiers.
#[test]
fn instrument_class_is_isolated() {
    let sample = one_of(Category::SelfModifying);
    let revealed = reveal_with_fuzz(&sample);
    let inst = revealed
        .find_class(dexlego_suite::dexlego::INSTRUMENT_CLASS)
        .expect("instrument class present");
    let data = inst.class_data.as_ref().unwrap();
    assert!(!data.static_fields.is_empty(), "guard fields exist");
    assert_eq!(
        data.static_fields.len(),
        inst.static_values.len(),
        "every guard field has an initial value"
    );
}
