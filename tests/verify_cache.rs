//! Verification fast-path integration tests: the parallel fast engine
//! must match the sequential reference byte-for-byte over whole DEX
//! files, and the digest-keyed whole-DEX verify cache must reproduce fresh
//! results exactly, invalidate when code changes, report hit/miss
//! counters, and stay bounded by evicting its least recently used result.

use std::sync::Mutex;

use dexlego_suite::droidbench::appgen::{corpus_apps, generate, AppSpec};
use dexlego_suite::verifier::{
    clear_verify_cache, verify_cache_len, verify_dex_typed, TypedDex, VerifyOptions,
};

/// The verify cache is process-global; these tests serialize on it so one
/// test's `clear_verify_cache` cannot race another's warm pass.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn corpus(apps: usize, insns: usize) -> Vec<dexlego_suite::dex::DexFile> {
    corpus_apps(apps, insns)
        .into_iter()
        .map(|(_, app)| app.dex)
        .collect()
}

/// Everything observable about a typed verification result, rendered to
/// strings so two runs can be compared for exact equality: diagnostics,
/// per-method identity, frames, successors, and the disassembly.
fn fingerprint(typed: &TypedDex, dex: &dexlego_suite::dex::DexFile) -> Vec<String> {
    let mut out = vec![format!("diags: {:?}", typed.diagnostics)];
    for ir in &typed.methods {
        out.push(format!(
            "{} #{} regs={} ins={}",
            ir.signature, ir.method_idx, ir.registers, ir.ins
        ));
        out.extend(ir.disassemble(&typed.hierarchy, Some(dex)));
        for insn in ir.insns() {
            out.push(format!(
                "pc={} reachable={} frame={:?} succs={:?} uses={:?} defs={:?}",
                insn.pc(),
                insn.reachable(),
                insn.frame(),
                insn.succs(),
                insn.uses(),
                insn.defs()
            ));
        }
    }
    out
}

/// The fast engine (slab frames, parallel workers) must produce the
/// identical diagnostics and typed IR as the sequential reference engine
/// over complete generated apps. Both sides verify from an empty cache.
#[test]
fn fast_engine_matches_reference_on_whole_dex() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let fast_opts = VerifyOptions::default().with_workers(4);
    let reference_opts = VerifyOptions::default().sequential_reference();
    for dex in corpus(6, 120) {
        clear_verify_cache();
        let fast = verify_dex_typed(&dex, &fast_opts);
        clear_verify_cache();
        let reference = verify_dex_typed(&dex, &reference_opts);
        assert_eq!(fast.cache_hits + reference.cache_hits, 0);
        assert_eq!(fast.diagnostics, reference.diagnostics);
        assert_eq!(fingerprint(&fast, &dex), fingerprint(&reference, &dex));
    }
}

/// A warm cache hit must reproduce the fresh result exactly, and the
/// hit/miss counters must account for every method body.
#[test]
fn warm_cache_hit_reproduces_fresh_result() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let opts = VerifyOptions::default();
    for dex in corpus(4, 100) {
        clear_verify_cache();
        let cold = verify_dex_typed(&dex, &opts);
        assert_eq!(cold.cache_hits, 0, "cold pass must not hit");
        assert!(cold.cache_misses > 0, "cold pass must populate the cache");
        let warm = verify_dex_typed(&dex, &opts);
        assert_eq!(warm.cache_misses, 0, "warm pass must not miss");
        assert_eq!(
            warm.cache_hits, cold.cache_misses,
            "every body served from cache"
        );
        assert_eq!(fingerprint(&warm, &dex), fingerprint(&cold, &dex));
    }
}

/// Mutating a method body must invalidate the cached result: the next
/// pass misses again and matches a fresh verification of the mutated DEX
/// from an empty cache.
#[test]
fn cache_invalidates_when_code_changes() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let opts = VerifyOptions::default();
    let mut dex = corpus(1, 120).pop().unwrap();
    clear_verify_cache();
    let before = verify_dex_typed(&dex, &opts);
    assert!(before.cache_misses > 0);

    // Grow one method's frame: same instructions, different code digest.
    let method = dex
        .class_defs_mut()
        .iter_mut()
        .filter_map(|c| c.class_data.as_mut())
        .flat_map(|d| {
            d.direct_methods
                .iter_mut()
                .chain(d.virtual_methods.iter_mut())
        })
        .find(|m| m.code.is_some())
        .expect("corpus app has a method body");
    let code = method.code.as_mut().unwrap();
    code.registers_size += 1;

    let after = verify_dex_typed(&dex, &opts);
    assert_eq!(after.cache_hits, 0, "changed code must miss the cache");
    clear_verify_cache();
    let fresh = verify_dex_typed(&dex, &opts);
    assert_eq!(fresh.cache_hits, 0);
    assert_eq!(fingerprint(&after, &dex), fingerprint(&fresh, &dex));
}

/// `clear_verify_cache` empties the store and `verify_cache_len` counts
/// one whole-DEX result per distinct verification.
#[test]
fn clear_resets_cache_population() {
    let _guard = CACHE_LOCK.lock().unwrap();
    clear_verify_cache();
    assert_eq!(verify_cache_len(), 0);
    let dexes = corpus(2, 80);
    for dex in &dexes {
        verify_dex_typed(dex, &VerifyOptions::default());
    }
    assert_eq!(verify_cache_len(), 2, "one result per DEX");
    verify_dex_typed(&dexes[0], &VerifyOptions::default());
    assert_eq!(verify_cache_len(), 2, "a hit adds no result");
    verify_dex_typed(&dexes[0], &VerifyOptions::errors_only());
    assert_eq!(verify_cache_len(), 3, "other options, other result");
    clear_verify_cache();
    assert_eq!(verify_cache_len(), 0);
}

/// The cache is bounded by the typed instructions it holds: three DEXes
/// of ~100k instructions each overflow it, so the least recently used one
/// is evicted and misses again, while one re-verified in between stays.
#[test]
fn least_recently_used_result_is_evicted() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let opts = VerifyOptions::default();
    let [a, b, c] = ["a", "b", "c"]
        .map(|name| generate(&AppSpec::plain_profile(&format!("gen/lru/{name}"), 100_000)).dex);
    clear_verify_cache();
    let first = verify_dex_typed(&a, &opts);
    assert_eq!(first.cache_hits, 0);
    assert!(first.insn_count() > 90_000, "{}", first.insn_count());
    verify_dex_typed(&b, &opts);
    assert_eq!(verify_dex_typed(&a, &opts).cache_misses, 0, "a is cached");
    verify_dex_typed(&c, &opts);
    assert_eq!(
        verify_dex_typed(&a, &opts).cache_misses,
        0,
        "a was used after b, so b goes first"
    );
    let again = verify_dex_typed(&b, &opts);
    assert_eq!(again.cache_hits, 0, "b was evicted");
    clear_verify_cache();
}
