//! Process-level whole-DEX verification cache.
//!
//! A [`crate::verify_dex_typed`] result — diagnostics, the shared method
//! IRs and the interned class hierarchy — is keyed by one SHA-1 digest of
//! everything that can influence it:
//!
//! * [`VERIFIER_VERSION`] — bumped whenever verification semantics change,
//!   so a new build never replays results from an older rule set;
//! * the constant pools and class-definition hierarchy links. Two DEX
//!   files that agree on them intern identical pools in identical order,
//!   so cached `TypeId`s, pool-index-dependent diagnostics and the
//!   identity-stamped IR are valid verbatim;
//! * an options fingerprint (lint enablement, suppressed rules);
//! * every method body in class-definition order: its pool index,
//!   staticness, frame configuration, raw code units, and try/catch
//!   tables.
//!
//! The store is process-global behind a mutex. It evicts the least
//! recently used result once the typed-IR instructions it holds exceed
//! [`CAPACITY`], charging every result at least one, so memory stays
//! bounded however large or numerous the verified DEX files are. What hits
//! is a re-verification of an identical DEX: a store miss whose revealed
//! DEX matches an earlier one (a fuzz-seed variant of a packed app reveals
//! the same DEX), or a bench's repeated rounds. A hit shares the IR and
//! hierarchy without cloning them and is byte-identical to a fresh run
//! (asserted by the cache tests).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use dexlego_dex::checksum::sha1;
use dexlego_dex::code::CodeItem;
use dexlego_dex::DexFile;

use crate::{TypedDex, VerifyOptions};

/// Version stamp folded into every cache key. Bump the suffix whenever
/// verification semantics change (new rules, lattice changes, message
/// edits), so stale results can never replay across versions.
pub const VERIFIER_VERSION: &str =
    concat!("dexlego-verifier-", env!("CARGO_PKG_VERSION"), "+vfy.2");

/// Typed-IR instructions held before least-recently-used eviction: room
/// for two results the size of Table I's largest app (Contacts, 103,602
/// insns).
const CAPACITY: usize = 1 << 18;

#[derive(Default)]
struct Store {
    /// Each result with the tick of its last use.
    map: HashMap<[u8; 20], (Arc<TypedDex>, u64)>,
    /// Last-use tick to key, least recently used first.
    recency: BTreeMap<u64, [u8; 20]>,
    tick: u64,
    /// Instructions charged to the held results.
    held: usize,
}

/// What a result is charged against [`CAPACITY`].
fn cost(typed: &TypedDex) -> usize {
    typed.insn_count().max(1)
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(Mutex::default)
}

/// The cached result for `key`, marked as the most recently used.
pub(crate) fn lookup(key: &[u8; 20]) -> Option<Arc<TypedDex>> {
    let mut guard = store().lock().expect("verify cache lock");
    let s = &mut *guard;
    let (typed, last_use) = s.map.get_mut(key)?;
    s.tick += 1;
    s.recency.remove(&*last_use);
    *last_use = s.tick;
    s.recency.insert(s.tick, *key);
    Some(Arc::clone(typed))
}

/// Caches a fresh result, then evicts least recently used results until
/// the store is within [`CAPACITY`] again (a result larger than the whole
/// capacity is evicted at once).
pub(crate) fn insert(key: [u8; 20], typed: TypedDex) {
    let mut guard = store().lock().expect("verify cache lock");
    let s = &mut *guard;
    if s.map.contains_key(&key) {
        return;
    }
    s.tick += 1;
    s.held += cost(&typed);
    s.map.insert(key, (Arc::new(typed), s.tick));
    s.recency.insert(s.tick, key);
    while s.held > CAPACITY {
        let Some((_, old)) = s.recency.pop_first() else {
            break;
        };
        if let Some((gone, _)) = s.map.remove(&old) {
            s.held -= cost(&gone);
        }
    }
}

/// Empties the cache (benches and tests).
pub(crate) fn clear() {
    *store().lock().expect("verify cache lock") = Store::default();
}

/// Number of cached whole-DEX results.
pub(crate) fn len() -> usize {
    store().lock().expect("verify cache lock").map.len()
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Cache key for one typed verification of `dex` under `options`: the
/// version stamp, every pool and class-definition link the interning
/// reads, the options fingerprint, and `bodies` (pool index, staticness,
/// code) in class-definition order. One buffer walk and one digest.
pub(crate) fn dex_key<'a>(
    dex: &DexFile,
    options: &VerifyOptions,
    bodies: impl Iterator<Item = (u32, bool, &'a CodeItem)>,
) -> [u8; 20] {
    let mut buf = Vec::with_capacity(8192);
    put_str(&mut buf, VERIFIER_VERSION);
    put_u32(&mut buf, dex.strings().len() as u32);
    for s in dex.strings() {
        put_str(&mut buf, s);
    }
    put_u32(&mut buf, dex.type_ids().len() as u32);
    for &t in dex.type_ids() {
        put_u32(&mut buf, t);
    }
    put_u32(&mut buf, dex.protos().len() as u32);
    for p in dex.protos() {
        put_u32(&mut buf, p.shorty);
        put_u32(&mut buf, p.return_type);
        put_u32(&mut buf, p.parameters.len() as u32);
        for &param in &p.parameters {
            put_u32(&mut buf, param);
        }
    }
    put_u32(&mut buf, dex.field_ids().len() as u32);
    for f in dex.field_ids() {
        put_u32(&mut buf, f.class);
        put_u32(&mut buf, f.type_);
        put_u32(&mut buf, f.name);
    }
    put_u32(&mut buf, dex.method_ids().len() as u32);
    for m in dex.method_ids() {
        put_u32(&mut buf, m.class);
        put_u32(&mut buf, m.proto);
        put_u32(&mut buf, m.name);
    }
    put_u32(&mut buf, dex.class_defs().len() as u32);
    for c in dex.class_defs() {
        put_u32(&mut buf, c.class_idx);
        put_u32(&mut buf, c.access.bits());
        put_u32(&mut buf, c.superclass.map_or(u32::MAX, |s| s));
        put_u32(&mut buf, c.interfaces.len() as u32);
        for &i in &c.interfaces {
            put_u32(&mut buf, i);
        }
    }
    // The options that select between distinct result spaces; the worker
    // count is not one of them.
    let mut allowed: Vec<&str> = options.allowed.iter().map(String::as_str).collect();
    allowed.sort_unstable();
    put_str(
        &mut buf,
        &format!("eo={}|allow={}", options.errors_only, allowed.join(",")),
    );
    for (method_idx, is_static, code) in bodies {
        put_u32(&mut buf, method_idx);
        buf.push(u8::from(is_static));
        put_code(&mut buf, code);
    }
    sha1(&buf)
}

/// Serialises everything verification reads out of one method body.
fn put_code(buf: &mut Vec<u8>, code: &CodeItem) {
    put_u32(buf, u32::from(code.registers_size));
    put_u32(buf, u32::from(code.ins_size));
    put_u32(buf, code.insns.len() as u32);
    for &unit in &code.insns {
        buf.extend_from_slice(&unit.to_le_bytes());
    }
    put_u32(buf, code.tries.len() as u32);
    for t in &code.tries {
        put_u32(buf, t.start_addr);
        put_u32(buf, u32::from(t.insn_count));
        put_u32(buf, t.handler_index as u32);
    }
    put_u32(buf, code.handlers.len() as u32);
    for h in &code.handlers {
        put_u32(buf, h.catches.len() as u32);
        for c in &h.catches {
            put_u32(buf, c.type_idx);
            put_u32(buf, c.addr);
        }
        put_u32(buf, h.catch_all_addr.map_or(u32::MAX, |a| a));
    }
}

#[cfg(test)]
mod tests {
    use dexlego_dex::{ClassDef, EncodedCatchHandler, TryItem};

    use super::*;

    fn key(dex: &DexFile, options: &VerifyOptions, bodies: &[(u32, bool, CodeItem)]) -> [u8; 20] {
        dex_key(dex, options, bodies.iter().map(|(i, s, c)| (*i, *s, c)))
    }

    #[test]
    fn every_input_changes_the_key() {
        let mut dex = DexFile::new();
        dex.intern_type("La;");
        let opts = VerifyOptions::default();
        let bodies = vec![(3, true, CodeItem::new(2, 0, 0, vec![0x0112, 0x000e]))];
        let k = key(&dex, &opts, &bodies);
        assert_eq!(k, key(&dex, &opts, &bodies), "the key is deterministic");
        // The version stamp leads the digested buffer, so a version bump
        // invalidates every key.
        assert!(VERIFIER_VERSION.contains("+vfy."));

        // Pools and class-definition links.
        let mut grown = dex.clone();
        grown.intern_type("Lb;");
        assert_ne!(k, key(&grown, &opts, &bodies), "type pool");
        let mut grown = dex.clone();
        grown.intern_string("s");
        assert_ne!(k, key(&grown, &opts, &bodies), "string pool");
        let mut linked = dex.clone();
        linked.add_class(ClassDef::new(0));
        let with_class = key(&linked, &opts, &bodies);
        assert_ne!(k, with_class, "class defs");
        linked.class_defs_mut()[0].superclass = Some(0);
        assert_ne!(with_class, key(&linked, &opts, &bodies), "superclass");

        // Options: lint enablement, suppressed rules.
        assert_ne!(k, key(&dex, &VerifyOptions::errors_only(), &bodies));
        assert_ne!(k, key(&dex, &opts.clone().allow("L0001"), &bodies));
        assert_eq!(
            k,
            key(&dex, &opts.clone().with_workers(3), &bodies),
            "the worker count never changes results"
        );

        // Method bodies.
        let changed = |edit: &dyn Fn(&mut (u32, bool, CodeItem))| {
            let mut b = bodies.clone();
            edit(&mut b[0]);
            key(&dex, &opts, &b)
        };
        assert_ne!(k, changed(&|b| b.0 = 4), "method index");
        assert_ne!(k, changed(&|b| b.1 = false), "staticness");
        assert_ne!(k, changed(&|b| b.2.insns[0] = 0x0212), "code units");
        assert_ne!(k, changed(&|b| b.2.registers_size = 3), "registers");
        assert_ne!(k, changed(&|b| b.2.ins_size = 1), "ins");
        assert_ne!(
            k,
            changed(&|b| {
                b.2.tries.push(TryItem {
                    start_addr: 0,
                    insn_count: 1,
                    handler_index: 0,
                });
                b.2.handlers.push(EncodedCatchHandler {
                    catches: Vec::new(),
                    catch_all_addr: Some(1),
                });
            }),
            "try/catch tables"
        );
        assert_ne!(k, key(&dex, &opts, &[]), "body count");
    }

    #[test]
    fn eviction_charges_every_result_at_least_one() {
        clear();
        let key_of = |i: usize| {
            let mut key = [0u8; 20];
            key[..8].copy_from_slice(&(i as u64).to_le_bytes());
            key
        };
        for i in 0..CAPACITY + 10 {
            insert(key_of(i), TypedDex::default());
        }
        assert_eq!(len(), CAPACITY);
        assert!(lookup(&key_of(9)).is_none(), "oldest results evicted");
        assert!(lookup(&key_of(10)).is_some());
        clear();
        assert_eq!(len(), 0);
    }
}
