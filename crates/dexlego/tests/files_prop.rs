//! `CollectionFiles::from_bytes` on hostile bytes. On arbitrary bytes,
//! and on valid DLCF files truncated at every offset, with a byte
//! flipped, or with a count or length prefix set to `u32::MAX`, it
//! returns `Ok` or `Err` and never panics; a truncation or a `u32::MAX`
//! prefix is always an `Err`, found without allocating more than a small
//! multiple of the input's own size.
//!
//! Failing cases persist their RNG state in
//! `files_prop.proptest-regressions` and are replayed before fresh cases
//! on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dexlego_core::collect::CollectionTree;
use dexlego_core::files::{
    ClassRecord, CollectedValue, CollectionFiles, FieldRecord, MethodKey, MethodRecord, PoolRecord,
    ReflectionSite, ReflectionTarget, TryRecord,
};
use proptest::collection::vec;
use proptest::prelude::*;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Records the largest allocation made on the current thread; delegates
/// to the system allocator.
struct Largest;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when it meets this trait's,
// and memory `System` hands out is only ever returned to `System`.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// `Some` of `inner`'s value half of the time.
fn opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

fn name() -> impl Strategy<Value = String> {
    "[A-Za-z/;]{0,6}"
}

fn key() -> impl Strategy<Value = MethodKey> {
    (name(), name(), name()).prop_map(|(class, name, descriptor)| MethodKey {
        class,
        name,
        descriptor,
    })
}

fn value() -> impl Strategy<Value = CollectedValue> {
    prop_oneof![
        any::<bool>().prop_map(CollectedValue::Bool),
        any::<i32>().prop_map(CollectedValue::Int),
        any::<i64>().prop_map(CollectedValue::Long),
        any::<f32>().prop_map(CollectedValue::Float),
        any::<f64>().prop_map(CollectedValue::Double),
        name().prop_map(CollectedValue::Str),
        Just(CollectedValue::Null),
    ]
}

fn class() -> impl Strategy<Value = ClassRecord> {
    let field = (name(), name(), any::<u32>(), any::<bool>(), opt(value())).prop_map(
        |(name, type_desc, access, is_static, static_value)| FieldRecord {
            name,
            type_desc,
            access,
            is_static,
            static_value,
        },
    );
    (
        name(),
        opt(name()),
        vec(name(), 0..3),
        any::<u32>(),
        name(),
        vec(field, 0..3),
    )
        .prop_map(
            |(descriptor, superclass, interfaces, access, source, fields)| ClassRecord {
                descriptor,
                superclass,
                interfaces,
                access,
                source,
                fields,
            },
        )
}

fn pool() -> impl Strategy<Value = PoolRecord> {
    let triple = || (name(), name(), name());
    (
        name(),
        vec(name(), 0..3),
        vec(name(), 0..3),
        vec(triple(), 0..3),
        vec(triple(), 0..3),
    )
        .prop_map(|(source, strings, types, methods, fields)| PoolRecord {
            source,
            strings,
            types,
            methods,
            fields,
        })
}

/// A tree recorded from a short trace whose repeated pcs with other units
/// open divergence branches, some instructions carrying a payload.
fn tree() -> impl Strategy<Value = CollectionTree> {
    let step = (
        0u32..6,
        vec(any::<u16>(), 1..3),
        opt(vec(any::<u16>(), 1..3)),
    );
    vec(step, 1..10).prop_map(|trace| {
        let mut tree = CollectionTree::new();
        for (pc, units, payload) in &trace {
            tree.observe(*pc, units, payload.as_deref().map(|p| (4, p)));
        }
        tree
    })
}

fn method() -> impl Strategy<Value = MethodRecord> {
    let catches = vec((name(), any::<u32>()), 0..3);
    let try_record = (any::<u32>(), any::<u32>(), catches, opt(any::<u32>())).prop_map(
        |(start, count, catches, catch_all)| TryRecord {
            start,
            count,
            catches,
            catch_all,
        },
    );
    (
        key(),
        (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
        name(),
        vec(name(), 0..3),
        vec(try_record, 0..3),
        vec(tree(), 0..3),
    )
        .prop_map(
            |(key, (pool, access, registers, ins), return_type, params, tries, trees)| {
                MethodRecord {
                    key,
                    pool,
                    access,
                    registers,
                    ins,
                    return_type,
                    params,
                    tries,
                    trees,
                }
            },
        )
}

fn site() -> impl Strategy<Value = ReflectionSite> {
    let target = (key(), any::<bool>(), any::<u32>()).prop_map(|(key, is_static, param_count)| {
        ReflectionTarget {
            key,
            is_static,
            param_count,
        }
    });
    (key(), any::<u32>(), vec(target, 0..3)).prop_map(|(caller, dex_pc, targets)| ReflectionSite {
        caller,
        dex_pc,
        targets,
    })
}

fn files() -> impl Strategy<Value = CollectionFiles> {
    (
        vec(class(), 0..3),
        vec(pool(), 0..3),
        vec(method(), 0..3),
        vec(site(), 0..3),
    )
        .prop_map(
            |(classes, pools, methods, reflection_sites)| CollectionFiles {
                classes,
                methods,
                pools,
                reflection_sites,
            },
        )
}

/// Walks a value the way `to_bytes` writes it, noting where every `u32`
/// count or length prefix lands.
struct Prefixes {
    pos: usize,
    at: Vec<usize>,
}

impl Prefixes {
    fn skip(&mut self, n: usize) {
        self.pos += n;
    }
    fn prefix(&mut self) {
        self.at.push(self.pos);
        self.pos += 4;
    }
    fn str(&mut self, s: &str) {
        self.prefix();
        self.skip(s.len());
    }
    fn key(&mut self, key: &MethodKey) {
        for s in [&key.class, &key.name, &key.descriptor] {
            self.str(s);
        }
    }
    fn units(&mut self, units: &[u16]) {
        self.prefix();
        self.skip(2 * units.len());
    }
}

/// The offset of every `u32` count or length prefix in `f.to_bytes()`.
fn prefix_offsets(f: &CollectionFiles) -> Vec<usize> {
    let mut w = Prefixes {
        pos: 5,
        at: Vec::new(),
    };
    w.prefix();
    for class in &f.classes {
        w.str(&class.descriptor);
        w.skip(1);
        if let Some(superclass) = &class.superclass {
            w.str(superclass);
        }
        w.prefix();
        class.interfaces.iter().for_each(|i| w.str(i));
        w.skip(4);
        w.str(&class.source);
        w.prefix();
        for field in &class.fields {
            w.str(&field.name);
            w.str(&field.type_desc);
            w.skip(4 + 1 + 1);
            match &field.static_value {
                None | Some(CollectedValue::Null) => {}
                Some(CollectedValue::Bool(_)) => w.skip(1),
                Some(CollectedValue::Int(_) | CollectedValue::Float(_)) => w.skip(4),
                Some(CollectedValue::Long(_) | CollectedValue::Double(_)) => w.skip(8),
                Some(CollectedValue::Str(s)) => w.str(s),
            }
        }
    }
    w.prefix();
    for pool in &f.pools {
        w.str(&pool.source);
        for list in [&pool.strings, &pool.types] {
            w.prefix();
            list.iter().for_each(|s| w.str(s));
        }
        for list in [&pool.methods, &pool.fields] {
            w.prefix();
            for (a, b, c) in list {
                [a, b, c].into_iter().for_each(|s| w.str(s));
            }
        }
    }
    w.prefix();
    for method in &f.methods {
        w.key(&method.key);
        w.skip(4 * 4);
        w.str(&method.return_type);
        w.prefix();
        method.params.iter().for_each(|p| w.str(p));
        w.prefix();
        for t in &method.tries {
            w.skip(4 + 4);
            w.prefix();
            for (desc, _) in &t.catches {
                w.str(desc);
                w.skip(4);
            }
            w.skip(if t.catch_all.is_some() { 1 + 4 } else { 1 });
        }
        w.prefix();
        for tree in &method.trees {
            w.prefix();
            for node in tree.nodes() {
                w.skip(4 + if node.sm_end.is_some() { 1 + 4 } else { 1 } + 4);
                w.prefix();
                for ins in &node.il {
                    w.skip(4);
                    w.units(tree.units(ins));
                    w.skip(1);
                    if let Some((_, payload)) = tree.payload(ins) {
                        w.skip(4);
                        w.units(payload);
                    }
                }
            }
        }
    }
    w.prefix();
    for site in &f.reflection_sites {
        w.key(&site.caller);
        w.skip(4);
        w.prefix();
        for target in &site.targets {
            w.key(&target.key);
            w.skip(1 + 4);
        }
    }
    assert_eq!(w.pos, f.to_bytes().len(), "the walk covers the whole file");
    w.at
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..300), tagged in any::<bool>()) {
        let mut data = if tagged { b"DLCF\x01".to_vec() } else { Vec::new() };
        data.extend(bytes);
        let decoded = CollectionFiles::from_bytes(&data);
        prop_assert!(tagged || decoded.is_err(), "accepted without the magic");
    }

    #[test]
    fn every_truncation_of_a_valid_file_is_an_error(f in files()) {
        let bytes = f.to_bytes();
        prop_assert!(CollectionFiles::from_bytes(&bytes).is_ok(), "the whole file decodes");
        for cut in 0..bytes.len() {
            prop_assert!(CollectionFiles::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn flipped_bytes_never_panic(f in files(), at in any::<usize>(), mask in 1..=255u8) {
        let mut bytes = f.to_bytes();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        let _ = CollectionFiles::from_bytes(&bytes);
    }

    #[test]
    fn max_prefixes_are_errors_without_a_large_allocation(f in files(), pick in any::<usize>()) {
        let mut bytes = f.to_bytes();
        let offsets = prefix_offsets(&f);
        let at = offsets[pick % offsets.len()];
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        LARGEST.with(|l| l.set(0));
        let decoded = CollectionFiles::from_bytes(&bytes);
        let largest = LARGEST.with(Cell::get);
        prop_assert!(decoded.is_err(), "u32::MAX at offset {at} accepted");
        // No count sizes an allocation before the remaining bytes are
        // checked to hold it. What is left is the growth of the lists the
        // file really holds, worst for a small file whose first record
        // takes a four-record allocation: about 12 times its bytes.
        prop_assert!(
            largest <= 16 * bytes.len(),
            "allocated {largest} bytes for a {}-byte file",
            bytes.len()
        );
    }
}
