//! The DEX reader on hostile bytes. A packed app's DEX is adversarial,
//! and so is the payload of a `dexlegod` extract request, whose client
//! can compute the checksum and signature itself. On arbitrary bytes, on
//! mutated valid files, and on mutated files whose checksum and signature
//! are recomputed (so the damage reaches the parser and not just the
//! checksum), the reader returns `Ok` or `Err`, never panics, and neither
//! one allocation nor all of them together exceed a bounded multiple of
//! its input.
//!
//! Failing cases persist their RNG state in `hostile.proptest-regressions`
//! and are replayed before fresh cases on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dexlego_dex::checksum::{adler32, sha1};
use dexlego_dex::code::CatchClause;
use dexlego_dex::reader::{read_dex, read_dex_unchecked};
use dexlego_dex::writer::write_dex;
use dexlego_dex::{
    AccessFlags, ClassDef, CodeItem, DexError, DexFile, EncodedCatchHandler, EncodedField,
    EncodedMethod, EncodedValue, TryItem, DEX_MAGIC, ENDIAN_CONSTANT,
};
use proptest::collection::vec;
use proptest::prelude::*;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

/// Records the largest allocation made on the current thread and the
/// bytes all of them asked for; delegates to the system allocator.
struct Largest;

fn record(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
    TOTAL.with(|t| t.set(t.get() + size));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when it meets this trait's,
// and memory `System` hands out is only ever returned to `System`.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// What one read cost: the largest allocation and the bytes of all of
/// them.
struct Cost {
    largest: usize,
    total: usize,
}

/// Runs `read` and returns its result with what it allocated.
fn measured<T>(read: impl FnOnce() -> T) -> (T, Cost) {
    LARGEST.with(|l| l.set(0));
    TOTAL.with(|t| t.set(0));
    let out = read();
    let cost = Cost {
        largest: LARGEST.with(Cell::get),
        total: TOTAL.with(Cell::get),
    };
    (out, cost)
}

/// Fails unless reading `len` bytes cost a bounded multiple of them. One
/// allocation: an `EncodedValue` is 32 bytes and each takes one input
/// byte or more, and vectors that grow by pushing may double past what
/// they hold. All of them: the model also interns its strings in a map
/// and indexes every pool.
fn check_cost(cost: &Cost, len: usize) {
    assert!(
        cost.largest <= 64 * len + 1024,
        "{} bytes at once",
        cost.largest
    );
    assert!(
        cost.total <= 256 * len + 65_536,
        "{} bytes in all",
        cost.total
    );
}

/// A small DEX touching every section the reader parses: strings, types,
/// protos with parameters, fields, methods, a class with a superclass and
/// an interface, static values with a nested array, and code with a try
/// range and typed and catch-all handlers.
fn sample() -> Vec<u8> {
    let mut dex = DexFile::new();
    let class = dex.intern_type("Lh/A;");
    let exc = dex.intern_type("Ljava/lang/Exception;");
    let method = dex.intern_method("Lh/A;", "m", "I", &["I", "J"]);
    let field = dex.intern_field("Lh/A;", "[I", "F");
    let mut def = ClassDef::new(class);
    def.superclass = Some(dex.intern_type("Ljava/lang/Object;"));
    def.interfaces.push(dex.intern_type("Lh/I;"));
    def.static_values.push(EncodedValue::Array(vec![
        EncodedValue::Int(-7),
        EncodedValue::Array(vec![EncodedValue::String(dex.intern_string("s"))]),
        EncodedValue::Double(1.5),
    ]));
    let mut code = CodeItem::new(4, 3, 0, vec![0x1012, 0x0000, 0x0000, 0x000f]);
    code.tries.push(TryItem {
        start_addr: 0,
        insn_count: 3,
        handler_index: 0,
    });
    code.handlers.push(EncodedCatchHandler {
        catches: vec![CatchClause {
            type_idx: exc,
            addr: 3,
        }],
        catch_all_addr: Some(3),
    });
    let data = def.class_data.as_mut().unwrap();
    data.static_fields.push(EncodedField {
        field_idx: field,
        access: AccessFlags::STATIC,
    });
    data.direct_methods.push(EncodedMethod {
        method_idx: method,
        access: AccessFlags::STATIC,
        code: Some(code),
    });
    dex.add_class(def);
    write_dex(&dex).unwrap()
}

/// Recomputes the file size, SHA-1 signature and Adler-32 checksum, as a
/// client forging a request would.
fn seal(bytes: &mut [u8]) {
    let len = bytes.len() as u32;
    bytes[32..36].copy_from_slice(&len.to_le_bytes());
    let signature = sha1(&bytes[32..]);
    bytes[12..32].copy_from_slice(&signature);
    let checksum = adler32(&bytes[12..]);
    bytes[8..12].copy_from_slice(&checksum.to_le_bytes());
}

/// `bytes` with each `(offset, mask)` edit XORed in at `offset` modulo
/// the length, skipping the checksum and signature fields.
fn mutate(mut bytes: Vec<u8>, edits: &[(usize, u8)]) -> Vec<u8> {
    let len = bytes.len();
    for &(at, mask) in edits {
        let at = at % len;
        if !(8..32).contains(&at) {
            bytes[at] ^= mask;
        }
    }
    bytes
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..600), dex_header in any::<bool>()) {
        // Half the inputs carry a valid magic and endian tag, so parsing
        // reaches the pools.
        let mut bytes = bytes;
        if dex_header && bytes.len() >= 0x70 {
            bytes[..8].copy_from_slice(&DEX_MAGIC);
            bytes[40..44].copy_from_slice(&ENDIAN_CONSTANT.to_le_bytes());
        }
        let (_, cost) = measured(|| read_dex_unchecked(&bytes));
        check_cost(&cost, bytes.len());
    }

    #[test]
    fn mutated_files_never_panic(edits in vec((any::<usize>(), 1..=255u8), 1..6)) {
        let bytes = mutate(sample(), &edits);
        let (_, cost) = measured(|| read_dex_unchecked(&bytes));
        check_cost(&cost, bytes.len());
    }

    #[test]
    fn resealed_mutations_reach_the_parser(
        edits in vec((any::<usize>(), 1..=255u8), 1..6),
        word in any::<usize>(),
        value in prop_oneof![Just(u32::MAX), Just(1u32 << 20), 0u32..512, any::<u32>()],
    ) {
        let mut bytes = mutate(sample(), &edits);
        // One aligned word overwritten too: header counts and offsets,
        // id-table entries, code sizes.
        let at = 32 + (word % (bytes.len() - 36)) / 4 * 4;
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        seal(&mut bytes);
        let (read, cost) = measured(|| read_dex(&bytes));
        prop_assert!(
            !matches!(read, Err(DexError::ChecksumMismatch { .. } | DexError::SignatureMismatch)),
            "the damage never reached the parser"
        );
        check_cost(&cost, bytes.len());
    }
}

/// A bare header that declares 2^20 strings, or `u32::MAX` items of any
/// pool, is an error found without allocating for the declared count.
#[test]
fn huge_header_counts_allocate_within_the_input() {
    for (count_at, count) in [(56, 1u32 << 20), (56, u32::MAX), (64, u32::MAX)]
        .into_iter()
        .chain([72, 80, 88, 96].map(|at| (at, u32::MAX)))
    {
        let mut header = vec![0u8; 0x70];
        header[..8].copy_from_slice(&DEX_MAGIC);
        header[40..44].copy_from_slice(&ENDIAN_CONSTANT.to_le_bytes());
        header[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        let (read, cost) = measured(|| read_dex_unchecked(&header));
        assert!(read.is_err(), "count at {count_at}");
        let largest = cost.largest;
        assert!(
            largest <= 8 * header.len(),
            "{largest} bytes for count at {count_at}"
        );
    }
}

/// A valid file whose one static value nests 20,000 arrays (40 KB) is an
/// error: reading it recursively would overflow this test thread's stack.
#[test]
fn deeply_nested_static_value_is_an_error() {
    let mut dex = DexFile::new();
    let mut def = ClassDef::new(dex.intern_type("Lh/A;"));
    def.static_values.push(EncodedValue::Null);
    dex.add_class(def);
    let mut bytes = write_dex(&dex).unwrap();
    let class_def = u32::from_le_bytes(bytes[100..104].try_into().unwrap()) as usize;
    let at = bytes.len() as u32;
    bytes[class_def + 28..class_def + 32].copy_from_slice(&at.to_le_bytes());
    bytes.push(1); // one static value: 20,000 arrays of one around a null
    for _ in 0..20_000 {
        bytes.extend([0x1c, 1]);
    }
    bytes.push(0x1e);
    seal(&mut bytes);
    assert!(matches!(read_dex(&bytes), Err(DexError::Invalid(_))));
}

/// A valid file whose 1,000 string ids all point at one 100,000-byte
/// string would decode to 100 MB, one copy per id: it is an error found
/// within a bounded multiple of its 104 KB.
#[test]
fn one_item_shared_by_many_ids_is_an_error() {
    let mut bytes = write_dex(&DexFile::new()).unwrap();
    let ids_off = bytes.len();
    let data_off = (ids_off + 4 * 1_000) as u32;
    for _ in 0..1_000 {
        bytes.extend(data_off.to_le_bytes());
    }
    bytes.push(0); // the UTF-16 length, which the reader skips
    bytes.extend([b'a'; 100_000]);
    bytes.push(0);
    bytes[56..60].copy_from_slice(&1_000u32.to_le_bytes());
    bytes[60..64].copy_from_slice(&(ids_off as u32).to_le_bytes());
    seal(&mut bytes);
    let (read, cost) = measured(|| read_dex(&bytes));
    assert!(matches!(read, Err(DexError::Invalid(_))), "{read:?}");
    assert!(cost.total <= 8 * bytes.len(), "{} bytes in all", cost.total);
}

#[test]
fn the_sample_reads_back() {
    let bytes = sample();
    assert_eq!(write_dex(&read_dex(&bytes).unwrap()).unwrap(), bytes);
}
