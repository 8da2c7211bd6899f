//! `entry::decode` on hostile bytes. Store reads reach it behind a
//! checksum, but a `backfill` request's `entry` comes straight off the
//! wire. On arbitrary bytes, and on valid payloads truncated at every
//! offset, with a byte flipped, or with a count or length prefix set to
//! `u32::MAX`, it returns `Ok` or `Err` and never panics; a `u32::MAX`
//! prefix is always an `Err`, found without allocating more than a few
//! times the payload's own size.
//!
//! Failing cases persist their RNG state in
//! `entry_prop.proptest-regressions` and are replayed before fresh cases
//! on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dexlego_store::entry::{decode, encode};
use dexlego_store::CachedResult;
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

/// Name/value lists shaped like a job's counters and phase timings.
fn pairs() -> impl Strategy<Value = Vec<(String, u64)>> {
    vec(("[a-z_]{0,20}", any::<u64>()), 0..14)
}

fn result() -> impl Strategy<Value = CachedResult> {
    (vec(any::<u8>(), 0..200), pairs(), pairs()).prop_map(|(dex_bytes, counters, phases_us)| {
        CachedResult {
            dex_bytes,
            counters,
            phases_us,
        }
    })
}

/// The offset of every `u32` count or length prefix in `encode(r)`.
fn prefix_offsets(r: &CachedResult) -> Vec<usize> {
    let mut offsets = vec![4];
    let mut pos = 8 + r.dex_bytes.len();
    for list in [&r.counters, &r.phases_us] {
        offsets.push(pos);
        pos += 4;
        for (name, _) in list {
            offsets.push(pos);
            pos += 4 + name.len() + 8;
        }
    }
    offsets
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..300), tagged in any::<bool>()) {
        let mut data = if tagged { b"RES6".to_vec() } else { Vec::new() };
        data.extend(bytes);
        let _ = decode(&data);
    }

    #[test]
    fn valid_payloads_roundtrip_and_every_truncation_is_an_error(r in result()) {
        let payload = encode(&r);
        prop_assert_eq!(decode(&payload).expect("a valid payload decodes"), r);
        for cut in 0..payload.len() {
            prop_assert!(decode(&payload[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn flipped_bytes_never_panic(r in result(), at in any::<usize>(), mask in 1..=255u8) {
        let mut payload = encode(&r);
        let at = at % payload.len();
        payload[at] ^= mask;
        let _ = decode(&payload);
    }

    #[test]
    fn max_prefixes_are_errors_without_a_large_allocation(r in result(), pick in any::<usize>()) {
        let mut payload = encode(&r);
        let offsets = prefix_offsets(&r);
        let at = offsets[pick % offsets.len()];
        payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        LARGEST.with(|l| l.set(0));
        let decoded = decode(&payload);
        let largest = LARGEST.with(Cell::get);
        prop_assert!(decoded.is_err(), "u32::MAX at offset {at} accepted");
        // A list reserves room only for the pairs the remaining bytes can
        // hold: at least 12 bytes each on the wire, 32 in memory.
        prop_assert!(
            largest <= 3 * payload.len(),
            "allocated {largest} bytes for a {}-byte payload",
            payload.len()
        );
    }
}
