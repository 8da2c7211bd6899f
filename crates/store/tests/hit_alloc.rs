//! What a store hit costs in heap bytes: the object file is read into one
//! buffer, and the hit's DEX keeps that buffer instead of being copied
//! out of it, so a hit allocates its DEX once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dexlego_store::{CachedResult, Key, Store, StoreConfig, TempDir};

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Sums the bytes allocated on the current thread (a reallocation counts
/// its new size); delegates to the system allocator.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when it meets this trait's,
// and memory `System` hands out is only ever returned to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_hit_allocates_its_dex_once() {
    let dir = TempDir::new("store-hit-alloc").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    let key = Key::new([0x3c; 20]);
    let n = 1 << 20;
    let entry = CachedResult {
        dex_bytes: (0..n).map(|i| (i % 251) as u8).collect(),
        counters: vec![("insns".to_owned(), 7), ("frames".to_owned(), 9)],
        phases_us: vec![("collect".to_owned(), 11), ("verify".to_owned(), 3)],
    };
    store.put(&key, &entry).unwrap();

    let before = ALLOCATED.with(Cell::get);
    let hit = store.get(&key).expect("a stored entry is a hit");
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert_eq!(hit, entry);
    assert!(
        allocated < n * 3 / 2,
        "a hit on a {n}-byte DEX allocated {allocated} bytes"
    );
}
