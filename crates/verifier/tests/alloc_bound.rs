//! Deterministic cost gate for typed verification: heap allocations, not
//! time, so no host noise can flip it. Verifying a one-method DEX must
//! allocate a fixed number of buffers per method, not per instruction:
//! the CFG, the fixpoint frames and the typed IR live in per-method
//! arrays, so ten times the instructions costs at most a few more `Vec`
//! doublings per buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::Opcode;
use dexlego_dex::DexFile;
use dexlego_verifier::{clear_verify_cache, verify_dex_typed, VerifyOptions};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations on the current thread; delegates to the system
/// allocator.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A one-method DEX whose body is `insns` straight-line instructions:
/// `const/4 v0, 0`, then `add-int/lit8 v0, v0, 1` repeated, then
/// `return v0`. Every value is read, so no lint fires.
fn straight_line(insns: usize) -> DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class("Lalloc/Line;", |c| {
        c.static_method("run", &[], "I", 1, |m| {
            m.asm.const4(0, 0);
            for _ in 2..insns {
                m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            }
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.build().unwrap()
}

/// Allocations made by one uncached, single-worker typed verification.
fn verify_allocs(dex: &DexFile) -> u64 {
    let opts = VerifyOptions::default().with_workers(1);
    clear_verify_cache();
    let before = allocs();
    let typed = verify_dex_typed(dex, &opts);
    let during = allocs() - before;
    assert!(typed.diagnostics.is_empty(), "{:?}", typed.diagnostics);
    assert_eq!(typed.cache_hits, 0);
    during
}

/// Buffers sized by the body are allocated up front from its length, or
/// grow by doubling (the cache key's byte buffer); ten times the
/// instructions adds at most ⌈log2 10⌉ = 4 reallocations to each, and no
/// more than this many may grow.
const GROWING_BUFFERS: u64 = 4;

#[test]
fn typed_verification_allocates_per_method_not_per_instruction() {
    let small = straight_line(400);
    let large = straight_line(4_000);
    // Warm-up: process-wide statics (the verify cache) start empty.
    verify_allocs(&small);
    let (small_allocs, large_allocs) = (verify_allocs(&small), verify_allocs(&large));
    assert!(
        large_allocs < 200,
        "4,000 straight-line instructions took {large_allocs} allocations"
    );
    assert!(
        large_allocs <= small_allocs + 4 * GROWING_BUFFERS,
        "400 instructions took {small_allocs} allocations, 4,000 took {large_allocs}"
    );
}
