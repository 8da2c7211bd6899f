//! Steady-state hot-loop allocation check: once a method is warm, an
//! execution must perform zero heap allocations per call — quickened under
//! a passive observer (in-place cell rewrites, fused dispatch, borrowed
//! fetches, pooled frames) AND per step under an observer that wants
//! instruction events (fixed-size unit buffer, no owned vectors).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::Opcode;
use dexlego_dex::DexFile;
use dexlego_runtime::class::SigKey;
use dexlego_runtime::observer::{NullObserver, RuntimeObserver};
use dexlego_runtime::{Runtime, Slot};

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

/// A tight arithmetic loop: no invokes, no heap traffic — every
/// allocation observed during a warm call is interpreter overhead.
fn hot_loop_app() -> (DexFile, String) {
    let entry = "Lalloc/Hot;".to_owned();
    let mut pb = ProgramBuilder::new();
    pb.class(&entry, |c| {
        c.static_method("spin", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let (top, done) = (m.asm.new_label(), m.asm.new_label());
            m.asm.const4(0, 0);
            m.asm.const4(1, 0);
            m.asm.bind(top);
            m.asm.if_cmp(Opcode::IfGe, 1, n, done);
            m.asm.binop(Opcode::AddInt, 0, 0, 1);
            m.asm.binop_lit8(Opcode::XorIntLit8, 0, 0, 0x2f);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    (pb.build().unwrap(), entry)
}

/// A no-op observer that wants instruction events, so every frame runs
/// per step.
struct PerStep;

impl RuntimeObserver for PerStep {}

fn warm_call_alloc_count(obs: &mut dyn RuntimeObserver) -> u64 {
    let (dex, entry) = hot_loop_app();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let class = rt.find_class(&entry).unwrap();
    let spin = rt
        .resolve_method(class, &SigKey::new("spin", "(I)I"))
        .unwrap();
    let args = [Slot::from_int(10_000)];
    // Warm-up: class init, cache build, frame-pool and exec-stack growth.
    rt.call_method(obs, spin, &args).unwrap();
    rt.call_method(obs, spin, &args).unwrap();
    let before = allocs();
    let ret = rt.call_method(obs, spin, &args).unwrap();
    let during = allocs() - before;
    assert!(ret.as_int().is_some());
    during
}

#[test]
fn warm_hot_loop_allocates_nothing_quickened() {
    assert_eq!(
        warm_call_alloc_count(&mut NullObserver),
        0,
        "steady-state quickened/fused execution must be allocation-free"
    );
}

#[test]
fn warm_hot_loop_allocates_nothing_per_step() {
    assert_eq!(
        warm_call_alloc_count(&mut PerStep),
        0,
        "per-step execution must also be allocation-free in steady state"
    );
}
