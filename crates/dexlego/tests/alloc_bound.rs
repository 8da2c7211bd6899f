//! Deterministic cost gate for Algorithm 1 and tree merging: heap
//! allocations, not time, so no host noise can flip it. Recording an
//! instruction appends to a tree's unit arena and IL, looking up a pc
//! allocates nothing, and merging a tree encodes straight into the
//! method's code buffer, so a tree's allocations grow with the doublings
//! of a few buffers, not with its instructions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dexlego_core::collect::CollectionTree;
use dexlego_core::files::{ClassRecord, CollectionFiles, MethodKey, MethodRecord, PoolRecord};
use dexlego_core::reassemble::reassemble;
use dexlego_core::JitCollector;
use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::{encode_insn, Insn, Opcode};
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

/// Observing 4,000 distinct instructions costs the doublings of the IL,
/// the arena and the IIM, not one buffer per instruction.
#[test]
fn observing_distinct_instructions_allocates_per_buffer_doubling() {
    const INSNS: u32 = 4_000;
    let before = allocs();
    let mut tree = CollectionTree::new();
    for k in 0..INSNS {
        // const/16 v0, #k at consecutive pcs.
        tree.observe(2 * k, &[0x0013, k as u16], None);
    }
    let during = allocs() - before;
    assert_eq!(tree.total_insns(), INSNS as usize);
    assert!(
        during < 100,
        "{during} allocations for {INSNS} instructions"
    );
}

/// `static int run(int n)`: a 3-instruction loop (add, if-ge, goto) run
/// `n` times.
fn loop_app() -> dexlego_dex::DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class("Lalloc/Loop;", |c| {
        c.static_method("run", &["I"], "I", 2, |m| {
            let n = m.param_reg(0);
            let (top, done) = (m.asm.new_label(), m.asm.new_label());
            m.asm.const4(0, 0);
            m.asm.bind(top);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            m.asm.if_cmp(Opcode::IfGe, 0, n, done);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.build().unwrap()
}

/// `static int run(int n)`: a loop of `n` trips whose body branches on
/// the counter's low bit through a `packed-switch` (or a `sparse-switch`).
fn switch_loop_app(sparse: bool) -> dexlego_dex::DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class("Lalloc/Loop;", |c| {
        c.static_method("run", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let [top, even, odd, next] = [(); 4].map(|()| m.asm.new_label());
            m.asm.const4(0, 0);
            m.asm.bind(top);
            m.asm.binop_lit8(Opcode::AndIntLit8, 1, 0, 1);
            if sparse {
                m.asm.sparse_switch(1, vec![0, 1], vec![even, odd]);
            } else {
                m.asm.packed_switch(1, 0, vec![even, odd]);
            }
            m.asm.goto(next);
            m.asm.bind(even);
            m.asm.goto(next);
            m.asm.bind(odd);
            m.asm.bind(next);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            m.asm.if_cmp(Opcode::IfLt, 0, n, top);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.build().unwrap()
}

/// `static int run(int n)`: a loop of `n` trips that refills one array
/// from a `fill-array-data` payload on every trip.
fn array_refill_loop_app() -> dexlego_dex::DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class("Lalloc/Loop;", |c| {
        c.static_method("run", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let top = m.asm.new_label();
            m.asm.const4(0, 4);
            m.new_array(1, 0, "[I");
            m.asm.const4(0, 0);
            m.asm.bind(top);
            m.asm
                .fill_array_data(1, 4, vec![1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0]);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            m.asm.if_cmp(Opcode::IfLt, 0, n, top);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.build().unwrap()
}

/// Collects `Lalloc/Loop;->run(I)I` at 10 and at 1,000 trips and requires
/// the longer run to allocate no more: a re-executed instruction records
/// nothing, the finished execution's duplicate tree is reused by the next
/// call, and a switch or an array fill reads its payload's units in place.
fn assert_collected_loop_allocations_flat(app: &dexlego_dex::DexFile) {
    let mut rt = Runtime::new();
    let mut collector = JitCollector::new();
    rt.load_dex_observed(app, "app", &mut collector).unwrap();
    let mut run = |trips: i32| {
        let before = allocs();
        let r = rt
            .call_static(
                &mut collector,
                "Lalloc/Loop;",
                "run",
                "(I)I",
                &[Slot::from_int(trips)],
            )
            .unwrap();
        assert_eq!(r.as_int(), Some(trips));
        allocs() - before
    };
    run(3); // links, initialises and keeps the first tree
    let few = run(10);
    let many = run(1_000);
    assert!(
        many <= few,
        "1,000 trips: {many} allocations, 10 trips: {few}"
    );
    let files = collector.into_files();
    assert_eq!(files.methods.len(), 1);
    assert_eq!(files.methods[0].trees.len(), 1, "every call has one shape");
}

#[test]
fn collected_loop_allocations_do_not_grow_with_trips() {
    assert_collected_loop_allocations_flat(&loop_app());
}

#[test]
fn collected_packed_switch_loop_allocations_do_not_grow_with_trips() {
    assert_collected_loop_allocations_flat(&switch_loop_app(false));
}

#[test]
fn collected_sparse_switch_loop_allocations_do_not_grow_with_trips() {
    assert_collected_loop_allocations_flat(&switch_loop_app(true));
}

#[test]
fn collected_array_refill_loop_allocations_do_not_grow_with_trips() {
    assert_collected_loop_allocations_flat(&array_refill_loop_app());
}

/// A one-method collection whose tree is `insns` straight-line
/// instructions, then `return-void`: a repeating mix of constants, string
/// loads, arithmetic, static calls and static reads over a small pool.
fn straight_line_files(insns: usize) -> CollectionFiles {
    let class = "Lalloc/Line;";
    let mut pattern = Vec::new();
    let mut insn = Insn::of(Opcode::Const4);
    insn.lit = 1;
    pattern.push(insn);
    let mut insn = Insn::of(Opcode::ConstString);
    insn.a = 1;
    pattern.push(insn);
    let mut insn = Insn::of(Opcode::AddIntLit8);
    insn.lit = 1;
    pattern.push(insn);
    let mut insn = Insn::of(Opcode::InvokeStatic);
    insn.regs = vec![0];
    pattern.push(insn);
    pattern.push(Insn::of(Opcode::Sget));
    let mut tree = CollectionTree::new();
    let mut pc = 0u32;
    for k in 0..insns {
        let mut insn = pattern[k % pattern.len()].clone();
        if insn.op == Opcode::ConstString {
            insn.idx = (k % 4) as u32;
        }
        let units = encode_insn(&insn).unwrap();
        tree.observe(pc, &units, None);
        pc += units.len() as u32;
    }
    tree.observe(pc, &[0x000e], None);
    CollectionFiles {
        classes: vec![ClassRecord {
            descriptor: class.into(),
            superclass: Some("Ljava/lang/Object;".into()),
            access: 1,
            source: "app".into(),
            ..ClassRecord::default()
        }],
        methods: vec![MethodRecord {
            key: MethodKey {
                class: class.into(),
                name: "run".into(),
                descriptor: "()V".into(),
            },
            pool: 0,
            access: 0x9,
            registers: 2,
            ins: 0,
            return_type: "V".into(),
            params: vec![],
            tries: vec![],
            trees: vec![tree],
        }],
        pools: vec![PoolRecord {
            source: "app".into(),
            strings: (0..4).map(|i| format!("s{i}")).collect(),
            types: vec![class.into()],
            methods: vec![(class.into(), "callee".into(), "(I)V".into())],
            fields: vec![(class.into(), "f".into(), "I".into())],
        }],
        reflection_sites: vec![],
    }
}

/// Reassembling a 4,000-instruction straight-line tree allocates fewer
/// times than the tree has instructions: pool entries are interned once
/// per reassembly and instructions encode into one buffer. What remains
/// per instruction is the argument list of each decoded invoke.
#[test]
fn reassembling_a_tree_allocates_less_than_once_per_instruction() {
    const INSNS: usize = 4_000;
    let files = straight_line_files(INSNS);
    let before = allocs();
    let dex = reassemble(&files).unwrap();
    let during = allocs() - before;
    assert!(dex.find_class("Lalloc/Line;").is_some());
    assert!(
        during < INSNS as u64,
        "{during} allocations for {INSNS} instructions"
    );
}
