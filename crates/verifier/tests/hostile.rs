//! Hostile-input robustness: packed apps are adversarial by the paper's
//! threat model, and `read_dex` does not range-check try tables, so the
//! verifier sees arbitrary code units, frame sizes and try/handler tables.
//! Whatever it is fed, it must return diagnostics — never panic (debug
//! builds included, where integer overflow panics). Failing seeds persist
//! in `hostile.proptest-regressions`.

use dexlego_dex::code::CatchClause;
use dexlego_dex::{
    AccessFlags, ClassData, ClassDef, CodeItem, DexFile, EncodedCatchHandler, EncodedMethod,
    TryItem,
};
use dexlego_verifier::{verify_dex_typed, verify_method, VerifyOptions};
use proptest::collection::vec;
use proptest::prelude::*;

/// Code units: mostly real opcodes with random operands, so streams
/// decode far enough to build CFGs, plus fully random units.
fn unit() -> impl Strategy<Value = u16> {
    prop_oneof![
        any::<u16>(),
        (0u16..0xe3, any::<u8>()).prop_map(|(op, hi)| (u16::from(hi) << 8) | op),
        Just(0x000e),
    ]
}

/// An address or start: small (inside the body), near `u32::MAX` (so
/// `start + count` overflows `u32`), or anything.
fn addr() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..80, (u32::MAX - 80)..=u32::MAX, any::<u32>()]
}

fn try_item() -> impl Strategy<Value = TryItem> {
    (addr(), any::<u16>(), 0usize..4).prop_map(|(start_addr, insn_count, handler_index)| TryItem {
        start_addr,
        insn_count,
        handler_index,
    })
}

fn handler() -> impl Strategy<Value = EncodedCatchHandler> {
    (vec((any::<u32>(), addr()), 0..3), any::<bool>(), addr()).prop_map(
        |(clauses, has_all, all)| EncodedCatchHandler {
            catches: clauses
                .into_iter()
                .map(|(type_idx, addr)| CatchClause { type_idx, addr })
                .collect(),
            catch_all_addr: has_all.then_some(all),
        },
    )
}

fn code_item() -> impl Strategy<Value = CodeItem> {
    (
        vec(unit(), 0..64),
        0u16..300,
        0u16..300,
        vec(try_item(), 0..4),
        vec(handler(), 0..4),
    )
        .prop_map(|(insns, registers, ins, tries, handlers)| {
            let mut code = CodeItem::new(registers, ins, 0, insns);
            code.tries = tries;
            code.handlers = handlers;
            code
        })
}

/// `code` as the body of `La;->m(I)V`, the only method of a one-class DEX.
fn one_method_dex(code: CodeItem) -> DexFile {
    let mut dex = DexFile::new();
    let class = dex.intern_type("La;");
    let method_idx = dex.intern_method("La;", "m", "V", &["I"]);
    let mut def = ClassDef::new(class);
    def.class_data = Some(ClassData {
        direct_methods: vec![EncodedMethod {
            method_idx,
            access: AccessFlags::STATIC,
            code: Some(code),
        }],
        ..ClassData::default()
    });
    dex.add_class(def);
    dex
}

proptest! {
    #[test]
    fn hostile_bodies_yield_diagnostics_not_panics(code in code_item()) {
        for opts in [
            VerifyOptions::default(),
            VerifyOptions::errors_only(),
            VerifyOptions::default().sequential_reference(),
        ] {
            let diags = verify_method("La;->m(I)V", &code, &[], &opts);
            prop_assert!(diags.iter().all(|d| d.method == "La;->m(I)V"));
        }
        let dex = one_method_dex(code);
        let typed = verify_dex_typed(&dex, &VerifyOptions::default().with_workers(1));
        prop_assert!(typed.methods.len() <= 1);
    }
}
