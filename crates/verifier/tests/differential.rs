//! Property tests of the verifier against its certificate checker on
//! arbitrary code — valid, invalid, or garbage. Debug builds certify every
//! converged fixpoint before the replay reports from it (a one-pass check
//! that each block's frame is closed under its predecessors' transfers and
//! that exactly the reached blocks have frames), so each property below
//! fails if the checker rejects the engine's frames on any generated body.
//! The `errors_only` property pins that skipping lints drops exactly the
//! lints.

use dexlego_dex::{CodeItem, EncodedCatchHandler, TryItem};
use dexlego_verifier::{verify_method, Diagnostic, VerifyOptions};
use proptest::collection::vec;
use proptest::prelude::*;

/// One plausible instruction word: biased toward real one-unit opcodes so
/// streams decode into interesting CFGs, with fully random units mixed in
/// to cover the malformed paths.
fn unit() -> impl Strategy<Value = u16> {
    prop_oneof![
        (0u16..16, 0u16..16).prop_map(|(a, b)| (b << 12) | (a << 8) | 0x01), // move
        (0u16..16, 0u16..8).prop_map(|(a, v)| (v << 12) | (a << 8) | 0x12),  // const/4
        (0u16..16, 0u16..16).prop_map(|(a, b)| (b << 12) | (a << 8) | 0xb0), // add-int/2addr
        Just(0x000e),                                                        // return-void
        (0u16..16).prop_map(|a| (a << 8) | 0x0f),                            // return
        (1u16..8).prop_map(|off| (off << 8) | 0x28),                         // goto
        any::<u16>(),
    ]
}

proptest! {
    #[test]
    fn checker_accepts_random_code(
        units in vec(unit(), 1..48),
        regs in 1u16..10,
        ins in 0u16..4,
    ) {
        let mut insns = units;
        insns.push(0x000e); // return-void backstop
        let code = CodeItem::new(regs.max(ins + 1), ins.min(regs), 0, insns);
        let diags = verify_method("La;->m()V", &code, &[], &VerifyOptions::default());
        prop_assert!(diags.iter().all(|d| d.method == "La;->m()V"));
    }

    #[test]
    fn checker_accepts_random_code_with_exception_handlers(
        units in vec(unit(), 1..40),
        regs in 1u16..10,
        first in (0u32..16, 1u16..12, 0u32..24),
        with_second in any::<bool>(),
        second in (0u32..16, 1u16..8, 0u32..24),
    ) {
        let (start, count, catch_addr) = first;
        let (s2, c2, a2) = second;
        let mut insns = units;
        insns.push(0x000e);
        let mut code = CodeItem::new(regs, 0, 0, insns);
        code.tries.push(TryItem {
            start_addr: start,
            insn_count: count,
            handler_index: 0,
        });
        code.handlers.push(EncodedCatchHandler {
            catches: Vec::new(),
            catch_all_addr: Some(catch_addr),
        });
        if with_second {
            code.tries.push(TryItem {
                start_addr: s2,
                insn_count: c2,
                handler_index: 1,
            });
            code.handlers.push(EncodedCatchHandler {
                catches: Vec::new(),
                catch_all_addr: Some(a2),
            });
        }
        let diags = verify_method("La;->m()V", &code, &[], &VerifyOptions::default());
        prop_assert!(diags.iter().all(|d| d.method == "La;->m()V"));
    }

    #[test]
    fn errors_only_is_the_error_subset_of_the_default_run(
        units in vec(unit(), 1..40),
        regs in 1u16..8,
    ) {
        let mut insns = units;
        insns.push(0x000e);
        let code = CodeItem::new(regs, 0, 0, insns);
        let errors = verify_method("La;->m()V", &code, &[], &VerifyOptions::errors_only());
        let all = verify_method("La;->m()V", &code, &[], &VerifyOptions::default());
        let subset: Vec<Diagnostic> = all.into_iter().filter(Diagnostic::is_error).collect();
        prop_assert_eq!(errors, subset);
    }
}
