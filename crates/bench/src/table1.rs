//! Table I: packing the four AOSP-scale applications with each public
//! packer and revealing them with DexLego.
//!
//! Success criterion (as in §V-A): every method executed during the driving
//! run appears in the reassembled DEX with its instructions and control
//! flows intact — checked mechanically by comparing executed-method
//! signatures and per-method invoke targets.

use std::collections::BTreeSet;

use dexlego_core::pipeline::reveal;
use dexlego_droidbench::appgen::{generate, AppSpec};
use dexlego_packer::{pack, PackerId};
use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::{MethodId, Runtime};

/// The paper's four AOSP applications with their instruction counts.
pub const APPS: [(&str, usize); 4] = [
    ("HTMLViewer", 217),
    ("Calculator", 2_507),
    ("Calendar", 78_598),
    ("Contacts", 103_602),
];

/// Result of one (app, packer) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Application name.
    pub app: &'static str,
    /// Packer name.
    pub packer: &'static str,
    /// Whether collection + reassembly succeeded and preserved behaviour.
    pub success: bool,
    /// Methods executed during driving.
    pub executed_methods: usize,
    /// Of those, methods present in the reassembled DEX.
    pub reassembled_methods: usize,
}

/// Tracks which app methods execute.
#[derive(Default)]
struct ExecutedMethods {
    sigs: BTreeSet<String>,
}

impl RuntimeObserver for ExecutedMethods {
    fn on_method_enter(&mut self, rt: &Runtime, method: MethodId) {
        let m = rt.method(method);
        if rt.class(m.class).source != "<framework>"
            && matches!(m.body, dexlego_runtime::class::MethodImpl::Bytecode { .. })
        {
            self.sigs.insert(rt.method_name(method));
        }
    }
}

/// Runs Table I: returns per-app instruction counts and all cells.
///
/// The (app, packer) grid is embarrassingly parallel — every cell gets its
/// own runtime — so the whole table is sharded across the harness pool.
pub fn run() -> (Vec<(&'static str, usize)>, Vec<Cell>) {
    let per_app = dexlego_harness::parallel_map_expect(
        APPS.to_vec(),
        dexlego_harness::default_workers(),
        run_app,
    );
    let mut insn_counts = Vec::new();
    let mut cells = Vec::new();
    for (count, app_cells) in per_app {
        insn_counts.push(count);
        cells.extend(app_cells);
    }
    (insn_counts, cells)
}

/// All Table I cells for one application.
fn run_app((name, target): (&'static str, usize)) -> ((&'static str, usize), Vec<Cell>) {
    let app = generate(&AppSpec::plain_profile(
        &format!("aosp/{}", name.to_lowercase()),
        target,
    ));
    let mut cells = Vec::new();
    for packer in PackerId::table1() {
        let packed = pack(&app.dex, &app.entry, packer).expect("packing succeeds");
        let mut rt = Runtime::new();
        let mut executed = ExecutedMethods::default();
        let packed2 = packed.clone();
        let outcome = reveal(&mut rt, |rt, obs| {
            let mut chained = dexlego_core::force::ChainMut(&mut executed, obs);
            if packed2.install_observed(rt, &mut chained).is_err() {
                return;
            }
            let _ = packed2.launch(rt, &mut chained);
            // Fire the callbacks registered so far once each, in order.
            let _ = rt.fire_callbacks(&mut chained, 0, rt.callbacks.len());
        });
        let cell = match outcome {
            Err(_) => Cell {
                app: name,
                packer: packer.profile().name,
                success: false,
                executed_methods: executed.sigs.len(),
                reassembled_methods: 0,
            },
            Ok(outcome) => {
                // Mechanical RQ1 validation (carried on the outcome):
                // every collected method and every collected instruction
                // opcode appears in the reassembled DEX.
                let problems = &outcome.validation;
                let out = &outcome.dex;
                let mut present = 0usize;
                for sig in &executed.sigs {
                    let (class, rest) = sig.split_once("->").expect("method sig");
                    let name_part: String = rest.chars().take_while(|&c| c != '(').collect();
                    let found = out.find_class(class).is_some_and(|def| {
                        def.class_data.as_ref().is_some_and(|data| {
                            data.methods().any(|m| {
                                out.method_signature(m.method_idx)
                                    .is_ok_and(|s| s.starts_with(&format!("{class}->{name_part}(")))
                            })
                        })
                    });
                    if found {
                        present += 1;
                    }
                }
                Cell {
                    app: name,
                    packer: packer.profile().name,
                    success: problems.is_empty()
                        && present == executed.sigs.len()
                        && !executed.sigs.is_empty(),
                    executed_methods: executed.sigs.len(),
                    reassembled_methods: present,
                }
            }
        };
        cells.push(cell);
    }
    ((name, app.insn_count), cells)
}

/// Formats Table I.
pub fn format(insn_counts: &[(&str, usize)], cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("Table I — packers vs applications\n");
    out.push_str("application | # instructions\n");
    for (name, count) in insn_counts {
        out.push_str(&format!("{name:<11} | {count}\n"));
    }
    out.push('\n');
    for cell in cells {
        out.push_str(&format!(
            "{:<11} x {:<8} : {} ({} / {} executed methods reassembled)\n",
            cell.app,
            cell.packer,
            if cell.success { "OK" } else { "FAIL" },
            cell.reassembled_methods,
            cell.executed_methods,
        ));
    }
    out
}
