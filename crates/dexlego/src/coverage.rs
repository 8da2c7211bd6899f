//! Coverage measurement (JaCoCo analogue) and the Sapienz-style event
//! fuzzer used as the baseline input generator (paper §V-D, Table VII).

use std::collections::{HashMap, HashSet};

use dexlego_dalvik::{decode_method, Decoded};
use dexlego_runtime::class::MethodImpl;
use dexlego_runtime::observer::{InsnEvent, RuntimeObserver};
use dexlego_runtime::{LaunchError, MethodId, Runtime};

/// Records executed instructions and branch directions per method.
#[derive(Debug, Default)]
pub struct CoverageRecorder {
    executed: HashMap<MethodId, HashSet<u32>>,
    branches: HashSet<(MethodId, u32, bool)>,
    entered: HashSet<MethodId>,
}

impl CoverageRecorder {
    /// Creates an empty recorder.
    pub fn new() -> CoverageRecorder {
        CoverageRecorder::default()
    }

    /// Executed `dex_pc` set for a method.
    pub fn executed_pcs(&self, method: MethodId) -> Option<&HashSet<u32>> {
        self.executed.get(&method)
    }
}

impl RuntimeObserver for CoverageRecorder {
    fn on_method_enter(&mut self, _rt: &Runtime, method: MethodId) {
        self.entered.insert(method);
    }
    fn on_instruction(&mut self, _rt: &Runtime, ev: &InsnEvent<'_>) {
        self.executed
            .entry(ev.method)
            .or_default()
            .insert(ev.dex_pc);
    }
    fn on_branch(&mut self, _rt: &Runtime, method: MethodId, dex_pc: u32, taken: bool) {
        self.branches.insert((method, dex_pc, taken));
    }
}

/// Coverage percentages at the granularities of Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoverageReport {
    /// Classes with at least one executed instruction / app classes.
    pub class: f64,
    /// Methods entered / app bytecode methods.
    pub method: f64,
    /// Basic blocks touched / basic blocks ("line" analogue: our synthetic
    /// sources have no debug line table, and JaCoCo lines map 1:1-ish onto
    /// leaders of basic blocks for straight-line statements).
    pub line: f64,
    /// Branch directions taken / (2 × conditional branches).
    pub branch: f64,
    /// Executed instructions / total instructions.
    pub instruction: f64,
}

fn percent(hit: usize, total: usize) -> f64 {
    if total == 0 {
        100.0
    } else {
        100.0 * hit as f64 / total as f64
    }
}

/// Measures coverage of all non-framework bytecode methods.
pub fn measure(rt: &Runtime, recorder: &CoverageRecorder) -> CoverageReport {
    let mut total_insns = 0usize;
    let mut hit_insns = 0usize;
    let mut total_methods = 0usize;
    let mut hit_methods = 0usize;
    let mut total_branches = 0usize;
    let mut hit_branches = 0usize;
    let mut total_blocks = 0usize;
    let mut hit_blocks = 0usize;
    let mut classes_total: HashSet<&str> = HashSet::new();
    let mut classes_hit: HashSet<&str> = HashSet::new();

    for method in rt.method_ids() {
        let m = rt.method(method);
        let class = rt.class(m.class);
        if class.source == "<framework>" {
            continue;
        }
        let MethodImpl::Bytecode { insns, .. } = &m.body else {
            continue;
        };
        let Ok(decoded) = decode_method(insns) else {
            continue;
        };
        classes_total.insert(&class.descriptor);
        total_methods += 1;
        let executed = recorder.executed.get(&method);
        if recorder.entered.contains(&method) {
            hit_methods += 1;
            classes_hit.insert(&class.descriptor);
        }

        // Leaders of basic blocks: entry, branch targets, post-branch pcs.
        let mut leaders: HashSet<u32> = HashSet::new();
        leaders.insert(0);
        let mut insn_pcs: Vec<u32> = Vec::new();
        for (pc, d) in &decoded {
            let Decoded::Insn(insn) = d else { continue };
            insn_pcs.push(*pc);
            total_insns += 1;
            if executed.is_some_and(|set| set.contains(pc)) {
                hit_insns += 1;
            }
            if insn.op.is_conditional_branch() {
                total_branches += 2;
                for dir in [true, false] {
                    if recorder.branches.contains(&(method, *pc, dir)) {
                        hit_branches += 1;
                    }
                }
                leaders.insert(insn.target(*pc));
                leaders.insert(pc + insn.units() as u32);
            } else if insn.op.is_terminator() {
                leaders.insert(pc + insn.units() as u32);
                if matches!(
                    insn.op,
                    dexlego_dalvik::Opcode::Goto
                        | dexlego_dalvik::Opcode::Goto16
                        | dexlego_dalvik::Opcode::Goto32
                ) {
                    leaders.insert(insn.target(*pc));
                }
            }
        }
        // A block is hit if its leader instruction executed.
        for &leader in &leaders {
            if insn_pcs.contains(&leader) {
                total_blocks += 1;
                if executed.is_some_and(|set| set.contains(&leader)) {
                    hit_blocks += 1;
                }
            }
        }
    }

    CoverageReport {
        class: percent(classes_hit.len(), classes_total.len()),
        method: percent(hit_methods, total_methods),
        line: percent(hit_blocks, total_blocks),
        branch: percent(hit_branches, total_branches),
        instruction: percent(hit_insns, total_insns),
    }
}

/// A Sapienz-style random event fuzzer: drives an activity's lifecycle and
/// fires registered UI callbacks with pseudo-random ordering, feeding
/// pseudo-random values through the `Lcom/dexlego/Input;` native.
#[derive(Debug, Clone)]
pub struct EventFuzzer {
    /// RNG state (xorshift64).
    pub seed: u64,
    /// Number of UI events to fire per run.
    pub events: usize,
}

impl EventFuzzer {
    /// Creates a fuzzer with the given seed.
    pub fn new(seed: u64, events: usize) -> EventFuzzer {
        EventFuzzer { seed, events }
    }

    fn next(&mut self) -> u64 {
        self.seed ^= self.seed << 13;
        self.seed ^= self.seed >> 7;
        self.seed ^= self.seed << 17;
        self.seed
    }

    /// Runs one fuzzing session against `activity_desc`:
    /// [`Runtime::launch`], then callbacks fired in random order through
    /// [`Runtime::fire_callback`]. Execution errors are swallowed (a fuzzer
    /// keeps going after crashes and budget exhaustion); only an activity
    /// that cannot be instantiated ends the session.
    pub fn run(&mut self, rt: &mut Runtime, obs: &mut dyn RuntimeObserver, activity_desc: &str) {
        rt.input_state = self.next();
        if let Err(LaunchError::Instantiate(_)) = rt.launch(obs, activity_desc) {
            return;
        }
        for _ in 0..self.events {
            if rt.callbacks.is_empty() {
                break;
            }
            let pick = (self.next() % rt.callbacks.len() as u64) as usize;
            rt.input_state = self.next();
            let _ = rt.fire_callback(obs, pick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_handles_zero_total() {
        assert_eq!(percent(0, 0), 100.0);
        assert_eq!(percent(1, 4), 25.0);
    }

    #[test]
    fn fuzzer_rng_is_deterministic() {
        let mut a = EventFuzzer::new(42, 5);
        let mut b = EventFuzzer::new(42, 5);
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
    }
}
