//! The input session primitives: `Runtime::launch`, `start_session`,
//! `fire_callback` and `fire_callbacks`, and their one fault rule (budget
//! exhaustion ends a session, every other fault is tolerated).

use dexlego_dalvik::builder::{MethodBuilder, ProgramBuilder};
use dexlego_dalvik::{Insn, Opcode};
use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::{LaunchError, MethodId, Runtime, RuntimeError};

/// How a listener's `onClick` behaves.
#[derive(Clone, Copy)]
enum Click {
    Return,
    Throw,
    Spin,
}

/// Records the class of every `onClick` entered, in order.
#[derive(Default)]
struct Clicks(Vec<String>);

impl RuntimeObserver for Clicks {
    fn on_method_enter(&mut self, rt: &Runtime, method: MethodId) {
        let m = rt.method(method);
        if m.name == "onClick" {
            self.0.push(rt.class(m.class).descriptor.clone());
        }
    }
}

/// `throw null`: an uncaught `NullPointerException`.
fn throw_null(m: &mut MethodBuilder<'_>) {
    m.asm.const4(0, 0);
    let mut throw = Insn::of(Opcode::Throw);
    throw.a = 0;
    m.asm.push(throw);
}

/// A loop that never exits.
fn spin(m: &mut MethodBuilder<'_>) {
    let top = m.asm.new_label();
    m.asm.bind(top);
    m.asm.goto(top);
}

/// An app whose entry `LMain;` registers one listener `LL<i>;` per entry
/// of `clicks` in `onCreate`, then behaves as `on_create` says.
fn app(clicks: &[Click], on_create: Click) -> Runtime {
    let mut pb = ProgramBuilder::new();
    for (i, &click) in clicks.iter().enumerate() {
        pb.class(&format!("LL{i};"), |c| {
            c.implements("Landroid/view/View$OnClickListener;");
            c.method(
                "onClick",
                &["Landroid/view/View;"],
                "V",
                1,
                |m| match click {
                    Click::Return => {
                        m.asm.ret(Opcode::ReturnVoid, 0);
                    }
                    Click::Throw => throw_null(m),
                    Click::Spin => spin(m),
                },
            );
        });
    }
    let listeners = clicks.len();
    pb.class("LMain;", |c| {
        c.superclass("Landroid/app/Activity;");
        c.method("onCreate", &["Landroid/os/Bundle;"], "V", 3, |m| {
            for i in 0..listeners {
                m.new_instance(0, &format!("LL{i};"));
                m.new_instance(1, "Landroid/view/View;");
                m.invoke(
                    Opcode::InvokeVirtual,
                    "Landroid/view/View;",
                    "setOnClickListener",
                    &["Landroid/view/View$OnClickListener;"],
                    "V",
                    &[1, 0],
                );
            }
            match on_create {
                Click::Return => {
                    m.asm.ret(Opcode::ReturnVoid, 0);
                }
                Click::Throw => throw_null(m),
                Click::Spin => spin(m),
            }
        });
    });
    let mut rt = Runtime::new();
    rt.env.insn_budget = 10_000;
    rt.load_dex(&pb.build().unwrap(), "app").unwrap();
    rt
}

fn fired(clicks: &Clicks) -> Vec<&str> {
    clicks.0.iter().map(String::as_str).collect()
}

#[test]
fn picks_follow_seed_plus_n_mod_len() {
    let mut rt = app(&[Click::Return; 3], Click::Return);
    let mut obs = Clicks::default();
    rt.start_session(&mut obs, "LMain;").unwrap();
    assert_eq!(rt.callbacks.len(), 3);
    rt.fire_callbacks(&mut obs, 7, 5).unwrap();
    // (7 + n) % 3 for n in 0..5.
    assert_eq!(fired(&obs), ["LL1;", "LL2;", "LL0;", "LL1;", "LL2;"]);
    assert_eq!(rt.callback_depth, 0);

    // The sum wraps: (2^64 - 1) % 3 == 0, then (2^64 - 1) + 1 wraps to 0.
    obs.0.clear();
    rt.fire_callbacks(&mut obs, u64::MAX, 2).unwrap();
    assert_eq!(fired(&obs), ["LL0;", "LL0;"]);
}

#[test]
fn firing_stops_at_budget_exhaustion_with_depth_restored() {
    let mut rt = app(&[Click::Return, Click::Spin, Click::Return], Click::Return);
    let mut obs = Clicks::default();
    rt.start_session(&mut obs, "LMain;").unwrap();
    let err = rt.fire_callbacks(&mut obs, 0, 6).unwrap_err();
    assert_eq!(err, RuntimeError::BudgetExhausted);
    // Picks 0, 1 (spins out); picks 2, 0, 1, 2 never fire.
    assert_eq!(fired(&obs), ["LL0;", "LL1;"]);
    assert_eq!(rt.callback_depth, 0);
}

#[test]
fn a_throwing_callback_is_tolerated_and_the_next_still_fires() {
    let mut rt = app(&[Click::Throw, Click::Return], Click::Return);
    let mut obs = Clicks::default();
    rt.start_session(&mut obs, "LMain;").unwrap();
    let thrown = rt.fire_callback(&mut obs, 0).unwrap_err();
    assert!(
        matches!(thrown, RuntimeError::UncaughtException { .. }),
        "{thrown:?}"
    );
    assert_eq!(rt.callback_depth, 0);
    rt.fire_callbacks(&mut obs, 0, 2).unwrap();
    assert_eq!(fired(&obs), ["LL0;", "LL0;", "LL1;"]);
}

#[test]
fn a_session_tolerates_a_throwing_on_create_but_not_one_out_of_budget() {
    let mut rt = app(&[Click::Return], Click::Throw);
    let thrown = rt.launch(&mut Clicks::default(), "LMain;").unwrap_err();
    assert!(
        matches!(
            thrown,
            LaunchError::OnCreate(RuntimeError::UncaughtException { .. })
        ),
        "{thrown:?}"
    );
    let mut rt = app(&[Click::Return], Click::Throw);
    rt.start_session(&mut Clicks::default(), "LMain;").unwrap();
    assert_eq!(rt.callbacks.len(), 1, "onCreate ran up to its throw");

    let mut rt = app(&[], Click::Spin);
    assert_eq!(
        rt.start_session(&mut Clicks::default(), "LMain;"),
        Err(LaunchError::OnCreate(RuntimeError::BudgetExhausted))
    );
}

#[test]
fn launch_of_an_entry_without_on_create_is_ok() {
    let mut rt = app(&[Click::Return], Click::Return);
    assert_eq!(rt.launch(&mut Clicks::default(), "LL0;"), Ok(false));
    rt.start_session(&mut Clicks::default(), "LL0;").unwrap();
    assert!(rt.callbacks.is_empty(), "no onCreate, no registrations");
}

#[test]
fn launch_of_an_unknown_entry_returns_the_instantiation_error() {
    let mut rt = app(&[], Click::Return);
    let unknown = Err(LaunchError::Instantiate(RuntimeError::ClassNotFound(
        "LNo/Such;".to_owned(),
    )));
    assert_eq!(
        rt.start_session(&mut Clicks::default(), "LNo/Such;"),
        unknown
    );
    assert_eq!(
        rt.launch(&mut Clicks::default(), "LNo/Such;"),
        unknown.map(|()| false)
    );
}
