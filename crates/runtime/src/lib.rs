#![forbid(unsafe_code)]

//! A simulated Android Runtime (ART).
//!
//! This crate plays the role of the modified ART that the DexLego paper
//! instruments on a real device: a class linker that loads [`DexFile`]s, a
//! heap of objects/arrays/strings, and a switch-dispatch register-machine
//! interpreter executing Dalvik bytecode one instruction at a time, with a
//! `dex_pc` program counter exactly as in ART's `ExecuteSwitchImpl`.
//!
//! Everything DexLego needs to observe is exposed through the
//! [`observer::RuntimeObserver`] trait: class loading and initialisation,
//! static-value installation, method entry/exit, per-instruction execution
//! (with the raw code units, which is what the collection tree compares),
//! branch outcomes, reflective-call resolution, and exception flow.
//! Observers can also *steer* execution — overriding branch outcomes (force
//! execution) and tolerating unhandled exceptions.
//!
//! The observer picks the fetch path. Frames whose observer wants
//! instruction events (DexLego's collector, trace recorders) decode each
//! instruction from the live method body as they step. Frames under a
//! passive observer run a quickened tier over the predecoded code cache
//! ([`code_cache`]), with fused superinstructions for hot loops.
//!
//! Apps are driven through one input session ([`session`]):
//! [`Runtime::start_session`] instantiates the entry activity and runs its
//! `onCreate`, and [`Runtime::fire_callbacks`] fires the callbacks it
//! registered, stopping only when the instruction budget runs out.
//!
//! Self-modifying code is supported the same way it exists on Android: a
//! registered native method receives `&mut Runtime` and may rewrite the
//! in-memory code units of any loaded method. A per-step frame sees the
//! rewrite at its next fetch. Mutation also bumps the method's *code
//! epoch*, invalidating its predecoded entry; a quickened frame re-validates
//! the epoch after every instruction that calls out of it, so modifications
//! take effect immediately even mid-frame.
//!
//! [`DexFile`]: dexlego_dex::DexFile
//!
//! # Example
//!
//! ```
//! use dexlego_runtime::{Runtime, observer::NullObserver};
//! use dexlego_dex::{DexFile, ClassDef, CodeItem, AccessFlags, file::EncodedMethod};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dex = DexFile::new();
//! let t = dex.intern_type("La;");
//! let m = dex.intern_method("La;", "four", "I", &[]);
//! let mut def = ClassDef::new(t);
//! def.class_data.as_mut().unwrap().direct_methods.push(EncodedMethod {
//!     method_idx: m,
//!     access: AccessFlags::PUBLIC | AccessFlags::STATIC,
//!     // const/4 v0, #4 ; return v0
//!     code: Some(CodeItem::new(1, 0, 0, vec![0x4012, 0x000f])),
//! });
//! dex.add_class(def);
//!
//! let mut rt = Runtime::new();
//! rt.load_dex(&dex, "app")?;
//! let mut obs = NullObserver;
//! let result = rt.call_static(&mut obs, "La;", "four", "()I", &[])?;
//! assert_eq!(result.as_int(), Some(4));
//! # Ok(())
//! # }
//! ```

pub mod class;
pub mod code_cache;
pub mod events;
pub mod heap;
pub mod interp;
pub mod linker;
pub mod natives;
pub mod observer;
pub mod runtime;
pub mod session;
pub mod value;

pub use class::{ClassId, FieldId, MethodId};
pub use events::RuntimeEvent;
pub use heap::{Heap, ObjKind, ObjRef};
pub use observer::RuntimeObserver;
pub use runtime::{Env, Runtime, RuntimeError};
pub use session::LaunchError;
pub use value::{RetVal, Slot};
