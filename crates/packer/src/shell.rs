//! Shell generation and runtime unpacking.

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::canon::canonicalize;
use dexlego_dalvik::subset::extract_classes;
use dexlego_dalvik::Opcode;
use dexlego_dex::{writer, DexFile};
use dexlego_runtime::class::MethodImpl;
use dexlego_runtime::events::RuntimeEvent;
use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::{LaunchError, RetVal, Runtime};

use crate::profiles::PackerId;
use crate::{PackerError, Result};

/// A packed application: the shell DEX plus the state needed to install
/// its unpacking natives into a runtime.
#[derive(Debug, Clone)]
pub struct PackedApp {
    /// The shell DEX — the only thing a static analyser gets to see.
    pub shell_dex: DexFile,
    /// The packer used.
    pub id: PackerId,
    /// Descriptor of the shell's entry activity.
    pub shell_class: String,
    /// Descriptor of the original entry activity, launched after unpacking.
    pub entry_class: String,
    payloads: Vec<Vec<u8>>,
}

fn shell_class_of(id: PackerId) -> &'static str {
    match id {
        PackerId::P360 => "Lcom/qihoo360/StubApp;",
        PackerId::Alibaba => "Lcom/ali/mobisecenhance/StubApplication;",
        PackerId::Tencent => "Lcom/tencent/StubShell;",
        PackerId::Baidu => "Lcom/baidu/protect/StubApplication;",
        PackerId::Bangcle => "Lcom/secapk/wrapper/ApplicationWrapper;",
        PackerId::Advanced => "Lshell/advanced/Stub;",
    }
}

/// Packs `original` with the given platform profile.
///
/// # Errors
///
/// Fails if `entry_class` is not defined in `original` or the payload
/// cannot be serialised.
///
/// # Example
///
/// ```no_run
/// use dexlego_packer::{pack, PackerId};
/// # let original = dexlego_dex::DexFile::new();
/// let packed = pack(&original, "Lapp/Main;", PackerId::P360).unwrap();
/// assert!(packed.shell_dex.find_class("Lapp/Main;").is_none());
/// ```
pub fn pack(original: &DexFile, entry_class: &str, id: PackerId) -> Result<PackedApp> {
    if original.find_class(entry_class).is_none() {
        return Err(PackerError::BadInput(format!(
            "entry class {entry_class} not defined in the app"
        )));
    }
    let profile = id.profile();

    // Serialise the payload stage(s).
    let mut payload_models: Vec<DexFile> = Vec::new();
    if profile.stages == 1 {
        payload_models.push(original.clone());
    } else {
        // Split classes across two payloads, first half (which includes
        // superclasses emitted first) in stage one.
        let descriptors: Vec<String> = original
            .class_defs()
            .iter()
            .filter_map(|c| {
                original
                    .type_descriptor(c.class_idx)
                    .ok()
                    .map(str::to_owned)
            })
            .collect();
        let cut = descriptors.len().div_ceil(2);
        let first: std::collections::HashSet<&str> =
            descriptors[..cut].iter().map(String::as_str).collect();
        payload_models.push(extract_classes(original, |d| first.contains(d))?);
        payload_models.push(extract_classes(original, |d| !first.contains(d))?);
    }
    let mut payloads = Vec::new();
    for model in &payload_models {
        let canonical = canonicalize(model)?;
        let bytes = writer::write_dex(&canonical)?;
        payloads.push(profile.cipher.apply(profile.key, &bytes));
    }

    // Build the shell DEX.
    let shell_class = shell_class_of(id).to_owned();
    let mut pb = ProgramBuilder::new();
    {
        let payloads_for_shell = payloads.clone();
        let entry = entry_class.to_owned();
        let shell_desc = shell_class.clone();
        pb.class(&shell_class, move |c| {
            c.superclass("Landroid/app/Activity;");
            for i in 0..payloads_for_shell.len() {
                c.static_native_method(&format!("unpack{i}"), &["[B"], "V");
            }
            if id.profile().rehide_after_run {
                c.static_native_method("rehide", &[], "V");
            }
            c.method("onCreate", &["Landroid/os/Bundle;"], "V", 4, move |m| {
                let emit_unpack =
                    |m: &mut dexlego_dalvik::builder::MethodBuilder<'_>, i: usize, data: &[u8]| {
                        m.asm.const4(0, data.len() as i64);
                        m.new_array(1, 0, "[B");
                        m.asm.fill_array_data(1, 1, data.to_vec());
                        m.invoke(
                            Opcode::InvokeStatic,
                            &shell_desc,
                            &format!("unpack{i}"),
                            &["[B"],
                            "V",
                            &[1],
                        );
                    };
                let lazy = id.profile().lazy_final_stage;
                let n = payloads_for_shell.len();
                for (i, data) in payloads_for_shell.iter().enumerate() {
                    let is_final = i == n - 1;
                    if !(lazy && is_final) {
                        emit_unpack(m, i, data);
                    }
                }
                if lazy {
                    // Do some shell business first (what a lazy packer's
                    // shim does), then release the final stage on demand.
                    m.asm.const4(2, 0);
                    m.asm.binop_lit8(Opcode::AddIntLit8, 2, 2, 1);
                    emit_unpack(m, n - 1, &payloads_for_shell[n - 1]);
                }
                // Hand over to the original entry activity.
                m.new_instance(2, &entry);
                m.invoke(Opcode::InvokeDirect, &entry, "<init>", &[], "V", &[2]);
                m.asm.const4(3, 0);
                m.invoke(
                    Opcode::InvokeVirtual,
                    &entry,
                    "onCreate",
                    &["Landroid/os/Bundle;"],
                    "V",
                    &[2, 3],
                );
                if id.profile().rehide_after_run {
                    m.invoke(Opcode::InvokeStatic, &shell_desc, "rehide", &[], "V", &[]);
                }
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
    }
    let shell_dex = pb.build()?;

    Ok(PackedApp {
        shell_dex,
        id,
        shell_class,
        entry_class: entry_class.to_owned(),
        payloads,
    })
}

impl PackedApp {
    /// Loads the shell into `rt` and registers the unpacking natives.
    ///
    /// # Errors
    ///
    /// Propagates linker failures.
    pub fn install(&self, rt: &mut Runtime) -> Result<()> {
        self.install_observed(rt, &mut dexlego_runtime::observer::NullObserver)
    }

    /// [`Self::install`] with class-load observation (needed when DexLego
    /// collects from the very beginning).
    ///
    /// # Errors
    ///
    /// Propagates linker failures.
    pub fn install_observed(&self, rt: &mut Runtime, obs: &mut dyn RuntimeObserver) -> Result<()> {
        rt.load_dex_observed(&self.shell_dex, "shell", obs)?;
        let profile = self.id.profile();
        for i in 0..self.payloads.len() {
            let cipher = profile.cipher;
            let key = profile.key;
            let name = profile.name;
            rt.natives.register(
                &self.shell_class,
                &format!("unpack{i}"),
                "([B)V",
                move |rt, obs, args| {
                    let encrypted: Vec<u8> = match rt.heap.get(args[0].raw).map(|o| &o.kind) {
                        Some(dexlego_runtime::ObjKind::Array { data, .. }) => {
                            data.iter().map(|w| w.raw as u8).collect()
                        }
                        _ => {
                            return Err(dexlego_runtime::RuntimeError::Internal(
                                "unpack expects the payload array".into(),
                            ))
                        }
                    };
                    let plain = cipher.apply(key, &encrypted);
                    let dex = dexlego_dex::reader::read_dex_unchecked(&plain)?;
                    let tag = format!("unpacked:{name}:{i}");
                    let classes = rt.load_dex_observed(&dex, &tag, obs)?;
                    rt.log.push(RuntimeEvent::DynamicLoad {
                        source: tag.clone(),
                        classes: classes.len(),
                    });
                    obs.on_dynamic_load(rt, &tag, &classes);
                    Ok(RetVal::Void)
                },
            );
        }
        if profile.rehide_after_run {
            rt.natives
                .register(&self.shell_class, "rehide", "()V", |rt, _, _| {
                    // Garble the unpacked code in memory: dump-based tools that
                    // run after execution recover nothing.
                    let targets: Vec<dexlego_runtime::MethodId> = rt
                        .method_ids()
                        .filter(|&m| {
                            let class = rt.method(m).class;
                            rt.class(class).source.starts_with("unpacked:")
                        })
                        .collect();
                    for m in targets {
                        if let MethodImpl::Bytecode { insns, .. } = &mut rt.method_mut(m).body {
                            for unit in insns.iter_mut() {
                                *unit = 0xffff;
                            }
                        }
                    }
                    Ok(RetVal::Void)
                });
        }
        Ok(())
    }

    /// Launches the shell activity (install must have happened), driving
    /// the full unpack-and-run sequence through [`Runtime::launch`].
    ///
    /// # Errors
    ///
    /// Propagates execution failures from the shell or the original app,
    /// and returns [`PackerError::BadInput`] if the shell has no
    /// `onCreate`.
    pub fn launch(&self, rt: &mut Runtime, obs: &mut dyn RuntimeObserver) -> Result<()> {
        match rt.launch(obs, &self.shell_class) {
            Ok(true) => Ok(()),
            Ok(false) => Err(PackerError::BadInput("shell has no onCreate".into())),
            Err(LaunchError::Instantiate(e) | LaunchError::OnCreate(e)) => Err(e.into()),
        }
    }

    /// Total encrypted payload bytes (for size reporting).
    pub fn payload_size(&self) -> usize {
        self.payloads.iter().map(Vec::len).sum()
    }
}
