//! High-level program builder: construct [`DexFile`]s from class and method
//! specifications without touching raw pool indices.
//!
//! Used by the benchmark corpus generators, the packer shells, and tests.
//!
//! # Example
//!
//! ```
//! use dexlego_dalvik::builder::ProgramBuilder;
//! use dexlego_dalvik::Opcode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new();
//! pb.class("Lcom/example/Calc;", |c| {
//!     c.static_method("double", &["I"], "I", 1, |m| {
//!         let x = m.param_reg(0);
//!         m.asm.binop(Opcode::AddInt, 0, x, x);
//!         m.asm.ret(Opcode::Return, 0);
//!     });
//! });
//! let dex = pb.build()?;
//! assert!(dex.find_class("Lcom/example/Calc;").is_some());
//! # Ok(())
//! # }
//! ```

use dexlego_dex::file::{EncodedField, EncodedMethod};
use dexlego_dex::value::EncodedValue;
use dexlego_dex::{AccessFlags, ClassDef, CodeItem, DexFile};

use crate::asm::MethodAssembler;
use crate::opcode::Opcode;
use crate::Result;

/// Initial value for a static field.
#[derive(Debug, Clone)]
pub enum StaticInit {
    /// A string constant.
    Str(String),
    /// An integer constant.
    Int(i32),
    /// A boolean constant.
    Bool(bool),
}

struct FieldSpec {
    name: String,
    type_desc: String,
    access: AccessFlags,
    is_static: bool,
    init: Option<StaticInit>,
}

struct MethodSpec {
    name: String,
    params: Vec<String>,
    return_type: String,
    access: AccessFlags,
    locals: u16,
    body: Option<MethodAssembler>,
    outs_hint: u16,
}

/// Builder for one class.
pub struct ClassBuilder<'a> {
    dex: &'a mut DexFile,
    descriptor: String,
    superclass: String,
    interfaces: Vec<String>,
    access: AccessFlags,
    fields: Vec<FieldSpec>,
    methods: Vec<MethodSpec>,
}

/// Builder for one method body; wraps a [`MethodAssembler`] plus pool
/// interning and the register-layout conventions (parameters in the highest
/// registers, as in real DEX).
pub struct MethodBuilder<'a> {
    /// The underlying assembler; use directly for anything not covered by
    /// the helpers.
    pub asm: MethodAssembler,
    dex: &'a mut DexFile,
    locals: u16,
    is_static: bool,
    params: Vec<String>,
}

impl MethodBuilder<'_> {
    /// The register holding `this` (instance methods only).
    pub fn this_reg(&self) -> u32 {
        debug_assert!(!self.is_static);
        u32::from(self.locals)
    }

    /// The first register of parameter `i` (0-based, not counting `this`).
    pub fn param_reg(&self, i: usize) -> u32 {
        let mut r = u32::from(self.locals) + u32::from(!self.is_static);
        for p in &self.params[..i] {
            r += if p == "J" || p == "D" { 2 } else { 1 };
        }
        r
    }

    /// Interns a string and loads it: `const-string vreg, "s"`.
    pub fn const_str(&mut self, reg: u32, s: &str) {
        let idx = self.dex.intern_string(s);
        self.asm.const_string(reg, idx);
    }

    /// `sget-object`-style load of a static field.
    pub fn sget(&mut self, op: Opcode, reg: u32, class: &str, name: &str, ty: &str) {
        let idx = self.dex.intern_field(class, ty, name);
        self.asm.field_op(op, reg, 0, idx);
    }

    /// `sput`-style store to a static field.
    pub fn sput(&mut self, op: Opcode, reg: u32, class: &str, name: &str, ty: &str) {
        let idx = self.dex.intern_field(class, ty, name);
        self.asm.field_op(op, reg, 0, idx);
    }

    /// `iget`-style load of an instance field.
    pub fn iget(&mut self, op: Opcode, dst: u32, obj: u32, class: &str, name: &str, ty: &str) {
        let idx = self.dex.intern_field(class, ty, name);
        self.asm.field_op(op, dst, obj, idx);
    }

    /// `iput`-style store to an instance field.
    pub fn iput(&mut self, op: Opcode, src: u32, obj: u32, class: &str, name: &str, ty: &str) {
        let idx = self.dex.intern_field(class, ty, name);
        self.asm.field_op(op, src, obj, idx);
    }

    /// An invoke with full signature interning.
    pub fn invoke(
        &mut self,
        op: Opcode,
        class: &str,
        name: &str,
        params: &[&str],
        ret: &str,
        regs: &[u32],
    ) {
        let idx = self.dex.intern_method(class, name, ret, params);
        self.asm.invoke(op, idx, regs);
    }

    /// `new-instance vreg, type`.
    pub fn new_instance(&mut self, reg: u32, class: &str) {
        let idx = self.dex.intern_type(class);
        let mut insn = crate::insn::Insn::of(Opcode::NewInstance);
        insn.a = reg;
        insn.idx = idx;
        self.asm.push(insn);
    }

    /// `new-array vdst, vlen, type`.
    pub fn new_array(&mut self, dst: u32, len: u32, array_type: &str) {
        let idx = self.dex.intern_type(array_type);
        let mut insn = crate::insn::Insn::of(Opcode::NewArray);
        insn.a = dst;
        insn.b = len;
        insn.idx = idx;
        self.asm.push(insn);
    }

    /// `const-class vreg, type`.
    pub fn const_class(&mut self, reg: u32, class: &str) {
        let idx = self.dex.intern_type(class);
        let mut insn = crate::insn::Insn::of(Opcode::ConstClass);
        insn.a = reg;
        insn.idx = idx;
        self.asm.push(insn);
    }

    /// `check-cast vreg, type`.
    pub fn check_cast(&mut self, reg: u32, class: &str) {
        let idx = self.dex.intern_type(class);
        let mut insn = crate::insn::Insn::of(Opcode::CheckCast);
        insn.a = reg;
        insn.idx = idx;
        self.asm.push(insn);
    }

    /// `aput`-style array store: `vval` into `varr[vidx]`.
    pub fn aput(&mut self, op: Opcode, val: u32, arr: u32, idx: u32) {
        let mut insn = crate::insn::Insn::of(op);
        insn.a = val;
        insn.b = arr;
        insn.c = idx;
        self.asm.push(insn);
    }
}

impl ClassBuilder<'_> {
    /// Sets the superclass (default `Ljava/lang/Object;`).
    pub fn superclass(&mut self, desc: &str) -> &mut Self {
        self.superclass = desc.to_owned();
        self
    }

    /// Adds an implemented interface.
    pub fn implements(&mut self, desc: &str) -> &mut Self {
        self.interfaces.push(desc.to_owned());
        self
    }

    /// Sets access flags (default `public`).
    pub fn access(&mut self, access: AccessFlags) -> &mut Self {
        self.access = access;
        self
    }

    /// Adds an instance field.
    pub fn instance_field(&mut self, name: &str, type_desc: &str) -> &mut Self {
        self.fields.push(FieldSpec {
            name: name.to_owned(),
            type_desc: type_desc.to_owned(),
            access: AccessFlags::PUBLIC,
            is_static: false,
            init: None,
        });
        self
    }

    /// Adds a static field, optionally with an initial value.
    pub fn static_field(
        &mut self,
        name: &str,
        type_desc: &str,
        init: Option<StaticInit>,
    ) -> &mut Self {
        self.fields.push(FieldSpec {
            name: name.to_owned(),
            type_desc: type_desc.to_owned(),
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            is_static: true,
            init,
        });
        self
    }

    fn push_method(
        &mut self,
        name: &str,
        params: &[&str],
        ret: &str,
        access: AccessFlags,
        locals: u16,
        body: Option<impl FnOnce(&mut MethodBuilder<'_>)>,
    ) {
        let params: Vec<String> = params.iter().map(|s| s.to_string()).collect();
        let asm = body.map(|f| {
            let mut mb = MethodBuilder {
                asm: MethodAssembler::new(),
                dex: self.dex,
                locals,
                is_static: access.is_static(),
                params: params.clone(),
            };
            f(&mut mb);
            mb.asm
        });
        self.methods.push(MethodSpec {
            name: name.to_owned(),
            params,
            return_type: ret.to_owned(),
            access,
            locals,
            body: asm,
            outs_hint: 6,
        });
    }

    /// Adds a public instance method with `locals` local registers.
    pub fn method(
        &mut self,
        name: &str,
        params: &[&str],
        ret: &str,
        locals: u16,
        body: impl FnOnce(&mut MethodBuilder<'_>),
    ) -> &mut Self {
        self.push_method(name, params, ret, AccessFlags::PUBLIC, locals, Some(body));
        self
    }

    /// Adds a public static method.
    pub fn static_method(
        &mut self,
        name: &str,
        params: &[&str],
        ret: &str,
        locals: u16,
        body: impl FnOnce(&mut MethodBuilder<'_>),
    ) -> &mut Self {
        self.push_method(
            name,
            params,
            ret,
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            locals,
            Some(body),
        );
        self
    }

    /// Adds a constructor (`<init>`); the body should invoke the super
    /// constructor itself if needed.
    pub fn constructor(
        &mut self,
        params: &[&str],
        locals: u16,
        body: impl FnOnce(&mut MethodBuilder<'_>),
    ) -> &mut Self {
        self.push_method(
            "<init>",
            params,
            "V",
            AccessFlags::PUBLIC | AccessFlags::CONSTRUCTOR,
            locals,
            Some(body),
        );
        self
    }

    /// Adds a `native` method declaration (implementation registered with
    /// the runtime's native registry).
    pub fn native_method(&mut self, name: &str, params: &[&str], ret: &str) -> &mut Self {
        self.push_method(
            name,
            params,
            ret,
            AccessFlags::PUBLIC | AccessFlags::NATIVE,
            0,
            None::<fn(&mut MethodBuilder<'_>)>,
        );
        self
    }

    /// Adds a static `native` method declaration.
    pub fn static_native_method(&mut self, name: &str, params: &[&str], ret: &str) -> &mut Self {
        self.push_method(
            name,
            params,
            ret,
            AccessFlags::PUBLIC | AccessFlags::STATIC | AccessFlags::NATIVE,
            0,
            None::<fn(&mut MethodBuilder<'_>)>,
        );
        self
    }
}

/// Builder for a whole DEX program.
#[derive(Default)]
pub struct ProgramBuilder {
    dex: DexFile,
    classes: Vec<PendingClass>,
}

struct PendingClass {
    descriptor: String,
    superclass: String,
    interfaces: Vec<String>,
    access: AccessFlags,
    fields: Vec<FieldSpec>,
    methods: Vec<MethodSpec>,
}

impl ProgramBuilder {
    /// Creates an empty program.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Defines a class.
    pub fn class(&mut self, descriptor: &str, f: impl FnOnce(&mut ClassBuilder<'_>)) -> &mut Self {
        let mut cb = ClassBuilder {
            dex: &mut self.dex,
            descriptor: descriptor.to_owned(),
            superclass: "Ljava/lang/Object;".to_owned(),
            interfaces: Vec::new(),
            access: AccessFlags::PUBLIC,
            fields: Vec::new(),
            methods: Vec::new(),
        };
        f(&mut cb);
        self.classes.push(PendingClass {
            descriptor: cb.descriptor,
            superclass: cb.superclass,
            interfaces: cb.interfaces,
            access: cb.access,
            fields: cb.fields,
            methods: cb.methods,
        });
        self
    }

    /// Assembles every method and produces the final [`DexFile`].
    ///
    /// # Errors
    ///
    /// Propagates assembly errors (undefined labels, operand overflow).
    pub fn build(&mut self) -> Result<DexFile> {
        let mut dex = std::mem::take(&mut self.dex);
        for pending in self.classes.drain(..) {
            let class_idx = dex.intern_type(&pending.descriptor);
            let mut def = ClassDef::new(class_idx);
            def.access = pending.access;
            def.superclass = Some(dex.intern_type(&pending.superclass));
            def.interfaces = pending
                .interfaces
                .iter()
                .map(|i| dex.intern_type(i))
                .collect();
            let data = def.class_data.as_mut().expect("fresh class has data");

            let mut statics: Vec<(EncodedField, Option<StaticInit>)> = Vec::new();
            for field in &pending.fields {
                let idx = dex.intern_field(&pending.descriptor, &field.type_desc, &field.name);
                let encoded = EncodedField {
                    field_idx: idx,
                    access: field.access,
                };
                if field.is_static {
                    statics.push((encoded, field.init.clone()));
                } else {
                    data.instance_fields.push(encoded);
                }
            }
            // class_data field lists must be ascending by field index, and
            // static_values is positional over the *sorted* list: sort
            // first, then fill value gaps with type defaults up to the last
            // initialised slot.
            statics.sort_by_key(|(f, _)| f.field_idx);
            let last_init = statics.iter().rposition(|(_, init)| init.is_some());
            for (i, (encoded, init)) in statics.iter().enumerate() {
                if last_init.is_some_and(|last| i <= last) {
                    let value = match init {
                        Some(StaticInit::Str(s)) => EncodedValue::String(dex.intern_string(s)),
                        Some(StaticInit::Int(v)) => EncodedValue::Int(*v),
                        Some(StaticInit::Bool(b)) => EncodedValue::Boolean(*b),
                        None => {
                            let tidx = dex.field_ids()[encoded.field_idx as usize].type_;
                            let desc = dex
                                .type_descriptor(tidx)
                                .unwrap_or("Ljava/lang/Object;")
                                .to_owned();
                            EncodedValue::default_for_type(&desc)
                        }
                    };
                    def.static_values.push(value);
                }
            }
            data.static_fields = statics.into_iter().map(|(f, _)| f).collect();

            for spec in pending.methods {
                let param_refs: Vec<&str> = spec.params.iter().map(String::as_str).collect();
                let method_idx = dex.intern_method(
                    &pending.descriptor,
                    &spec.name,
                    &spec.return_type,
                    &param_refs,
                );
                let code = match &spec.body {
                    Some(asm) => {
                        let insns = asm.assemble()?;
                        let ins: u16 = ins_slots(&spec);
                        Some(CodeItem {
                            registers_size: spec.locals + ins,
                            ins_size: ins,
                            outs_size: spec.outs_hint,
                            insns,
                            tries: Vec::new(),
                            handlers: Vec::new(),
                        })
                    }
                    None => None,
                };
                let encoded = EncodedMethod {
                    method_idx,
                    access: spec.access,
                    code,
                };
                let is_direct = spec.access.is_static()
                    || spec.access.contains(AccessFlags::PRIVATE)
                    || spec.name.starts_with('<');
                if is_direct {
                    data.direct_methods.push(encoded);
                } else {
                    data.virtual_methods.push(encoded);
                }
            }
            data.static_fields.sort_by_key(|f| f.field_idx);
            data.instance_fields.sort_by_key(|f| f.field_idx);
            data.direct_methods.sort_by_key(|m| m.method_idx);
            data.virtual_methods.sort_by_key(|m| m.method_idx);
            dex.add_class(def);
        }
        Ok(dex)
    }
}

fn ins_slots(spec: &MethodSpec) -> u16 {
    let mut n = u16::from(!spec.access.is_static());
    for p in &spec.params {
        n += if p == "J" || p == "D" { 2 } else { 1 };
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use dexlego_dex::verify::{verify, Strictness};

    #[test]
    fn builds_verifiable_class() {
        let mut pb = ProgramBuilder::new();
        pb.class("Lcom/test/Main;", |c| {
            c.superclass("Landroid/app/Activity;");
            c.static_field(
                "PHONE",
                "Ljava/lang/String;",
                Some(StaticInit::Str("800-123-456".into())),
            );
            c.instance_field("count", "I");
            c.method("go", &["I"], "I", 1, |m| {
                let p = m.param_reg(0);
                m.asm.binop_lit8(Opcode::AddIntLit8, 0, p, 1);
                m.asm.ret(Opcode::Return, 0);
            });
            c.native_method("tamper", &["I"], "V");
        });
        let dex = pb.build().unwrap();
        verify(&dex, Strictness::Referential).unwrap();
        let class = dex.find_class("Lcom/test/Main;").unwrap();
        let data = class.class_data.as_ref().unwrap();
        assert_eq!(data.virtual_methods.len(), 2); // go + tamper
        assert_eq!(data.static_fields.len(), 1);
        assert_eq!(class.static_values.len(), 1);
    }

    #[test]
    fn param_reg_layout_accounts_for_this_and_wides() {
        let mut pb = ProgramBuilder::new();
        let mut seen = Vec::new();
        pb.class("La;", |c| {
            c.method("m", &["I", "J", "Lx;"], "V", 3, |m| {
                seen.push(m.this_reg());
                seen.push(m.param_reg(0));
                seen.push(m.param_reg(1));
                seen.push(m.param_reg(2));
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        pb.build().unwrap();
        // locals=3, so this=3, p0=4, p1(J)=5..6, p2=7.
        assert_eq!(seen, vec![3, 4, 5, 7]);
    }

    #[test]
    fn static_value_gap_filling() {
        let mut pb = ProgramBuilder::new();
        pb.class("La;", |c| {
            c.static_field("first", "I", None);
            c.static_field("second", "Z", Some(StaticInit::Bool(true)));
        });
        let dex = pb.build().unwrap();
        let class = dex.find_class("La;").unwrap();
        assert_eq!(class.static_values.len(), 2);
        assert_eq!(class.static_values[1], EncodedValue::Boolean(true));
        verify(&dex, Strictness::Referential).unwrap();
    }
}
