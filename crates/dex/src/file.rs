//! In-memory model of a DEX file: string/type/proto/field/method pools and
//! class definitions.
//!
//! The model is index-based, mirroring the binary format: instructions and
//! id items refer to pool entries by index. Interning methods
//! ([`DexFile::intern_string`] and friends) append to the pools and
//! deduplicate, so a model built through them never holds two identical pool
//! entries. Pool *sorting* (a validity requirement of the binary format) is
//! performed by the canonicalisation pass in the `dexlego-dalvik` crate,
//! which can also rewrite the indices embedded in instruction streams.

use std::collections::HashMap;

use crate::access::AccessFlags;
use crate::code::CodeItem;
use crate::error::{DexError, Result};
use crate::value::EncodedValue;
use crate::{FieldIdx, MethodIdx, ProtoIdx, StringIdx, TypeIdx};

/// A `proto_id_item`: method prototype (shorty, return type, parameters).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProtoIdItem {
    /// Index of the shorty descriptor string (e.g. `"VIL"`).
    pub shorty: StringIdx,
    /// Return type.
    pub return_type: TypeIdx,
    /// Parameter types, in order.
    pub parameters: Vec<TypeIdx>,
}

/// A `field_id_item`: (declaring class, type, name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldIdItem {
    /// Declaring class.
    pub class: TypeIdx,
    /// Field type.
    pub type_: TypeIdx,
    /// Field name.
    pub name: StringIdx,
}

/// A `method_id_item`: (declaring class, prototype, name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodIdItem {
    /// Declaring class.
    pub class: TypeIdx,
    /// Prototype.
    pub proto: ProtoIdx,
    /// Method name.
    pub name: StringIdx,
}

/// A field as listed in `class_data_item`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedField {
    /// Index into the field pool.
    pub field_idx: FieldIdx,
    /// Access flags.
    pub access: AccessFlags,
}

/// A method as listed in `class_data_item`, with its optional body.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedMethod {
    /// Index into the method pool.
    pub method_idx: MethodIdx,
    /// Access flags.
    pub access: AccessFlags,
    /// Bytecode body; `None` for `native` and `abstract` methods.
    pub code: Option<CodeItem>,
}

/// The members of a class (`class_data_item`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassData {
    /// Static fields, by ascending field index.
    pub static_fields: Vec<EncodedField>,
    /// Instance fields, by ascending field index.
    pub instance_fields: Vec<EncodedField>,
    /// Direct methods (static, private, constructors).
    pub direct_methods: Vec<EncodedMethod>,
    /// Virtual methods.
    pub virtual_methods: Vec<EncodedMethod>,
}

impl ClassData {
    /// Iterates over all methods, direct then virtual.
    pub fn methods(&self) -> impl Iterator<Item = &EncodedMethod> {
        self.direct_methods
            .iter()
            .chain(self.virtual_methods.iter())
    }

    /// Iterates mutably over all methods, direct then virtual.
    pub fn methods_mut(&mut self) -> impl Iterator<Item = &mut EncodedMethod> {
        self.direct_methods
            .iter_mut()
            .chain(self.virtual_methods.iter_mut())
    }

    /// Iterates over all fields, static then instance.
    pub fn fields(&self) -> impl Iterator<Item = &EncodedField> {
        self.static_fields.iter().chain(self.instance_fields.iter())
    }
}

/// A `class_def_item` plus its associated data.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// The class being defined.
    pub class_idx: TypeIdx,
    /// Access flags.
    pub access: AccessFlags,
    /// Superclass, or `None` for `java.lang.Object`.
    pub superclass: Option<TypeIdx>,
    /// Implemented interfaces.
    pub interfaces: Vec<TypeIdx>,
    /// Source file name, if recorded.
    pub source_file: Option<StringIdx>,
    /// Member definitions; `None` for marker classes with no members.
    pub class_data: Option<ClassData>,
    /// Initial values for the leading static fields.
    pub static_values: Vec<EncodedValue>,
}

impl ClassDef {
    /// Creates an empty public class definition.
    pub fn new(class_idx: TypeIdx) -> ClassDef {
        ClassDef {
            class_idx,
            access: AccessFlags::PUBLIC,
            superclass: None,
            interfaces: Vec::new(),
            source_file: None,
            class_data: Some(ClassData::default()),
            static_values: Vec::new(),
        }
    }
}

/// A class definition's inheritance link in descriptor form, as yielded by
/// [`DexFile::hierarchy_links`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyLink<'a> {
    /// Descriptor of the defined class.
    pub class: &'a str,
    /// Descriptor of its superclass; `None` for `java.lang.Object`.
    pub superclass: Option<&'a str>,
    /// Descriptors of the implemented interfaces.
    pub interfaces: Vec<&'a str>,
    /// Whether the definition is an interface.
    pub is_interface: bool,
}

/// An in-memory DEX file.
///
/// # Example
///
/// ```
/// use dexlego_dex::DexFile;
/// let mut dex = DexFile::new();
/// let obj = dex.intern_type("Ljava/lang/Object;");
/// assert_eq!(dex.type_descriptor(obj).unwrap(), "Ljava/lang/Object;");
/// ```
#[derive(Debug, Clone, Default)]
pub struct DexFile {
    strings: Vec<String>,
    type_ids: Vec<StringIdx>,
    protos: Vec<ProtoIdItem>,
    field_ids: Vec<FieldIdItem>,
    method_ids: Vec<MethodIdItem>,
    class_defs: Vec<ClassDef>,
    // Interning caches; rebuilt when a model is loaded wholesale.
    string_cache: HashMap<String, StringIdx>,
    type_cache: HashMap<StringIdx, TypeIdx>,
    proto_cache: HashMap<ProtoIdItem, ProtoIdx>,
    field_cache: HashMap<FieldIdItem, FieldIdx>,
    method_cache: HashMap<MethodIdItem, MethodIdx>,
}

impl PartialEq for DexFile {
    fn eq(&self, other: &DexFile) -> bool {
        self.strings == other.strings
            && self.type_ids == other.type_ids
            && self.protos == other.protos
            && self.field_ids == other.field_ids
            && self.method_ids == other.method_ids
            && self.class_defs == other.class_defs
    }
}

impl DexFile {
    /// Creates an empty DEX model.
    pub fn new() -> DexFile {
        DexFile::default()
    }

    /// Builds a model from raw pools (used by the reader), rebuilding the
    /// interning caches.
    pub fn from_pools(
        strings: Vec<String>,
        type_ids: Vec<StringIdx>,
        protos: Vec<ProtoIdItem>,
        field_ids: Vec<FieldIdItem>,
        method_ids: Vec<MethodIdItem>,
        class_defs: Vec<ClassDef>,
    ) -> DexFile {
        let mut dex = DexFile {
            strings,
            type_ids,
            protos,
            field_ids,
            method_ids,
            class_defs,
            ..DexFile::default()
        };
        dex.rebuild_caches();
        dex
    }

    fn rebuild_caches(&mut self) {
        self.string_cache = self
            .strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
        self.type_cache = self
            .type_ids
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        self.proto_cache = self
            .protos
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u32))
            .collect();
        self.field_cache = self
            .field_ids
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i as u32))
            .collect();
        self.method_cache = self
            .method_ids
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i as u32))
            .collect();
    }

    // ---- interning -------------------------------------------------------

    /// Interns a string, returning its pool index.
    pub fn intern_string(&mut self, s: &str) -> StringIdx {
        if let Some(&idx) = self.string_cache.get(s) {
            return idx;
        }
        let idx = self.strings.len() as u32;
        self.strings.push(s.to_owned());
        self.string_cache.insert(s.to_owned(), idx);
        idx
    }

    /// Interns a type descriptor (e.g. `"Lcom/test/Main;"`).
    pub fn intern_type(&mut self, descriptor: &str) -> TypeIdx {
        let sidx = self.intern_string(descriptor);
        if let Some(&idx) = self.type_cache.get(&sidx) {
            return idx;
        }
        let idx = self.type_ids.len() as u32;
        self.type_ids.push(sidx);
        self.type_cache.insert(sidx, idx);
        idx
    }

    /// Interns a prototype from descriptor strings.
    ///
    /// The shorty is derived from the return and parameter descriptors.
    pub fn intern_proto(&mut self, return_type: &str, parameters: &[&str]) -> ProtoIdx {
        let shorty: String = std::iter::once(shorty_char(return_type))
            .chain(parameters.iter().map(|p| shorty_char(p)))
            .collect();
        let shorty = self.intern_string(&shorty);
        let return_type = self.intern_type(return_type);
        let parameters = parameters.iter().map(|p| self.intern_type(p)).collect();
        let item = ProtoIdItem {
            shorty,
            return_type,
            parameters,
        };
        if let Some(&idx) = self.proto_cache.get(&item) {
            return idx;
        }
        let idx = self.protos.len() as u32;
        self.proto_cache.insert(item.clone(), idx);
        self.protos.push(item);
        idx
    }

    /// Interns a field id.
    pub fn intern_field(&mut self, class: &str, type_: &str, name: &str) -> FieldIdx {
        let item = FieldIdItem {
            class: self.intern_type(class),
            type_: self.intern_type(type_),
            name: self.intern_string(name),
        };
        if let Some(&idx) = self.field_cache.get(&item) {
            return idx;
        }
        let idx = self.field_ids.len() as u32;
        self.field_cache.insert(item, idx);
        self.field_ids.push(item);
        idx
    }

    /// Interns a method id.
    pub fn intern_method(
        &mut self,
        class: &str,
        name: &str,
        return_type: &str,
        parameters: &[&str],
    ) -> MethodIdx {
        let item = MethodIdItem {
            class: self.intern_type(class),
            proto: self.intern_proto(return_type, parameters),
            name: self.intern_string(name),
        };
        if let Some(&idx) = self.method_cache.get(&item) {
            return idx;
        }
        let idx = self.method_ids.len() as u32;
        self.method_cache.insert(item, idx);
        self.method_ids.push(item);
        idx
    }

    /// Adds a class definition, returning its index in the class list.
    pub fn add_class(&mut self, def: ClassDef) -> usize {
        self.class_defs.push(def);
        self.class_defs.len() - 1
    }

    // ---- accessors -------------------------------------------------------

    /// The string pool.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// The type-id pool (indices into the string pool).
    pub fn type_ids(&self) -> &[StringIdx] {
        &self.type_ids
    }

    /// The prototype pool.
    pub fn protos(&self) -> &[ProtoIdItem] {
        &self.protos
    }

    /// The field-id pool.
    pub fn field_ids(&self) -> &[FieldIdItem] {
        &self.field_ids
    }

    /// The method-id pool.
    pub fn method_ids(&self) -> &[MethodIdItem] {
        &self.method_ids
    }

    /// The class definitions.
    pub fn class_defs(&self) -> &[ClassDef] {
        &self.class_defs
    }

    /// Code units across every method body: the size of the code that
    /// executing, verifying or tracing the file works through.
    pub fn code_units(&self) -> usize {
        self.class_defs
            .iter()
            .filter_map(|c| c.class_data.as_ref())
            .flat_map(|data| data.methods())
            .filter_map(|m| m.code.as_ref())
            .map(|code| code.insns.len())
            .sum()
    }

    /// Mutable access to the class definitions.
    pub fn class_defs_mut(&mut self) -> &mut Vec<ClassDef> {
        &mut self.class_defs
    }

    /// Looks up a string by index.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::IndexOutOfRange`] for an invalid index.
    pub fn string(&self, idx: StringIdx) -> Result<&str> {
        self.strings
            .get(idx as usize)
            .map(String::as_str)
            .ok_or(DexError::IndexOutOfRange {
                pool: "string",
                index: idx,
                len: self.strings.len(),
            })
    }

    /// The descriptor string of a type.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::IndexOutOfRange`] for an invalid index.
    pub fn type_descriptor(&self, idx: TypeIdx) -> Result<&str> {
        let sidx = *self
            .type_ids
            .get(idx as usize)
            .ok_or(DexError::IndexOutOfRange {
                pool: "type",
                index: idx,
                len: self.type_ids.len(),
            })?;
        self.string(sidx)
    }

    /// The prototype at `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::IndexOutOfRange`] for an invalid index.
    pub fn proto(&self, idx: ProtoIdx) -> Result<&ProtoIdItem> {
        self.protos
            .get(idx as usize)
            .ok_or(DexError::IndexOutOfRange {
                pool: "proto",
                index: idx,
                len: self.protos.len(),
            })
    }

    /// The field id at `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::IndexOutOfRange`] for an invalid index.
    pub fn field_id(&self, idx: FieldIdx) -> Result<&FieldIdItem> {
        self.field_ids
            .get(idx as usize)
            .ok_or(DexError::IndexOutOfRange {
                pool: "field",
                index: idx,
                len: self.field_ids.len(),
            })
    }

    /// The method id at `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::IndexOutOfRange`] for an invalid index.
    pub fn method_id(&self, idx: MethodIdx) -> Result<&MethodIdItem> {
        self.method_ids
            .get(idx as usize)
            .ok_or(DexError::IndexOutOfRange {
                pool: "method",
                index: idx,
                len: self.method_ids.len(),
            })
    }

    /// Finds the class definition for a type descriptor.
    pub fn find_class(&self, descriptor: &str) -> Option<&ClassDef> {
        self.class_defs
            .iter()
            .find(|c| self.type_descriptor(c.class_idx) == Ok(descriptor))
    }

    /// One class definition's inheritance link, in descriptor form: the
    /// raw material for a class-hierarchy model (see
    /// `dexlego_verifier::hierarchy`). Entries with unresolvable type
    /// indices are skipped rather than failing the whole walk.
    pub fn hierarchy_links(&self) -> impl Iterator<Item = HierarchyLink<'_>> {
        self.class_defs.iter().filter_map(|c| {
            let class = self.type_descriptor(c.class_idx).ok()?;
            let superclass = match c.superclass {
                Some(s) => Some(self.type_descriptor(s).ok()?),
                None => None,
            };
            let interfaces = c
                .interfaces
                .iter()
                .filter_map(|&i| self.type_descriptor(i).ok())
                .collect();
            Some(HierarchyLink {
                class,
                superclass,
                interfaces,
                is_interface: c.access.contains(AccessFlags::INTERFACE),
            })
        })
    }

    /// Human-readable signature for a method id, e.g.
    /// `Lcom/test/Main;->advancedLeak()V`.
    pub fn method_signature(&self, idx: MethodIdx) -> Result<String> {
        let m = self.method_id(idx)?;
        let proto = self.proto(m.proto)?;
        let mut sig = String::new();
        sig.push_str(self.type_descriptor(m.class)?);
        sig.push_str("->");
        sig.push_str(self.string(m.name)?);
        sig.push('(');
        for &p in &proto.parameters {
            sig.push_str(self.type_descriptor(p)?);
        }
        sig.push(')');
        sig.push_str(self.type_descriptor(proto.return_type)?);
        Ok(sig)
    }

    /// Human-readable signature for a field id, e.g.
    /// `Lcom/test/Main;->PHONE:Ljava/lang/String;`.
    pub fn field_signature(&self, idx: FieldIdx) -> Result<String> {
        let f = self.field_id(idx)?;
        Ok(format!(
            "{}->{}:{}",
            self.type_descriptor(f.class)?,
            self.string(f.name)?,
            self.type_descriptor(f.type_)?
        ))
    }

    /// Total number of instruction code units across all method bodies.
    pub fn total_insn_units(&self) -> usize {
        self.class_defs
            .iter()
            .filter_map(|c| c.class_data.as_ref())
            .flat_map(|d| d.methods())
            .filter_map(|m| m.code.as_ref())
            .map(|c| c.insns.len())
            .sum()
    }
}

/// Shorty character for a type descriptor: `L` for any reference type, the
/// primitive letter otherwise.
pub fn shorty_char(descriptor: &str) -> char {
    match descriptor.as_bytes().first() {
        Some(b'[') | Some(b'L') => 'L',
        Some(&c) => c as char,
        None => 'V',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut dex = DexFile::new();
        let a = dex.intern_string("hello");
        let b = dex.intern_string("hello");
        assert_eq!(a, b);
        assert_eq!(dex.strings().len(), 1);

        let t1 = dex.intern_type("I");
        let t2 = dex.intern_type("I");
        assert_eq!(t1, t2);

        let p1 = dex.intern_proto("V", &["I", "Ljava/lang/String;"]);
        let p2 = dex.intern_proto("V", &["I", "Ljava/lang/String;"]);
        assert_eq!(p1, p2);
        let p3 = dex.intern_proto("V", &["I"]);
        assert_ne!(p1, p3);
    }

    #[test]
    fn shorty_derivation() {
        let mut dex = DexFile::new();
        let p = dex.intern_proto("V", &["I", "Lfoo;", "[B", "D"]);
        let proto = dex.proto(p).unwrap();
        assert_eq!(dex.string(proto.shorty).unwrap(), "VILLD");
    }

    #[test]
    fn method_signature_formats() {
        let mut dex = DexFile::new();
        let m = dex.intern_method("Lcom/test/Main;", "advancedLeak", "V", &[]);
        assert_eq!(
            dex.method_signature(m).unwrap(),
            "Lcom/test/Main;->advancedLeak()V"
        );
    }

    #[test]
    fn field_signature_formats() {
        let mut dex = DexFile::new();
        let f = dex.intern_field("Lcom/test/Main;", "Ljava/lang/String;", "PHONE");
        assert_eq!(
            dex.field_signature(f).unwrap(),
            "Lcom/test/Main;->PHONE:Ljava/lang/String;"
        );
    }

    #[test]
    fn out_of_range_indices_error() {
        let dex = DexFile::new();
        assert!(matches!(
            dex.string(0),
            Err(DexError::IndexOutOfRange { pool: "string", .. })
        ));
        assert!(dex.type_descriptor(3).is_err());
        assert!(dex.proto(0).is_err());
        assert!(dex.field_id(0).is_err());
        assert!(dex.method_id(0).is_err());
    }

    #[test]
    fn find_class_by_descriptor() {
        let mut dex = DexFile::new();
        let t = dex.intern_type("Lcom/a/B;");
        dex.add_class(ClassDef::new(t));
        assert!(dex.find_class("Lcom/a/B;").is_some());
        assert!(dex.find_class("Lcom/a/C;").is_none());
    }

    #[test]
    fn from_pools_rebuilds_caches() {
        let mut dex = DexFile::new();
        dex.intern_method("La;", "m", "V", &[]);
        let rebuilt = DexFile::from_pools(
            dex.strings.clone(),
            dex.type_ids.clone(),
            dex.protos.clone(),
            dex.field_ids.clone(),
            dex.method_ids.clone(),
            dex.class_defs.clone(),
        );
        assert_eq!(rebuilt, dex);
        // Interning an existing string must hit the rebuilt cache.
        let mut rebuilt = rebuilt;
        let before = rebuilt.strings().len();
        rebuilt.intern_string("m");
        assert_eq!(rebuilt.strings().len(), before);
    }
}
