//! Collection files: the on-disk output of the JIT collection stage.
//!
//! The paper's Figure 2 shows five collection files (class data, static
//! values, method data, field data, bytecode); here they are modelled as
//! one [`CollectionFiles`] container with a compact binary codec
//! ([`CollectionFiles::to_bytes`] / [`CollectionFiles::from_bytes`]) so the
//! Table VI "dump file size" metric is measurable. Static values live on
//! their [`FieldRecord`]s and bytecode trees on their [`MethodRecord`]s.

use crate::collect::tree::CollectionTree;
use crate::{DexLegoError, Result};

/// Identity of a method: declaring class descriptor, name, and descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MethodKey {
    /// Declaring class descriptor, e.g. `Lcom/test/Main;`.
    pub class: String,
    /// Method name.
    pub name: String,
    /// Method descriptor, e.g. `(I)V`.
    pub descriptor: String,
}

impl std::fmt::Display for MethodKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}->{}{}", self.class, self.name, self.descriptor)
    }
}

/// A collected static value.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectedValue {
    /// Boolean.
    Bool(bool),
    /// Int-family (byte/short/char/int).
    Int(i32),
    /// Long.
    Long(i64),
    /// Float.
    Float(f32),
    /// Double.
    Double(f64),
    /// String.
    Str(String),
    /// Null or unsupported reference.
    Null,
}

/// One collected field (field data file + static values file).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldRecord {
    /// Field name.
    pub name: String,
    /// Type descriptor.
    pub type_desc: String,
    /// Raw access flags.
    pub access: u32,
    /// Whether the field is static.
    pub is_static: bool,
    /// Initial value collected at class initialisation (static only).
    pub static_value: Option<CollectedValue>,
}

/// One collected class (class data file).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassRecord {
    /// Type descriptor.
    pub descriptor: String,
    /// Superclass descriptor, if any.
    pub superclass: Option<String>,
    /// Interface descriptors.
    pub interfaces: Vec<String>,
    /// Raw access flags.
    pub access: u32,
    /// DEX source tag the class was loaded from.
    pub source: String,
    /// Collected fields.
    pub fields: Vec<FieldRecord>,
}

/// A collected try/catch region, with catch types resolved to descriptors.
#[derive(Debug, Clone, PartialEq)]
pub struct TryRecord {
    /// First covered `dex_pc`.
    pub start: u32,
    /// Number of covered code units.
    pub count: u32,
    /// Typed catch clauses: (exception descriptor, handler `dex_pc`).
    pub catches: Vec<(String, u32)>,
    /// Catch-all handler `dex_pc`, if present.
    pub catch_all: Option<u32>,
}

impl TryRecord {
    /// Whether the range covers `dex_pc`. The end is computed in `u64`: a
    /// collection read from untrusted bytes may run past `u32::MAX`.
    pub fn covers(&self, dex_pc: u32) -> bool {
        dex_pc >= self.start && u64::from(dex_pc) < u64::from(self.start) + u64::from(self.count)
    }
}

/// One collected method (method data file + bytecode file).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRecord {
    /// The method's identity.
    pub key: MethodKey,
    /// Index into [`CollectionFiles::pools`] of the DEX source whose
    /// constant-pool indices the collected units reference.
    pub pool: u32,
    /// Raw access flags.
    pub access: u32,
    /// Register count of the original code item.
    pub registers: u16,
    /// Argument register count.
    pub ins: u16,
    /// Return type descriptor.
    pub return_type: String,
    /// Parameter type descriptors.
    pub params: Vec<String>,
    /// Try/catch regions of the original method (remapped at reassembly).
    pub tries: Vec<TryRecord>,
    /// Unique collection trees, one per distinct execution shape.
    pub trees: Vec<CollectionTree>,
}

/// The constant pools of one collected DEX source (string/type/field/method
/// structures of §IV-C), needed to resolve the indices embedded in the
/// collected code units.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoolRecord {
    /// Source tag (e.g. `"app"`, `"dynamic:1"`).
    pub source: String,
    /// String pool.
    pub strings: Vec<String>,
    /// Type descriptors.
    pub types: Vec<String>,
    /// Method references: (class descriptor, name, descriptor).
    pub methods: Vec<(String, String, String)>,
    /// Field references: (class descriptor, name, type descriptor).
    pub fields: Vec<(String, String, String)>,
}

/// A resolved reflective-call target.
#[derive(Debug, Clone, PartialEq)]
pub struct ReflectionTarget {
    /// The target method.
    pub key: MethodKey,
    /// Whether the target is static.
    pub is_static: bool,
    /// Number of declared parameters.
    pub param_count: u32,
}

/// A reflective call site with every target observed at runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ReflectionSite {
    /// The method containing the `Method.invoke` call.
    pub caller: MethodKey,
    /// `dex_pc` of the invoke instruction.
    pub dex_pc: u32,
    /// Observed targets (usually one).
    pub targets: Vec<ReflectionTarget>,
}

/// The full collection output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollectionFiles {
    /// Class data + field data + static values.
    pub classes: Vec<ClassRecord>,
    /// Method data + bytecode trees.
    pub methods: Vec<MethodRecord>,
    /// Constant pools of every collected DEX source.
    pub pools: Vec<PoolRecord>,
    /// Reflection resolution results.
    pub reflection_sites: Vec<ReflectionSite>,
}

impl CollectionFiles {
    /// Total collected instructions across all methods and trees.
    pub fn total_insns(&self) -> usize {
        self.methods
            .iter()
            .flat_map(|m| &m.trees)
            .map(CollectionTree::total_insns)
            .sum()
    }

    /// Methods that exhibited self-modifying code (any tree with more than
    /// one node).
    pub fn self_modifying_methods(&self) -> impl Iterator<Item = &MethodRecord> {
        self.methods
            .iter()
            .filter(|m| m.trees.iter().any(|t| t.node_count() > 1))
    }

    /// Serialises to the compact binary "dump file" format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        self.encode(&mut w);
        w.0
    }

    /// The length of [`Self::to_bytes`], counted by the same encoder
    /// without materialising the bytes.
    pub fn encoded_len(&self) -> usize {
        let mut w = Writer(0);
        self.encode(&mut w);
        w.0
    }

    fn encode(&self, w: &mut Writer<impl Sink>) {
        w.bytes(b"DLCF\x01");
        w.u32(self.classes.len() as u32);
        for class in &self.classes {
            w.str(&class.descriptor);
            w.opt_str(class.superclass.as_deref());
            w.u32(class.interfaces.len() as u32);
            for i in &class.interfaces {
                w.str(i);
            }
            w.u32(class.access);
            w.str(&class.source);
            w.u32(class.fields.len() as u32);
            for field in &class.fields {
                w.str(&field.name);
                w.str(&field.type_desc);
                w.u32(field.access);
                w.u8(u8::from(field.is_static));
                match &field.static_value {
                    None => w.u8(0),
                    Some(CollectedValue::Bool(b)) => {
                        w.u8(1);
                        w.u8(u8::from(*b));
                    }
                    Some(CollectedValue::Int(v)) => {
                        w.u8(2);
                        w.u32(*v as u32);
                    }
                    Some(CollectedValue::Long(v)) => {
                        w.u8(3);
                        w.u64(*v as u64);
                    }
                    Some(CollectedValue::Float(v)) => {
                        w.u8(4);
                        w.u32(v.to_bits());
                    }
                    Some(CollectedValue::Double(v)) => {
                        w.u8(5);
                        w.u64(v.to_bits());
                    }
                    Some(CollectedValue::Str(s)) => {
                        w.u8(6);
                        w.str(s);
                    }
                    Some(CollectedValue::Null) => w.u8(7),
                }
            }
        }
        w.u32(self.pools.len() as u32);
        for pool in &self.pools {
            w.str(&pool.source);
            w.u32(pool.strings.len() as u32);
            for s in &pool.strings {
                w.str(s);
            }
            w.u32(pool.types.len() as u32);
            for t in &pool.types {
                w.str(t);
            }
            w.u32(pool.methods.len() as u32);
            for (c, n, d) in &pool.methods {
                w.str(c);
                w.str(n);
                w.str(d);
            }
            w.u32(pool.fields.len() as u32);
            for (c, n, t) in &pool.fields {
                w.str(c);
                w.str(n);
                w.str(t);
            }
        }
        w.u32(self.methods.len() as u32);
        for method in &self.methods {
            w.str(&method.key.class);
            w.str(&method.key.name);
            w.str(&method.key.descriptor);
            w.u32(method.pool);
            w.u32(method.access);
            w.u32(u32::from(method.registers));
            w.u32(u32::from(method.ins));
            w.str(&method.return_type);
            w.u32(method.params.len() as u32);
            for p in &method.params {
                w.str(p);
            }
            w.u32(method.tries.len() as u32);
            for t in &method.tries {
                w.u32(t.start);
                w.u32(t.count);
                w.u32(t.catches.len() as u32);
                for (desc, pc) in &t.catches {
                    w.str(desc);
                    w.u32(*pc);
                }
                match t.catch_all {
                    None => w.u8(0),
                    Some(pc) => {
                        w.u8(1);
                        w.u32(pc);
                    }
                }
            }
            w.u32(method.trees.len() as u32);
            for tree in &method.trees {
                w.u32(tree.node_count() as u32);
                for node in tree.nodes() {
                    w.u32(node.sm_start);
                    match node.sm_end {
                        None => w.u8(0),
                        Some(e) => {
                            w.u8(1);
                            w.u32(e);
                        }
                    }
                    match node.parent {
                        None => w.u32(u32::MAX),
                        Some(p) => w.u32(p as u32),
                    }
                    w.u32(node.il.len() as u32);
                    for ins in &node.il {
                        w.u32(ins.dex_pc);
                        w.units(tree.units(ins));
                        match tree.payload(ins) {
                            None => w.u8(0),
                            Some((off, units)) => {
                                w.u8(1);
                                w.u32(off as u32);
                                w.units(units);
                            }
                        }
                    }
                }
            }
        }
        w.u32(self.reflection_sites.len() as u32);
        for site in &self.reflection_sites {
            w.str(&site.caller.class);
            w.str(&site.caller.name);
            w.str(&site.caller.descriptor);
            w.u32(site.dex_pc);
            w.u32(site.targets.len() as u32);
            for t in &site.targets {
                w.str(&t.key.class);
                w.str(&t.key.name);
                w.str(&t.key.descriptor);
                w.u8(u8::from(t.is_static));
                w.u32(t.param_count);
            }
        }
    }

    /// Parses the binary format produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`DexLegoError::Codec`] on truncated or malformed input,
    /// trailing bytes included. A count the remaining bytes cannot hold is
    /// refused before it sizes an allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<CollectionFiles> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(5)? != b"DLCF\x01" {
            return Err(DexLegoError::Codec("bad magic".into()));
        }
        let mut files = CollectionFiles::default();
        for _ in 0..r.u32()? {
            let descriptor = r.str()?;
            let superclass = r.opt_str()?;
            // Each count that sizes an allocation is checked against the
            // fewest bytes one item takes, so a hostile count is refused.
            let n_ifaces = r.count(4)?;
            let mut interfaces = Vec::with_capacity(n_ifaces);
            for _ in 0..n_ifaces {
                interfaces.push(r.str()?);
            }
            let access = r.u32()?;
            let source = r.str()?;
            let n_fields = r.count(4 + 4 + 4 + 1 + 1)?;
            let mut fields = Vec::with_capacity(n_fields);
            for _ in 0..n_fields {
                let name = r.str()?;
                let type_desc = r.str()?;
                let access = r.u32()?;
                let is_static = r.u8()? != 0;
                let static_value = match r.u8()? {
                    0 => None,
                    1 => Some(CollectedValue::Bool(r.u8()? != 0)),
                    2 => Some(CollectedValue::Int(r.u32()? as i32)),
                    3 => Some(CollectedValue::Long(r.u64()? as i64)),
                    4 => Some(CollectedValue::Float(f32::from_bits(r.u32()?))),
                    5 => Some(CollectedValue::Double(f64::from_bits(r.u64()?))),
                    6 => Some(CollectedValue::Str(r.str()?)),
                    7 => Some(CollectedValue::Null),
                    other => return Err(DexLegoError::Codec(format!("bad value tag {other}"))),
                };
                fields.push(FieldRecord {
                    name,
                    type_desc,
                    access,
                    is_static,
                    static_value,
                });
            }
            files.classes.push(ClassRecord {
                descriptor,
                superclass,
                interfaces,
                access,
                source,
                fields,
            });
        }
        for _ in 0..r.u32()? {
            let source = r.str()?;
            let mut pool = PoolRecord {
                source,
                ..PoolRecord::default()
            };
            for _ in 0..r.u32()? {
                pool.strings.push(r.str()?);
            }
            for _ in 0..r.u32()? {
                pool.types.push(r.str()?);
            }
            for _ in 0..r.u32()? {
                pool.methods.push((r.str()?, r.str()?, r.str()?));
            }
            for _ in 0..r.u32()? {
                pool.fields.push((r.str()?, r.str()?, r.str()?));
            }
            files.pools.push(pool);
        }
        for _ in 0..r.u32()? {
            let key = MethodKey {
                class: r.str()?,
                name: r.str()?,
                descriptor: r.str()?,
            };
            let pool = r.u32()?;
            let access = r.u32()?;
            let registers = r.u32()? as u16;
            let ins = r.u32()? as u16;
            let return_type = r.str()?;
            let n_params = r.count(4)?;
            let mut params = Vec::with_capacity(n_params);
            for _ in 0..n_params {
                params.push(r.str()?);
            }
            let n_tries = r.count(4 + 4 + 4 + 1)?;
            let mut tries = Vec::with_capacity(n_tries);
            for _ in 0..n_tries {
                let start = r.u32()?;
                let count = r.u32()?;
                let n_catches = r.count(4 + 4)?;
                let mut catches = Vec::with_capacity(n_catches);
                for _ in 0..n_catches {
                    catches.push((r.str()?, r.u32()?));
                }
                let catch_all = if r.u8()? != 0 { Some(r.u32()?) } else { None };
                tries.push(TryRecord {
                    start,
                    count,
                    catches,
                    catch_all,
                });
            }
            let n_trees = r.u32()?;
            let mut trees = Vec::new();
            // Units of the entry being read, reused across entries.
            let (mut units, mut payload) = (Vec::new(), Vec::new());
            for _ in 0..n_trees {
                let mut tree = CollectionTree::empty();
                for _ in 0..r.u32()? {
                    let sm_start = r.u32()?;
                    let sm_end = if r.u8()? != 0 { Some(r.u32()?) } else { None };
                    let parent = match r.u32()? {
                        u32::MAX => None,
                        p => Some(p as usize),
                    };
                    tree.push_node(sm_start, sm_end, parent);
                    for _ in 0..r.u32()? {
                        let dex_pc = r.u32()?;
                        r.units(&mut units)?;
                        let off = if r.u8()? != 0 {
                            let off = r.u32()? as i32;
                            r.units(&mut payload)?;
                            Some(off)
                        } else {
                            None
                        };
                        tree.push_entry(dex_pc, &units, off.map(|off| (off, &payload[..])))
                            .map_err(|e| DexLegoError::Codec(e.into()))?;
                    }
                }
                tree.link_children()
                    .map_err(|e| DexLegoError::Codec(e.into()))?;
                trees.push(tree);
            }
            files.methods.push(MethodRecord {
                key,
                pool,
                access,
                registers,
                ins,
                return_type,
                params,
                tries,
                trees,
            });
        }
        for _ in 0..r.u32()? {
            let caller = MethodKey {
                class: r.str()?,
                name: r.str()?,
                descriptor: r.str()?,
            };
            let dex_pc = r.u32()?;
            let n = r.count(3 * 4 + 1 + 4)?;
            let mut targets = Vec::with_capacity(n);
            for _ in 0..n {
                targets.push(ReflectionTarget {
                    key: MethodKey {
                        class: r.str()?,
                        name: r.str()?,
                        descriptor: r.str()?,
                    },
                    is_static: r.u8()? != 0,
                    param_count: r.u32()?,
                });
            }
            files.reflection_sites.push(ReflectionSite {
                caller,
                dex_pc,
                targets,
            });
        }
        if r.pos != bytes.len() {
            return Err(DexLegoError::Codec("trailing bytes".into()));
        }
        Ok(files)
    }
}

/// Where the encoder's bytes go: a buffer, or a running count.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

struct Writer<S>(S);

impl<S: Sink> Writer<S> {
    fn bytes(&mut self, b: &[u8]) {
        self.0.put(b);
    }
    fn u8(&mut self, v: u8) {
        self.0.put(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.0.put(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.put(&v.to_le_bytes());
    }
    fn units(&mut self, units: &[u16]) {
        self.u32(units.len() as u32);
        for &u in units {
            self.u16(u);
        }
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let end = self.pos + n;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| DexLegoError::Codec("truncated".into()))?;
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("length checked")))
    }
    /// Reads a count of items that take at least `min_bytes` each,
    /// refusing one the remaining bytes cannot hold.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / min_bytes {
            return Err(DexLegoError::Codec(format!("{n} items cannot fit")));
        }
        Ok(n)
    }
    /// Reads a length-prefixed unit array into `out`, replacing its
    /// contents.
    fn units(&mut self, out: &mut Vec<u16>) -> Result<()> {
        let n = self.u32()? as usize;
        let bytes = self.take(
            n.checked_mul(2)
                .ok_or_else(|| DexLegoError::Codec("truncated".into()))?,
        )?;
        out.clear();
        out.extend(
            bytes
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]])),
        );
        Ok(())
    }
    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DexLegoError::Codec("bad utf-8".into()))
    }
    fn opt_str(&mut self) -> Result<Option<String>> {
        if self.u8()? != 0 {
            Ok(Some(self.str()?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_files() -> CollectionFiles {
        let mut tree = CollectionTree::new();
        tree.observe(0, &[0x0012], None);
        tree.observe(1, &[0x1234, 0x5678], Some((4, &[0x0100, 0x0001])));
        tree.observe(0, &[0x9912], None); // divergence
        CollectionFiles {
            classes: vec![ClassRecord {
                descriptor: "Lcom/test/Main;".into(),
                superclass: Some("Landroid/app/Activity;".into()),
                interfaces: vec!["Lx/I;".into()],
                access: 1,
                source: "app".into(),
                fields: vec![FieldRecord {
                    name: "PHONE".into(),
                    type_desc: "Ljava/lang/String;".into(),
                    access: 0x19,
                    is_static: true,
                    static_value: Some(CollectedValue::Str("800-123-456".into())),
                }],
            }],
            pools: vec![PoolRecord {
                source: "app".into(),
                strings: vec!["800-123-456".into()],
                types: vec!["Lcom/test/Main;".into()],
                methods: vec![(
                    "Lcom/test/Main;".into(),
                    "advancedLeak".into(),
                    "()V".into(),
                )],
                fields: vec![(
                    "Lcom/test/Main;".into(),
                    "PHONE".into(),
                    "Ljava/lang/String;".into(),
                )],
            }],
            methods: vec![MethodRecord {
                key: MethodKey {
                    class: "Lcom/test/Main;".into(),
                    name: "advancedLeak".into(),
                    descriptor: "()V".into(),
                },
                pool: 0,
                access: 1,
                registers: 4,
                ins: 1,
                return_type: "V".into(),
                params: vec![],
                tries: vec![TryRecord {
                    start: 0,
                    count: 4,
                    catches: vec![("Ljava/lang/Exception;".into(), 9)],
                    catch_all: Some(12),
                }],
                trees: vec![tree],
            }],
            reflection_sites: vec![ReflectionSite {
                caller: MethodKey {
                    class: "Lcom/test/Main;".into(),
                    name: "refl".into(),
                    descriptor: "()V".into(),
                },
                dex_pc: 12,
                targets: vec![ReflectionTarget {
                    key: MethodKey {
                        class: "Lcom/test/Main;".into(),
                        name: "hidden".into(),
                        descriptor: "(Ljava/lang/String;)V".into(),
                    },
                    is_static: false,
                    param_count: 1,
                }],
            }],
        }
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let files = sample_files();
        let bytes = files.to_bytes();
        let back = CollectionFiles::from_bytes(&bytes).unwrap();
        assert_eq!(back, files);
        assert_eq!(files.encoded_len(), bytes.len());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            CollectionFiles::from_bytes(b"NOPE!"),
            Err(DexLegoError::Codec(_))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample_files().to_bytes();
        // Any strict prefix must fail, not panic.
        for cut in [5usize, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                CollectionFiles::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes should fail"
            );
        }
    }

    /// The bytes of `sample_files` with its one method's trees replaced by
    /// one hand-written tree, `nodes` as (parent, IL pcs) pairs; every
    /// entry is a `return-void`.
    fn with_tree(nodes: &[(Option<u32>, &[u32])]) -> Vec<u8> {
        let mut files = sample_files();
        files.methods[0].trees.clear();
        files.reflection_sites.clear();
        let mut bytes = files.to_bytes();
        // The file ends with the method's tree count and the site count.
        let tail = bytes.split_off(bytes.len() - 8);
        assert_eq!(tail, [0; 8]);
        let mut w = Writer(bytes);
        w.u32(1);
        w.u32(nodes.len() as u32);
        for &(parent, pcs) in nodes {
            w.u32(0);
            w.u8(0);
            w.u32(parent.unwrap_or(u32::MAX));
            w.u32(pcs.len() as u32);
            for &pc in pcs {
                w.u32(pc);
                w.units(&[0x000e]);
                w.u8(0);
            }
        }
        w.u32(0);
        w.0
    }

    #[test]
    fn malformed_trees_rejected() {
        let tree = |bytes: Vec<u8>| CollectionFiles::from_bytes(&bytes).map(|f| f.total_insns());
        assert_eq!(
            tree(with_tree(&[(None, &[0]), (Some(0), &[1])])).unwrap(),
            2
        );
        for (what, nodes) in [
            (
                "parent out of range",
                &[(None, &[0][..]), (Some(5), &[1][..])][..],
            ),
            ("root with a parent", &[(Some(0), &[0][..])][..]),
            ("one pc twice", &[(None, &[0, 0][..])][..]),
            ("no nodes", &[][..]),
        ] {
            assert!(
                matches!(tree(with_tree(nodes)), Err(DexLegoError::Codec(_))),
                "{what}"
            );
        }
        // A unit count past the input's end fails before allocating.
        let mut bytes = with_tree(&[(None, &[0])]);
        let count = bytes.len() - 4 - 2 - 1 - 4;
        bytes[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(tree(bytes), Err(DexLegoError::Codec(_))));
    }

    #[test]
    fn totals_count_all_nodes() {
        let files = sample_files();
        assert_eq!(files.total_insns(), 3);
        assert_eq!(files.self_modifying_methods().count(), 1);
    }
}
