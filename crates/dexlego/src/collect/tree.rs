//! The collection tree: the paper's Algorithm 1 and Figure 3 data
//! structures.
//!
//! One [`CollectionTree`] records all instructions executed during a single
//! execution of a method. The root node's Instruction List (IL) is the
//! baseline; whenever an instruction with an already-recorded `dex_pc`
//! differs from the recorded one, the bytecode has been modified at runtime
//! and a child node (a *divergence branch*) is forked. The Instruction
//! Index Map (IIM) maps `dex_pc` values to IL indices for the comparisons.
//!
//! # Layout
//!
//! Observing runs once per executed instruction, so the tree is laid out
//! to allocate nothing per instruction:
//!
//! * **IL arena.** An IL entry ([`CollectedInsn`]) holds its `dex_pc` and a
//!   range into one unit arena per tree. The range covers the
//!   instruction's code units followed by its captured payload units.
//!   [`CollectionTree::units`] and [`CollectionTree::payload`] read them
//!   back. Recording an instruction appends to the arena, and a
//!   re-executed instruction (a loop) compares its units with the arena
//!   slice and records nothing.
//! * **IIM hashing.** The IIM is keyed by `dex_pc` through [`PcHasher`],
//!   an in-crate multiplicative hasher: one multiply per lookup instead of
//!   SipHash's rounds.
//!
//! Two trees are equal when their nodes hold the same instructions, not
//! when their arenas are laid out alike: a divergence branch recorded
//! earlier or later in an execution leaves the same tree.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Index of a node within its [`CollectionTree`].
pub type NodeId = usize;

/// A multiplicative hasher for `dex_pc` keys (the `FxHash` scheme: rotate,
/// xor, multiply by an odd constant per word).
///
/// Consecutive pcs land in distinct buckets, because multiplying by an odd
/// constant permutes the low bits the table indexes with. Keys here are
/// code offsets, never attacker-chosen hash-flooding input to a long-lived
/// table, so a keyed hash buys nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct PcHasher(u64);

const PC_HASH_K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for PcHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(PC_HASH_K);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(i)).wrapping_mul(PC_HASH_K);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by `dex_pc`, hashed with [`PcHasher`].
pub type PcMap<V> = HashMap<u32, V, BuildHasherDefault<PcHasher>>;

/// A captured instruction: its `dex_pc` and where its exact code units,
/// plus any switch/array payload it references, sit in the tree's unit
/// arena (payloads are not themselves executed, so they are captured
/// alongside the referencing instruction).
///
/// Read the units with [`CollectionTree::units`] and the payload with
/// [`CollectionTree::payload`].
#[derive(Debug, Clone, Copy)]
pub struct CollectedInsn {
    /// Index of the instruction in the method's code-unit array.
    pub dex_pc: u32,
    /// First arena unit of the instruction.
    start: u32,
    /// Number of instruction units (`SameIns` in Algorithm 1 compares
    /// these).
    len: u32,
    /// Payload for `packed-switch`/`sparse-switch`/`fill-array-data`: the
    /// original payload offset (relative to the instruction) and the number
    /// of payload units, stored right after the instruction's units.
    payload: Option<(i32, u32)>,
}

impl CollectedInsn {
    /// The arena range of the instruction's units.
    fn units_range(&self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// One node of the collection tree (the `TreeNode` structure of Figure 3).
#[derive(Debug, Clone, Default)]
pub struct TreeNode {
    /// Instruction List: executed instructions in first-execution order.
    pub il: Vec<CollectedInsn>,
    /// Instruction Index Map: `dex_pc` → index in [`Self::il`].
    pub iim: PcMap<usize>,
    /// `sm_start`: the `dex_pc` where this divergence branch begins
    /// (meaningless for the root, which uses 0).
    pub sm_start: u32,
    /// `sm_end`: the `dex_pc` where this branch converged back to its
    /// parent, if it did.
    pub sm_end: Option<u32>,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Child divergence branches, in creation order.
    pub children: Vec<NodeId>,
}

/// The collection result for a single execution of one method.
///
/// # Example
///
/// ```
/// use dexlego_core::collect::CollectionTree;
/// let mut tree = CollectionTree::new();
/// tree.observe(0, &[0x0012], None); // const/4 v0, #0
/// tree.observe(1, &[0x000e], None); // return-void
/// tree.observe(0, &[0x1012], None); // modified! const/4 v0, #1
/// assert_eq!(tree.node_count(), 2); // root + one divergence branch
/// let child = tree.node(1);
/// assert_eq!(tree.units(&child.il[0]), &[0x1012]);
/// ```
#[derive(Debug, Clone)]
pub struct CollectionTree {
    nodes: Vec<TreeNode>,
    /// Units of every IL entry of every node, then its payload units, in
    /// recording order.
    arena: Vec<u16>,
    current: NodeId,
}

impl PartialEq for CollectionTree {
    /// Structural equality: the same nodes holding the same instructions.
    /// The `current` cursor is transient collection state and is ignored
    /// (it is not serialised either), and so is the arena's order.
    fn eq(&self, other: &CollectionTree) -> bool {
        self.same_shape(other)
    }
}

impl Eq for CollectionTree {}

impl Default for CollectionTree {
    fn default() -> CollectionTree {
        CollectionTree::new()
    }
}

impl CollectionTree {
    /// Creates a tree with an empty root node as the current node.
    pub fn new() -> CollectionTree {
        CollectionTree {
            nodes: vec![TreeNode::default()],
            arena: Vec::new(),
            current: 0,
        }
    }

    /// The root node id.
    pub const fn root(&self) -> NodeId {
        0
    }

    /// Number of nodes (1 = no self-modification observed).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id]
    }

    /// All nodes in creation order.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Total collected instructions across all nodes.
    pub fn total_insns(&self) -> usize {
        self.nodes.iter().map(|n| n.il.len()).sum()
    }

    /// The exact code units recorded for `ins`, an IL entry of this tree.
    pub fn units(&self, ins: &CollectedInsn) -> &[u16] {
        &self.arena[ins.units_range()]
    }

    /// The payload captured with `ins`, an IL entry of this tree: its
    /// original offset relative to the instruction, and its units.
    pub fn payload(&self, ins: &CollectedInsn) -> Option<(i32, &[u16])> {
        ins.payload.map(|(off, len)| {
            let start = ins.units_range().end;
            (off, &self.arena[start..start + len as usize])
        })
    }

    /// Processes one executed instruction (the body of Algorithm 1's loop).
    pub fn observe(&mut self, dex_pc: u32, units: &[u16], payload: Option<(i32, &[u16])>) {
        self.observe_with(dex_pc, units, || payload);
    }

    /// [`Self::observe`] with the payload produced on demand: `payload` is
    /// called only when the instruction is recorded, so a re-executed
    /// switch does not decode its payload again.
    pub(crate) fn observe_with<'p>(
        &mut self,
        dex_pc: u32,
        units: &[u16],
        payload: impl FnOnce() -> Option<(i32, &'p [u16])>,
    ) {
        let node = &self.nodes[self.current];
        // Case 1: dex_pc already recorded in the current node.
        if let Some(&pos_in_il) = node.iim.get(&dex_pc) {
            if self.arena[node.il[pos_in_il].units_range()] == *units {
                // Same instruction re-executed (loop): nothing to record.
                return;
            }
            // Divergence: the instruction at this dex_pc changed since we
            // recorded it. Fork a child branch.
            let child = self.nodes.len();
            self.nodes.push(TreeNode {
                sm_start: dex_pc,
                parent: Some(self.current),
                ..TreeNode::default()
            });
            self.nodes[self.current].children.push(child);
            self.current = child;
            // Fall through: record the instruction in the new node.
        } else if let Some(parent) = node.parent {
            // Case 2: unseen in the current (divergence) node — check for
            // convergence back to the parent.
            let parent_node = &self.nodes[parent];
            if let Some(&pos_in_il) = parent_node.iim.get(&dex_pc) {
                if self.arena[parent_node.il[pos_in_il].units_range()] == *units {
                    // The divergence branch converges: this layer of
                    // self-modification ended.
                    self.nodes[self.current].sm_end = Some(dex_pc);
                    self.current = parent;
                    return;
                }
            }
        }
        // Record as a new instruction of the current node.
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(units);
        let payload = payload().map(|(off, payload_units)| {
            self.arena.extend_from_slice(payload_units);
            (off, payload_units.len() as u32)
        });
        let node = &mut self.nodes[self.current];
        let pos = node.il.len();
        node.il.push(CollectedInsn {
            dex_pc,
            start,
            len: units.len() as u32,
            payload,
        });
        node.iim.insert(dex_pc, pos);
    }

    /// Structural equality ignoring the `current` cursor and the arena's
    /// order — used to keep only unique trees across multiple executions of
    /// a method.
    pub fn same_shape(&self, other: &CollectionTree) -> bool {
        // Equal trees hold equally many units in their arenas: a cheap
        // rejection before the node-by-node comparison.
        self.nodes.len() == other.nodes.len()
            && self.arena.len() == other.arena.len()
            && self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
                a.sm_start == b.sm_start
                    && a.sm_end == b.sm_end
                    && a.parent == b.parent
                    && a.children == b.children
                    && a.il.len() == b.il.len()
                    && a.il.iter().zip(&b.il).all(|(x, y)| {
                        x.dex_pc == y.dex_pc
                            && self.units(x) == other.units(y)
                            && self.payload(x) == other.payload(y)
                    })
            })
    }

    /// Empties the tree back to a lone empty root, keeping its storage so
    /// the next execution records without allocating.
    pub(crate) fn clear(&mut self) {
        self.nodes.truncate(1);
        let root = &mut self.nodes[0];
        root.il.clear();
        root.iim.clear();
        root.children.clear();
        self.arena.clear();
        self.current = 0;
    }

    /// Appends a deserialised node with an empty IL, to be filled by
    /// [`Self::push_entry`].
    pub(crate) fn push_node(&mut self, sm_start: u32, sm_end: Option<u32>, parent: Option<NodeId>) {
        self.nodes.push(TreeNode {
            sm_start,
            sm_end,
            parent,
            ..TreeNode::default()
        });
    }

    /// Appends a deserialised IL entry to the last node.
    ///
    /// # Errors
    ///
    /// Returns a message when there is no node yet or the node already
    /// records `dex_pc`, which Algorithm 1 never does.
    pub(crate) fn push_entry(
        &mut self,
        dex_pc: u32,
        units: &[u16],
        payload: Option<(i32, &[u16])>,
    ) -> Result<(), &'static str> {
        let node = self.nodes.last_mut().ok_or("IL entry before any node")?;
        if node.iim.insert(dex_pc, node.il.len()).is_some() {
            return Err("node records one dex_pc twice");
        }
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(units);
        let payload = payload.map(|(off, payload_units)| {
            self.arena.extend_from_slice(payload_units);
            (off, payload_units.len() as u32)
        });
        node.il.push(CollectedInsn {
            dex_pc,
            start,
            len: units.len() as u32,
            payload,
        });
        Ok(())
    }

    /// A tree with no nodes, to be filled by [`Self::push_node`] and
    /// [`Self::push_entry`] and finished by [`Self::link_children`].
    pub(crate) fn empty() -> CollectionTree {
        CollectionTree {
            nodes: Vec::new(),
            arena: Vec::new(),
            current: 0,
        }
    }

    /// Rebuilds child links from parent pointers after deserialisation.
    ///
    /// # Errors
    ///
    /// Returns a message when the tree has no nodes, the root has a
    /// parent, or a parent link is out of range. A parentless root makes
    /// the tree acyclic as seen from the root, so every walk from it ends.
    pub(crate) fn link_children(&mut self) -> Result<(), &'static str> {
        let len = self.nodes.len();
        match self.nodes.first() {
            None => return Err("tree with no nodes"),
            Some(root) if root.parent.is_some() => return Err("tree root has a parent"),
            Some(_) => {}
        }
        for child in 0..len {
            if let Some(parent) = self.nodes[child].parent {
                if parent >= len {
                    return Err("tree parent out of range");
                }
                self.nodes[parent].children.push(child);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(units: &[u16]) -> Vec<u16> {
        units.to_vec()
    }

    #[test]
    fn straight_line_records_in_order() {
        let mut t = CollectionTree::new();
        t.observe(0, &ins(&[0x0012]), None);
        t.observe(1, &ins(&[0x0013, 0x002a]), None);
        t.observe(3, &ins(&[0x000f]), None);
        assert_eq!(t.node_count(), 1);
        let root = t.node(t.root());
        assert_eq!(root.il.len(), 3);
        assert_eq!(root.iim[&0], 0);
        assert_eq!(root.iim[&1], 1);
        assert_eq!(root.iim[&3], 2);
    }

    #[test]
    fn loop_does_not_duplicate() {
        let mut t = CollectionTree::new();
        for _ in 0..10 {
            t.observe(0, &ins(&[0x0090]), None);
            t.observe(2, &ins(&[0x0028]), None);
        }
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.node(0).il.len(), 2);
    }

    #[test]
    fn modification_forks_child() {
        let mut t = CollectionTree::new();
        t.observe(0, &ins(&[0xaaaa]), None);
        t.observe(1, &ins(&[0xbbbb]), None);
        // Re-execute pc 1 with different units -> divergence.
        t.observe(1, &ins(&[0xcccc]), None);
        assert_eq!(t.node_count(), 2);
        let child = t.node(1);
        assert_eq!(child.sm_start, 1);
        assert_eq!(child.parent, Some(0));
        assert_eq!(child.il.len(), 1);
        assert_eq!(t.units(&child.il[0]), ins(&[0xcccc]));
        assert_eq!(t.node(0).children, vec![1]);
    }

    #[test]
    fn divergence_converges_back_to_parent() {
        let mut t = CollectionTree::new();
        t.observe(0, &ins(&[0xaaaa]), None); // baseline pc0
        t.observe(1, &ins(&[0xbbbb]), None); // baseline pc1
        t.observe(2, &ins(&[0xdddd]), None); // baseline pc2
        t.observe(1, &ins(&[0xcccc]), None); // diverge at pc1
        t.observe(2, &ins(&[0xdddd]), None); // same as parent pc2 -> converge
        assert_eq!(t.node_count(), 2);
        let child = t.node(1);
        assert_eq!(child.sm_start, 1);
        assert_eq!(child.sm_end, Some(2));
        // After convergence the current node is the root again: a new pc
        // lands in the root.
        t.observe(5, &ins(&[0xeeee]), None);
        assert_eq!(t.node(0).il.len(), 4);
    }

    #[test]
    fn nested_divergence_layers() {
        let mut t = CollectionTree::new();
        t.observe(0, &ins(&[0x00aa]), None);
        t.observe(1, &ins(&[0x00bb]), None);
        t.observe(1, &ins(&[0x00cc]), None); // layer 1 divergence
        t.observe(1, &ins(&[0x00dd]), None); // wait: same node sees pc1 again with different units -> layer 2
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.node(2).parent, Some(1));
        assert_eq!(t.node(2).sm_start, 1);
    }

    #[test]
    fn code1_scenario_shapes_tree_like_listing1() {
        // Modelled on the paper's Code 1 / Listing 1: a loop whose body at
        // "pc 8" is `invoke normal` in iteration one and `invoke sink` in
        // iteration two, converging at "pc 11" (the tamper call).
        let normal = ins(&[0x206e, 0x0001, 0x0043]);
        let sink = ins(&[0x206e, 0x0002, 0x0043]);
        let tamper = ins(&[0x206e, 0x0003, 0x0053]);
        let mut t = CollectionTree::new();
        // iteration 1
        t.observe(0, &ins(&[0x0071, 0x0000, 0x0000]), None); // source
        t.observe(3, &ins(&[0x000c]), None);
        t.observe(4, &ins(&[0x0012]), None); // i = 0
        t.observe(5, &ins(&[0x2212]), None); // const 2
        t.observe(6, &ins(&[0x0235, 0x000b]), None); // if-ge
        t.observe(8, &normal, None);
        t.observe(11, &tamper, None);
        t.observe(14, &ins(&[0x01d8, 0x0101]), None); // i++
        t.observe(16, &ins(&[0xf328]), None); // goto
                                              // iteration 2: pc 8 now holds `sink`
        t.observe(5, &ins(&[0x2212]), None);
        t.observe(6, &ins(&[0x0235, 0x000b]), None);
        t.observe(8, &sink, None); // divergence!
        t.observe(11, &tamper, None); // convergence
        t.observe(14, &ins(&[0x01d8, 0x0101]), None);
        t.observe(16, &ins(&[0xf328]), None);
        // loop exits
        t.observe(5, &ins(&[0x2212]), None);
        t.observe(6, &ins(&[0x0235, 0x000b]), None);
        t.observe(17, &ins(&[0x000e]), None); // return-void

        // Exactly the Listing 1 shape: a root and one child holding one
        // instruction (the sink invoke).
        assert_eq!(t.node_count(), 2);
        let child = t.node(1);
        assert_eq!(child.il.len(), 1);
        assert_eq!(t.units(&child.il[0]), sink);
        assert_eq!(child.sm_start, 8);
        assert_eq!(child.sm_end, Some(11));
        // The root kept `normal` at pc 8.
        let root = t.node(0);
        assert_eq!(t.units(&root.il[root.iim[&8]]), normal);
    }

    #[test]
    fn same_shape_ignores_cursor() {
        let mut a = CollectionTree::new();
        let mut b = CollectionTree::new();
        for t in [&mut a, &mut b] {
            t.observe(0, &[0x0012], None);
            t.observe(1, &[0x000e], None);
        }
        assert!(a.same_shape(&b));
        b.observe(0, &[0x1112], None); // diverge in b only
        assert!(!a.same_shape(&b));
    }

    #[test]
    fn payload_follows_its_instruction_in_the_arena() {
        let mut t = CollectionTree::new();
        t.observe(
            0,
            &[0x002b, 0x0004, 0x0000],
            Some((4, &[0x0100, 0x0001][..])),
        );
        t.observe(3, &[0x000e], None);
        // Re-executing the switch records nothing and asks for no payload.
        t.observe_with(0, &[0x002b, 0x0004, 0x0000], || unreachable!());
        let root = t.node(0);
        assert_eq!(t.units(&root.il[0]), &[0x002b, 0x0004, 0x0000]);
        assert_eq!(t.payload(&root.il[0]), Some((4, &[0x0100, 0x0001][..])));
        assert_eq!(t.units(&root.il[1]), &[0x000e]);
        assert_eq!(t.payload(&root.il[1]), None);
    }

    #[test]
    fn equality_ignores_arena_order() {
        // Both executions leave root [0, 1, 2] and a child [1] that
        // converges at pc 0, but one records the root's pc 2 before the
        // divergence and the other after it.
        let mut before = CollectionTree::new();
        let mut after = CollectionTree::new();
        for t in [&mut before, &mut after] {
            t.observe(0, &[0xaaaa], None);
            t.observe(1, &[0xbbbb], None);
        }
        before.observe(2, &[0xdddd], None);
        for t in [&mut before, &mut after] {
            t.observe(1, &[0xcccc], None); // diverge at pc 1
            t.observe(0, &[0xaaaa], None); // converge at pc 0
        }
        after.observe(2, &[0xdddd], None);
        assert_ne!(before.arena, after.arena);
        assert_eq!(before, after);
        assert!(before.same_shape(&after));
        // One differing unit anywhere breaks equality.
        after.observe(0, &[0xabab], None);
        assert_ne!(before, after);
    }

    #[test]
    fn clear_resets_to_an_empty_root() {
        let mut t = CollectionTree::new();
        t.observe(0, &[0x0012], None);
        t.observe(0, &[0x1012], None);
        assert_eq!(t.node_count(), 2);
        t.clear();
        assert_eq!(t, CollectionTree::new());
        t.observe(0, &[0x0012], None);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.units(&t.node(0).il[0]), &[0x0012]);
    }
}
