//! `code_item` — the bytecode body of a method, including try/catch metadata.

use crate::TypeIdx;

/// One `try_item`: a range of code units covered by exception handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TryItem {
    /// Start of the covered range, in 16-bit code units from method start.
    pub start_addr: u32,
    /// Number of code units covered.
    pub insn_count: u16,
    /// Index into [`CodeItem::handlers`] of the handler list for this range.
    pub handler_index: usize,
}

impl TryItem {
    /// One past the last covered code unit, in `u64`: a try table read
    /// from untrusted bytes may run past `u32::MAX`, and must neither wrap
    /// nor overflow.
    pub fn end_addr(&self) -> u64 {
        u64::from(self.start_addr) + u64::from(self.insn_count)
    }

    /// Whether the range covers the code unit at `addr`.
    pub fn covers(&self, addr: u32) -> bool {
        addr >= self.start_addr && u64::from(addr) < self.end_addr()
    }
}

/// One typed catch clause: `catch (type) -> handler_addr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatchClause {
    /// Exception type caught.
    pub type_idx: TypeIdx,
    /// Handler address in code units.
    pub addr: u32,
}

/// An `encoded_catch_handler`: typed clauses plus an optional catch-all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EncodedCatchHandler {
    /// Typed catch clauses, in declaration order.
    pub catches: Vec<CatchClause>,
    /// Address of a `catch-all` handler, if present.
    pub catch_all_addr: Option<u32>,
}

/// A method body: register file configuration plus raw instruction units and
/// try/catch tables.
///
/// Instructions are stored exactly as the interpreter consumes them — an
/// array of 16-bit code units — so a `CodeItem` can represent bytecode that
/// [`dexlego-dalvik`](https://docs.rs) has not (or cannot) decode, which is
/// essential for carrying packed/encrypted payloads around.
///
/// # Example
///
/// ```
/// use dexlego_dex::CodeItem;
/// let code = CodeItem::new(1, 0, 0, vec![0x000e]); // return-void
/// assert_eq!(code.insns.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CodeItem {
    /// Number of registers used by this method.
    pub registers_size: u16,
    /// Number of words of incoming arguments (stored in the highest
    /// registers).
    pub ins_size: u16,
    /// Number of words of outgoing argument space required.
    pub outs_size: u16,
    /// The instruction stream, as 16-bit code units.
    pub insns: Vec<u16>,
    /// Try ranges, sorted by `start_addr`, non-overlapping.
    pub tries: Vec<TryItem>,
    /// Handler lists referenced by [`TryItem::handler_index`].
    pub handlers: Vec<EncodedCatchHandler>,
}

impl CodeItem {
    /// Creates a code item with no try/catch structure.
    pub fn new(registers_size: u16, ins_size: u16, outs_size: u16, insns: Vec<u16>) -> CodeItem {
        CodeItem {
            registers_size,
            ins_size,
            outs_size,
            insns,
            tries: Vec::new(),
            handlers: Vec::new(),
        }
    }

    /// Index of the first local (non-argument) register.
    pub fn first_in_register(&self) -> u16 {
        self.registers_size - self.ins_size
    }

    /// Handlers covering the instruction at `addr` (in code units), innermost
    /// (first-declared) try first.
    pub fn handlers_at(&self, addr: u32) -> impl Iterator<Item = &EncodedCatchHandler> {
        self.tries
            .iter()
            .filter(move |t| t.covers(addr))
            .filter_map(|t| self.handlers.get(t.handler_index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_in_register_accounts_for_ins() {
        let code = CodeItem::new(5, 2, 0, vec![]);
        assert_eq!(code.first_in_register(), 3);
    }

    #[test]
    fn try_ranges_past_u32_max_neither_wrap_nor_overflow() {
        let t = TryItem {
            start_addr: u32::MAX - 1,
            insn_count: 5,
            handler_index: 0,
        };
        assert_eq!(t.end_addr(), u64::from(u32::MAX) + 4);
        assert!(t.covers(u32::MAX - 1) && t.covers(u32::MAX));
        assert!(!t.covers(0) && !t.covers(3));
    }

    #[test]
    fn handlers_at_respects_ranges() {
        let mut code = CodeItem::new(1, 0, 0, vec![0; 10]);
        code.handlers.push(EncodedCatchHandler {
            catches: vec![],
            catch_all_addr: Some(8),
        });
        code.tries.push(TryItem {
            start_addr: 2,
            insn_count: 3,
            handler_index: 0,
        });
        assert_eq!(code.handlers_at(1).count(), 0);
        assert_eq!(code.handlers_at(2).count(), 1);
        assert_eq!(code.handlers_at(4).count(), 1);
        assert_eq!(code.handlers_at(5).count(), 0);
    }
}
