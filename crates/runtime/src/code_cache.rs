//! The predecoded code cache.
//!
//! On the first quickened frame of a bytecode method (one under a passive
//! observer) the interpreter decodes the whole instruction stream once into
//! a [`PredecodedMethod`] and caches it here; subsequent executions fetch
//! borrowed `&Insn` views out of the cache instead of re-decoding per
//! instruction (the same per-instruction tax ART avoids with its
//! predecoded/mterp representation). Each entry carries a [`QuickCells`]
//! overlay: per-instruction dispatch bytes the interpreter rewrites in place
//! as instructions quicken, superinstruction heads, and pre-resolved switch
//! tables. Frames whose observer wants instruction events never touch the
//! cache.
//!
//! Because method bodies are mutable at runtime (self-modifying natives,
//! packer shells), every mutable access to a method bumps a per-method
//! *code epoch*; a cache entry is valid only for the epoch it was built at.
//! A quickened frame re-checks the epoch after every instruction that
//! calls out of it, so a body rewritten mid-frame is re-predecoded before
//! the next instruction executes — self-modifying code behaves exactly as
//! with per-step fetching. An epoch bump also *de-quickens*: the stale
//! entry (and every resolved cell in its overlay) is discarded immediately,
//! and the count of discarded quickened cells is accumulated in
//! [`CodeCache::dequickens`].

use std::collections::HashMap;
use std::sync::Arc;

use dexlego_dalvik::quick::QuickCells;
use dexlego_dalvik::{predecode, PredecodedMethod};

use crate::class::MethodId;

/// One cache slot: the outcome of predecoding a method at a given epoch.
#[derive(Debug, Clone)]
enum Entry {
    /// Predecoding succeeded; serve fetches from this representation and
    /// quicken through its overlay.
    Pre(Arc<PredecodedMethod>, Arc<QuickCells>),
    /// Predecoding failed (stream not linearly decodable); the interpreter
    /// uses per-step fetching until the body changes again.
    Unpredecodable,
}

/// Per-runtime cache of predecoded method bodies with epoch invalidation.
#[derive(Debug, Default)]
pub struct CodeCache {
    /// Cache entries tagged with the epoch they were built at.
    entries: HashMap<MethodId, (u64, Entry)>,
    /// Per-method code epoch, bumped on every mutable method access.
    /// Indexed by `MethodId`; methods beyond the end are at epoch 0.
    epochs: Vec<u64>,
    /// Number of full-method predecodes performed (cache misses + rebuilds).
    pub builds: u64,
    /// Number of quickened cells discarded by epoch bumps (self-modifying
    /// code forcing de-quickening).
    pub dequickens: u64,
}

impl CodeCache {
    /// The current code epoch of `method`.
    #[inline]
    pub fn epoch(&self, method: MethodId) -> u64 {
        self.epochs.get(method.0).copied().unwrap_or(0)
    }

    /// Records that `method`'s body may have been mutated, invalidating any
    /// cached predecoded representation. The stale entry is dropped on the
    /// spot and its runtime-quickened cells are charged to
    /// [`Self::dequickens`].
    pub fn bump_epoch(&mut self, method: MethodId) {
        if method.0 >= self.epochs.len() {
            self.epochs.resize(method.0 + 1, 0);
        }
        self.epochs[method.0] += 1;
        if let Some((_, Entry::Pre(_, cells))) = self.entries.remove(&method) {
            self.dequickens += u64::from(cells.quickened_count());
        }
    }

    /// The predecoded representation of `method` whose body is `units`,
    /// building (or rebuilding) it if the cached one is missing or stale.
    /// Returns `None` if the stream cannot be predecoded — the caller must
    /// fall back to per-step fetching; the negative outcome is cached too,
    /// so an unpredecodable body is not re-attempted every frame.
    pub fn get_or_build(
        &mut self,
        method: MethodId,
        units: &[u16],
    ) -> Option<(Arc<PredecodedMethod>, Arc<QuickCells>)> {
        let epoch = self.epoch(method);
        if let Some((cached_epoch, entry)) = self.entries.get(&method) {
            if *cached_epoch == epoch {
                return match entry {
                    Entry::Pre(pre, cells) => Some((Arc::clone(pre), Arc::clone(cells))),
                    Entry::Unpredecodable => None,
                };
            }
        }
        self.builds += 1;
        let (entry, result) = match predecode(units) {
            Ok(pre) => {
                let cells = Arc::new(QuickCells::build(&pre));
                let pre = Arc::new(pre);
                (
                    Entry::Pre(Arc::clone(&pre), Arc::clone(&cells)),
                    Some((pre, cells)),
                )
            }
            Err(_) => (Entry::Unpredecodable, None),
        };
        self.entries.insert(method, (epoch, entry));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dexlego_dalvik::quick;

    #[test]
    fn build_is_cached_until_epoch_bump() {
        let mut cache = CodeCache::default();
        let m = MethodId(3);
        let code = [0x000e]; // return-void
        let (a, _) = cache.get_or_build(m, &code).unwrap();
        let (b, _) = cache.get_or_build(m, &code).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds, 1);

        cache.bump_epoch(m);
        let (c, _) = cache.get_or_build(m, &code).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "stale entry must not be served");
        assert_eq!(cache.builds, 2);
    }

    #[test]
    fn unpredecodable_outcome_is_cached() {
        let mut cache = CodeCache::default();
        let m = MethodId(0);
        let garbage = [0x000e, 0x0040]; // return-void, unknown opcode
        assert!(cache.get_or_build(m, &garbage).is_none());
        assert!(cache.get_or_build(m, &garbage).is_none());
        assert_eq!(cache.builds, 1, "failure must not be re-attempted");
    }

    #[test]
    fn epochs_default_to_zero_past_end() {
        let cache = CodeCache::default();
        assert_eq!(cache.epoch(MethodId(99)), 0);
    }

    #[test]
    fn epoch_bump_charges_quickened_cells_to_dequickens() {
        let mut cache = CodeCache::default();
        let m = MethodId(1);
        // iget v0, v0, field@0 ; return-void
        let code = [0x0052, 0x0000, 0x000e];
        let (_, cells) = cache.get_or_build(m, &code).unwrap();
        assert!(cells.quicken(0, quick::IGET_QUICK, 5));
        assert_eq!(cache.dequickens, 0);

        cache.bump_epoch(m);
        assert_eq!(cache.dequickens, 1, "discarded quickened cell counted");
        // A bump with nothing quickened (or nothing cached) adds nothing.
        cache.bump_epoch(m);
        assert_eq!(cache.dequickens, 1);
        let (_, fresh) = cache.get_or_build(m, &code).unwrap();
        assert_eq!(fresh.quickened_count(), 0, "rebuild starts de-quickened");
    }
}
