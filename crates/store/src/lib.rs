#![forbid(unsafe_code)]

//! A persistent, content-addressed store for extraction results.
//!
//! The batch harness and the `dexlegod` service both face the same cost
//! structure: extracting one (application, packer-profile) pair is
//! expensive, but the inputs are immutable — the same DEX through the same
//! profile with the same driving parameters and the same extractor version
//! always reveals the same bytes. This crate caches that work:
//!
//! - **Content addressing** ([`Key`]): entries are keyed by the SHA-1
//!   digest of the pipeline inputs (`dexlego_core::digest`), so a key
//!   *is* a correctness claim — equal key, equal result.
//! - **Sharded on-disk layout** ([`Store`]): objects live under
//!   `objects/<first-byte>/<rest>`, with an append-only `index.log`
//!   carrying sizes and LRU order across reopens.
//! - **Verified reads**: every entry embeds a checksum over its payload;
//!   a mismatching or undecodable entry is *quarantined* (moved aside,
//!   never served) and the lookup reports a miss so the caller
//!   re-extracts.
//! - **A self-describing payload** ([`entry`]): the revealed DEX plus
//!   the job's counters and phase timings as name/value lists, so a new
//!   counter needs no format change.
//! - **LRU eviction** under a configurable byte budget.
//! - **Fill deduplication** ([`Store::get_or_fill`]): concurrent misses on
//!   one key run the expensive fill exactly once.
//!
//! # Example
//!
//! ```
//! use dexlego_store::{CachedResult, Key, Store, StoreConfig, TempDir};
//!
//! let dir = TempDir::new("doc").unwrap();
//! let store = Store::open(StoreConfig::new(dir.path())).unwrap();
//! let key = Key::new([7u8; 20]);
//! let result = CachedResult {
//!     dex_bytes: vec![1, 2, 3],
//!     counters: vec![("insns".to_owned(), 42)],
//!     phases_us: vec![("collect".to_owned(), 7)],
//! };
//! assert!(store.get(&key).is_none());
//! store.put(&key, &result).unwrap();
//! assert_eq!(store.get(&key).unwrap(), result);
//! assert_eq!(store.stats().hits, 1);
//! ```

pub mod entry;
pub mod hex;
pub mod store;
pub mod tempdir;

pub use entry::CachedResult;
pub use store::{object_path, Key, Store, StoreConfig, StoreStats};
pub use tempdir::TempDir;
