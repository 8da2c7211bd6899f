//! The on-disk store: sharded object layout, append-only index, verified
//! reads with quarantine, LRU eviction, and per-key fill deduplication.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dexlego_dex::checksum::sha1;

use crate::entry::{decode_at, encode, CachedResult};
use crate::hex::{from_hex, to_hex};

/// A content-addressed store key: the SHA-1 input digest produced by
/// `dexlego_core::digest::InputDigest`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key([u8; 20]);

impl Key {
    /// Wraps a raw 20-byte digest.
    pub fn new(digest: [u8; 20]) -> Key {
        Key(digest)
    }

    /// Parses 40 hex characters.
    pub fn from_hex(s: &str) -> Option<Key> {
        let bytes = from_hex(s)?;
        let digest: [u8; 20] = bytes.try_into().ok()?;
        Some(Key(digest))
    }

    /// The key as 40 lowercase hex characters.
    pub fn to_hex(self) -> String {
        to_hex(&self.0)
    }

    /// The raw 20-byte digest (the router hashes its prefix onto the
    /// consistent-hash ring).
    #[must_use]
    pub fn bytes(self) -> [u8; 20] {
        self.0
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({})", self.to_hex())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory (created if missing).
    pub root: PathBuf,
    /// Total object-byte budget; the least-recently-accessed entries are
    /// evicted when a put pushes past it. `u64::MAX` = unbounded.
    pub byte_budget: u64,
}

impl StoreConfig {
    /// An unbounded store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            root: root.into(),
            byte_budget: u64::MAX,
        }
    }

    /// Sets the eviction budget.
    pub fn with_budget(mut self, bytes: u64) -> StoreConfig {
        self.byte_budget = bytes;
        self
    }
}

/// Counters exposed by [`Store::stats`]. `hits`/`misses`/… accumulate over
/// the handle's lifetime; `entries`/`bytes` are the current contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful verified reads.
    pub hits: u64,
    /// Lookups that found nothing servable (including quarantined reads).
    pub misses: u64,
    /// Entries written.
    pub puts: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries quarantined after failing checksum/decode verification.
    pub quarantined: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Object bytes currently resident.
    pub bytes: u64,
}

struct EntryMeta {
    size: u64,
    last_access: u64,
}

struct Inner {
    log: fs::File,
    /// Records in the index log, torn and malformed lines included.
    log_records: u64,
    entries: HashMap<Key, EntryMeta>,
    clock: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    puts: u64,
    evictions: u64,
    quarantined: u64,
}

/// A thread-safe handle to one on-disk store. Clone-free by design: share
/// it between harness workers or service threads behind an [`Arc`].
///
/// Layout under the root directory:
///
/// ```text
/// index.log             append-only operation log (put/get/evict/bad)
/// objects/ab/cdef…      entries, sharded by the first key byte
/// quarantine/abcdef…    entries that failed verification on read
/// ```
///
/// Every entry on disk is `magic ‖ sha1(payload) ‖ len(payload) ‖ payload`;
/// reads recompute the checksum and [quarantine](StoreStats::quarantined)
/// mismatching entries instead of serving them.
///
/// Every hit appends a `get` record, so the log is bounded: once it holds
/// more than [`Store::LOG_FLOOR`] records and [`Store::LOG_PER_ENTRY`] per
/// live entry, it is rewritten as one `put` per live entry, least recently
/// used first. The new log is written beside the old one and renamed over
/// it, so a crash leaves one or the other, whole.
pub struct Store {
    root: PathBuf,
    budget: u64,
    inner: Mutex<Inner>,
    // One gate per key for get_or_fill deduplication. Gates are never
    // removed: the map grows with the number of distinct keys seen by this
    // handle, which is bounded by the corpus, not by traffic.
    fills: Mutex<HashMap<Key, Arc<Mutex<()>>>>,
}

const CONTAINER_MAGIC: &[u8; 8] = b"DLSTORE1";

impl Store {
    /// Index-log records below which the log is never compacted.
    pub const LOG_FLOOR: u64 = 1024;
    /// Index-log records per live entry below which the log is never
    /// compacted.
    pub const LOG_PER_ENTRY: u64 = 4;

    /// Opens (creating if necessary) the store at `config.root`, replaying
    /// the index log to rebuild the entry table and LRU order.
    ///
    /// Opening recovers from a crash: the replay skips every line that is
    /// not a well-formed record, a last line left without its newline is
    /// cut off the log before anything is appended to it, and objects a
    /// crash left half-written (`*.tmp`, never renamed into place) are
    /// removed, as is a compacted log never renamed into place. A log past
    /// its bound is compacted at once. It assumes no other handle writes
    /// under the same root.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and log I/O failures.
    pub fn open(config: StoreConfig) -> io::Result<Store> {
        let root = config.root;
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        remove_unfinished_objects(&root)?;
        let _ = fs::remove_file(root.join("index.log.tmp"));

        let mut log = open_log(&root)?;
        let mut text = Vec::new();
        log.read_to_end(&mut text)?;
        // A crash mid-append leaves a torn last line; cut it off so the
        // next record starts a line of its own instead of joining it.
        let complete = text
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        if complete < text.len() {
            log.set_len(complete as u64)?;
        }
        let mut entries: HashMap<Key, EntryMeta> = HashMap::new();
        let mut clock = 0u64;
        let log_records = text[..complete].iter().filter(|&&b| b == b'\n').count() as u64;
        for line in text[..complete].split(|&b| b == b'\n') {
            let Some((op, key, size)) = parse_record(line) else {
                continue;
            };
            clock += 1;
            match op {
                "put" => {
                    let last_access = clock;
                    entries.insert(key, EntryMeta { size, last_access });
                }
                "get" => {
                    if let Some(meta) = entries.get_mut(&key) {
                        meta.last_access = clock;
                    }
                }
                _ => {
                    entries.remove(&key);
                }
            }
        }
        // Drop index entries whose object vanished out from under us (a
        // crash between log append and rename, or manual deletion).
        entries.retain(|key, _| object_path(&root, *key).exists());
        let bytes = entries.values().map(|m| m.size).sum();
        let mut inner = Inner {
            log,
            log_records,
            entries,
            clock,
            bytes,
            hits: 0,
            misses: 0,
            puts: 0,
            evictions: 0,
            quarantined: 0,
        };
        inner.compact_if_due(&root);

        Ok(Store {
            root,
            budget: config.byte_budget,
            inner: Mutex::new(inner),
            fills: Mutex::new(HashMap::new()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Looks up `key`, verifying the entry's checksum. A mismatching or
    /// undecodable entry is moved to `quarantine/` and reported as a miss —
    /// corrupt data is never served.
    pub fn get(&self, key: &Key) -> Option<CachedResult> {
        let mut inner = self.inner.lock().expect("store lock");
        if !inner.entries.contains_key(key) {
            inner.misses += 1;
            return None;
        }
        let path = object_path(&self.root, *key);
        match read_verified(&path) {
            Ok(result) => {
                inner.clock += 1;
                let clock = inner.clock;
                if let Some(meta) = inner.entries.get_mut(key) {
                    meta.last_access = clock;
                }
                inner.hits += 1;
                inner.record(&self.root, &format!("get {key}"));
                Some(result)
            }
            Err(_) => {
                // Quarantine: keep the bad bytes around for post-mortems,
                // but make sure no future read can serve them.
                let dest = self.root.join("quarantine").join(key.to_hex());
                if fs::rename(&path, &dest).is_ok() {
                    inner.quarantined += 1;
                }
                if let Some(meta) = inner.entries.remove(key) {
                    inner.bytes = inner.bytes.saturating_sub(meta.size);
                }
                inner.misses += 1;
                inner.record(&self.root, &format!("bad {key}"));
                None
            }
        }
    }

    /// Writes `result` under `key` (replacing any previous entry), then
    /// evicts least-recently-accessed entries until the store is back under
    /// its byte budget. The entry just written is exempt from its own put's
    /// eviction pass.
    ///
    /// # Errors
    ///
    /// Propagates object-file I/O failures; the index is only updated after
    /// the object is durably in place.
    pub fn put(&self, key: &Key, result: &CachedResult) -> io::Result<()> {
        let payload = encode(result);
        let mut blob = Vec::with_capacity(payload.len() + 36);
        blob.extend_from_slice(CONTAINER_MAGIC);
        blob.extend_from_slice(&sha1(&payload));
        blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        blob.extend_from_slice(&payload);

        let mut inner = self.inner.lock().expect("store lock");
        let path = object_path(&self.root, *key);
        fs::create_dir_all(path.parent().expect("sharded path has a parent"))?;
        // Write-then-rename so a crash mid-write never leaves a torn entry
        // under the served name.
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, &blob)?;
        fs::rename(&tmp, &path)?;

        let size = blob.len() as u64;
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.insert(
            *key,
            EntryMeta {
                size,
                last_access: clock,
            },
        ) {
            inner.bytes = inner.bytes.saturating_sub(old.size);
        }
        inner.bytes += size;
        inner.puts += 1;
        inner.record(&self.root, &format!("put {key} {size}"));
        self.evict_to_budget(&mut inner, key);
        Ok(())
    }

    /// Runs `fill` at most once per key across concurrent callers: the
    /// first caller through the per-key gate extracts while the rest block,
    /// then find the entry cached. Returns the result (from cache or from
    /// `fill`) and whether it was a cache hit. `fill` may decline to
    /// produce a cacheable result by returning `None` (e.g. the extraction
    /// failed); nothing is stored and later callers will fill again.
    ///
    /// Store I/O errors during the fill's put are swallowed — the cache is
    /// an accelerator, and the freshly computed result is returned either
    /// way.
    pub fn get_or_fill<F>(&self, key: &Key, fill: F) -> (Option<CachedResult>, bool)
    where
        F: FnOnce() -> Option<CachedResult>,
    {
        let gate = {
            let mut fills = self.fills.lock().expect("fill map lock");
            Arc::clone(fills.entry(*key).or_default())
        };
        let _guard = gate.lock().expect("fill gate lock");
        if let Some(hit) = self.get(key) {
            return (Some(hit), true);
        }
        match fill() {
            Some(result) => {
                let _ = self.put(key, &result);
                (Some(result), false)
            }
            None => (None, false),
        }
    }

    /// The replication/read-repair write path: stores `result` under `key`
    /// only if the key is not already resident, returning whether a write
    /// happened. Unlike [`Store::put`] this never clobbers — a backfill
    /// raced by a fresh local fill must not replace the newer entry — and
    /// it routes through the same per-key fill gate, so a backfill cannot
    /// interleave with an in-progress `get_or_fill` on the same key.
    ///
    /// # Errors
    ///
    /// Propagates object-file I/O failures from the underlying put.
    pub fn put_if_absent(&self, key: &Key, result: &CachedResult) -> io::Result<bool> {
        let gate = {
            let mut fills = self.fills.lock().expect("fill map lock");
            Arc::clone(fills.entry(*key).or_default())
        };
        let _guard = gate.lock().expect("fill gate lock");
        if self.contains(key) {
            return Ok(false);
        }
        self.put(key, result)?;
        Ok(true)
    }

    /// A snapshot of the store's counters and current contents.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        StoreStats {
            hits: inner.hits,
            misses: inner.misses,
            puts: inner.puts,
            evictions: inner.evictions,
            quarantined: inner.quarantined,
            entries: inner.entries.len() as u64,
            bytes: inner.bytes,
        }
    }

    /// Whether `key` is resident (no verification, no stats bump).
    pub fn contains(&self, key: &Key) -> bool {
        self.inner
            .lock()
            .expect("store lock")
            .entries
            .contains_key(key)
    }

    fn evict_to_budget(&self, inner: &mut Inner, keep: &Key) {
        while inner.bytes > self.budget {
            // Linear scan for the LRU victim: entry counts are corpus-sized
            // (thousands), and eviction only runs on puts that crossed the
            // budget, so an ordered index isn't worth its bookkeeping.
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, m)| m.last_access)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let _ = fs::remove_file(object_path(&self.root, victim));
            if let Some(meta) = inner.entries.remove(&victim) {
                inner.bytes = inner.bytes.saturating_sub(meta.size);
            }
            inner.evictions += 1;
            inner.record(&self.root, &format!("evict {victim}"));
        }
    }
}

/// One well-formed index record, as [`Store`] appends them: `put KEY
/// SIZE`, `get KEY`, `evict KEY` or `bad KEY`. `None` for anything else,
/// such as a line a crash tore or a byte that is not UTF-8.
fn parse_record(line: &[u8]) -> Option<(&str, Key, u64)> {
    let mut fields = std::str::from_utf8(line).ok()?.split(' ');
    let (op, key) = (fields.next()?, Key::from_hex(fields.next()?)?);
    let size = match op {
        "put" => fields.next()?.parse().ok()?,
        "get" | "evict" | "bad" => 0,
        _ => return None,
    };
    fields.next().is_none().then_some((op, key, size))
}

/// Removes the objects a crash between writing one and renaming it into
/// place left behind (`*.tmp`): nothing reads them.
fn remove_unfinished_objects(root: &Path) -> io::Result<()> {
    for shard in fs::read_dir(root.join("objects"))? {
        let Ok(files) = fs::read_dir(shard?.path()) else {
            continue;
        };
        for file in files {
            let path = file?.path();
            if path.extension().is_some_and(|ext| ext == "tmp") {
                fs::remove_file(&path)?;
            }
        }
    }
    Ok(())
}

/// The sharded object path for `key` under `root`.
pub fn object_path(root: &Path, key: Key) -> PathBuf {
    let hex = key.to_hex();
    root.join("objects").join(&hex[..2]).join(&hex[2..])
}

impl Inner {
    /// Appends one record to the index log, and compacts the log if that
    /// took it past its bound.
    fn record(&mut self, root: &Path, line: &str) {
        // The index is advisory (it only carries LRU order and sizes); a
        // failed append degrades recovery fidelity, not correctness.
        let _ = writeln!(self.log, "{line}");
        self.log_records += 1;
        self.compact_if_due(root);
    }

    /// Rewrites the index log as one `put` per live entry, least recently
    /// used first, once it holds more than [`Store::LOG_FLOOR`] records
    /// and [`Store::LOG_PER_ENTRY`] per live entry. A replay of the new
    /// log rebuilds the same entries, sizes and LRU order.
    fn compact_if_due(&mut self, root: &Path) {
        let live = self.entries.len() as u64;
        if self.log_records <= Store::LOG_FLOOR.max(Store::LOG_PER_ENTRY * live) {
            return;
        }
        let mut order: Vec<(&Key, &EntryMeta)> = self.entries.iter().collect();
        order.sort_unstable_by_key(|(_, meta)| meta.last_access);
        let mut text = String::with_capacity(order.len() * 64);
        for (key, meta) in order {
            let _ = writeln!(text, "put {key} {}", meta.size);
        }
        let tmp = root.join("index.log.tmp");
        if let Ok(log) = fs::write(&tmp, text)
            .and_then(|()| fs::rename(&tmp, root.join("index.log")))
            .and_then(|()| open_log(root))
        {
            self.log = log;
        }
        // A log that could not be rewritten is tried again only after
        // another bound's worth of records.
        self.log_records = live;
    }
}

fn open_log(root: &Path) -> io::Result<fs::File> {
    fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(root.join("index.log"))
}

fn read_verified(path: &Path) -> Result<CachedResult, String> {
    let blob = fs::read(path).map_err(|e| format!("read failed: {e}"))?;
    if blob.len() < 36 || &blob[..8] != CONTAINER_MAGIC {
        return Err("bad container header".to_owned());
    }
    let stored_digest = &blob[8..28];
    let len = u64::from_le_bytes(blob[28..36].try_into().expect("8 bytes")) as usize;
    let payload = &blob[36..];
    if payload.len() != len {
        return Err(format!(
            "length mismatch: header says {len}, file has {}",
            payload.len()
        ));
    }
    if sha1(payload) != *stored_digest {
        return Err("checksum mismatch".to_owned());
    }
    decode_at(blob, 36)
}
