//! Integration tests for the content-addressed result store: persistence
//! across reopen, LRU eviction, checksum quarantine, and concurrent fill
//! deduplication.

use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dexlego_store::{object_path, CachedResult, Key, Store, StoreConfig, TempDir};

fn key(n: u8) -> Key {
    Key::new([n; 20])
}

fn result(size: usize, tag: u8) -> CachedResult {
    CachedResult {
        dex_bytes: vec![tag; size],
        counters: vec![
            ("insns".to_owned(), 7),
            ("frames".to_owned(), 100 + u64::from(tag)),
        ],
        phases_us: vec![("collect".to_owned(), 11), ("verify".to_owned(), 3)],
    }
}

#[test]
fn roundtrip_and_stats() {
    let dir = TempDir::new("store-rt").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    assert!(store.get(&key(1)).is_none());
    store.put(&key(1), &result(64, 1)).unwrap();
    assert_eq!(store.get(&key(1)).unwrap(), result(64, 1));
    let stats = store.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.puts, stats.entries),
        (1, 1, 1, 1)
    );
    assert!(stats.bytes > 64);
}

#[test]
fn persists_across_reopen() {
    let dir = TempDir::new("store-reopen").unwrap();
    {
        let store = Store::open(StoreConfig::new(dir.path())).unwrap();
        store.put(&key(1), &result(32, 1)).unwrap();
        store.put(&key(2), &result(32, 2)).unwrap();
    }
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    assert_eq!(store.stats().entries, 2);
    assert_eq!(store.get(&key(1)).unwrap(), result(32, 1));
    assert_eq!(store.get(&key(2)).unwrap(), result(32, 2));
}

#[test]
fn lru_eviction_respects_access_order_across_reopen() {
    let dir = TempDir::new("store-lru").unwrap();
    // Size the budget for roughly two entries: each entry is payload
    // (size + under 100 bytes of codec overhead) + 36 bytes of container.
    let entry_bytes = {
        let probe = TempDir::new("store-probe").unwrap();
        let s = Store::open(StoreConfig::new(probe.path())).unwrap();
        s.put(&key(9), &result(256, 9)).unwrap();
        s.stats().bytes
    };
    {
        let store =
            Store::open(StoreConfig::new(dir.path()).with_budget(2 * entry_bytes + 10)).unwrap();
        store.put(&key(1), &result(256, 1)).unwrap();
        store.put(&key(2), &result(256, 2)).unwrap();
        // Touch key 1 so key 2 is now the LRU entry.
        assert!(store.get(&key(1)).is_some());
    }
    // The access order must survive the reopen via the index log.
    let store =
        Store::open(StoreConfig::new(dir.path()).with_budget(2 * entry_bytes + 10)).unwrap();
    store.put(&key(3), &result(256, 3)).unwrap();
    assert_eq!(store.stats().evictions, 1);
    assert!(store.contains(&key(1)), "recently used entry survived");
    assert!(!store.contains(&key(2)), "LRU entry evicted");
    assert!(store.contains(&key(3)));
    assert!(!object_path(dir.path(), key(2)).exists());
}

/// Every hit appends a record to the index log, so the log is rewritten
/// past its bound: gets on a few entries keep it under the bound, and a
/// reopen of the rewritten log keeps every entry, its size and the LRU
/// order.
#[test]
fn hits_keep_the_index_log_bounded_and_the_lru_order() {
    let dir = TempDir::new("store-log-bound").unwrap();
    let log_lines = || {
        fs::read_to_string(dir.path().join("index.log"))
            .unwrap()
            .lines()
            .count() as u64
    };
    let keys = [1u8, 2, 3, 4];
    // Least recently used first, as the last pass of gets leaves them.
    let touch = [2u8, 4, 1, 3];
    let bytes = {
        let store = Store::open(StoreConfig::new(dir.path())).unwrap();
        for n in keys {
            store.put(&key(n), &result(64 * usize::from(n), n)).unwrap();
        }
        for pass in 0..3 * Store::LOG_FLOOR / 4 {
            for n in touch {
                assert_eq!(store.get(&key(n)).unwrap(), result(64 * usize::from(n), n));
            }
            if pass % 16 == 0 {
                assert!(log_lines() <= Store::LOG_FLOOR, "pass {pass}");
            }
        }
        assert!(log_lines() <= Store::LOG_FLOOR);
        store.stats().bytes
    };
    {
        let store = Store::open(StoreConfig::new(dir.path())).unwrap();
        assert_eq!((store.stats().entries, store.stats().bytes), (4, bytes));
    }
    // With no budget left, a put evicts every other entry, oldest first.
    let store = Store::open(StoreConfig::new(dir.path()).with_budget(0)).unwrap();
    store.put(&key(5), &result(64, 5)).unwrap();
    let log = fs::read_to_string(dir.path().join("index.log")).unwrap();
    let evicted: Vec<String> = log
        .lines()
        .filter_map(|line| line.strip_prefix("evict "))
        .map(str::to_owned)
        .collect();
    let oldest_first: Vec<String> = touch.iter().map(|&n| key(n).to_hex()).collect();
    assert_eq!(evicted, oldest_first);
}

#[test]
fn replaced_entry_does_not_leak_bytes() {
    let dir = TempDir::new("store-replace").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    store.put(&key(1), &result(1000, 1)).unwrap();
    let after_first = store.stats().bytes;
    store.put(&key(1), &result(1000, 2)).unwrap();
    assert_eq!(store.stats().bytes, after_first);
    assert_eq!(store.stats().entries, 1);
    assert_eq!(store.get(&key(1)).unwrap(), result(1000, 2));
}

#[test]
fn corrupt_entry_is_quarantined_not_served() {
    let dir = TempDir::new("store-corrupt").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    store.put(&key(5), &result(128, 5)).unwrap();

    // Flip one byte in the middle of the payload on disk.
    let path = object_path(dir.path(), key(5));
    let mut blob = std::fs::read(&path).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0x01;
    std::fs::write(&path, &blob).unwrap();

    // The read path must detect the mismatch and quarantine the entry.
    assert!(store.get(&key(5)).is_none());
    let stats = store.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.entries, 0);
    assert!(!path.exists(), "corrupt object removed from serving path");
    let quarantined = dir.path().join("quarantine").join(key(5).to_hex());
    assert!(
        quarantined.exists(),
        "corrupt object preserved for analysis"
    );

    // The fallback: a get_or_fill after the quarantine re-extracts.
    let fills = AtomicUsize::new(0);
    let (got, hit) = store.get_or_fill(&key(5), || {
        fills.fetch_add(1, Ordering::SeqCst);
        Some(result(128, 6))
    });
    assert!(!hit);
    assert_eq!(fills.load(Ordering::SeqCst), 1, "re-extraction ran");
    assert_eq!(got.unwrap(), result(128, 6));
    assert_eq!(store.get(&key(5)).unwrap(), result(128, 6));
}

/// An entry in an older payload format (`RES5`: fixed counters after
/// the DEX) under a valid container and checksum reads as a miss, is
/// quarantined once, and is then refilled.
#[test]
fn older_format_entry_is_a_miss_quarantined_once() {
    let dir = TempDir::new("store-res5").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    store.put(&key(8), &result(64, 8)).unwrap();

    let mut payload = b"RES5".to_vec();
    payload.extend_from_slice(&64u32.to_le_bytes());
    payload.extend_from_slice(&[8; 64]);
    for counter in 0..11u64 {
        payload.extend_from_slice(&counter.to_le_bytes());
    }
    payload.extend_from_slice(&[0; 8]); // no findings, no phases
    let mut blob = b"DLSTORE1".to_vec();
    blob.extend_from_slice(&dexlego_dex::checksum::sha1(&payload));
    blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    blob.extend_from_slice(&payload);
    std::fs::write(object_path(dir.path(), key(8)), &blob).unwrap();

    assert!(store.get(&key(8)).is_none());
    assert!(store.get(&key(8)).is_none());
    let stats = store.stats();
    assert_eq!((stats.quarantined, stats.misses, stats.entries), (1, 2, 0));
    let (got, hit) = store.get_or_fill(&key(8), || Some(result(64, 9)));
    assert!(!hit);
    assert_eq!(got.unwrap(), result(64, 9));
}

#[test]
fn truncated_entry_is_quarantined() {
    let dir = TempDir::new("store-trunc").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    store.put(&key(7), &result(64, 7)).unwrap();
    let path = object_path(dir.path(), key(7));
    let blob = std::fs::read(&path).unwrap();
    std::fs::write(&path, &blob[..blob.len() - 5]).unwrap();
    assert!(store.get(&key(7)).is_none());
    assert_eq!(store.stats().quarantined, 1);
}

#[test]
fn concurrent_get_or_fill_runs_exactly_one_fill() {
    let dir = TempDir::new("store-conc").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let fills = Arc::new(AtomicUsize::new(0));
    const THREADS: usize = 8;

    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let store = Arc::clone(&store);
                let fills = Arc::clone(&fills);
                scope.spawn(move || {
                    store.get_or_fill(&key(3), || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window: the gate must hold the
                        // other threads out for the whole fill.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Some(result(256, 3))
                    })
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().unwrap());
        }
    });

    assert_eq!(
        fills.load(Ordering::SeqCst),
        1,
        "exactly one extraction across {THREADS} threads"
    );
    let hits = results.iter().filter(|(_, hit)| *hit).count();
    assert_eq!(hits, THREADS - 1, "everyone else was served from cache");
    for (got, _) in results {
        assert_eq!(got.unwrap(), result(256, 3));
    }
}

#[test]
fn fill_gate_stays_correct_while_eviction_churns() {
    // Readers hammer one hot key through the fill gate while a churn
    // thread floods the store with distinct entries under a budget tight
    // enough to keep the evictor running. The hot key may be evicted and
    // legitimately refilled any number of times, but every single read
    // must observe a complete, checksum-valid copy — never a torn or
    // mixed value — and nothing may be quarantined.
    let dir = TempDir::new("store-churn").unwrap();
    // Budget for roughly three 256-byte entries.
    let entry_bytes = {
        let probe = TempDir::new("store-churn-probe").unwrap();
        let s = Store::open(StoreConfig::new(probe.path())).unwrap();
        s.put(&key(9), &result(256, 9)).unwrap();
        s.stats().bytes
    };
    let store = Arc::new(
        Store::open(StoreConfig::new(dir.path()).with_budget(3 * entry_bytes + 10)).unwrap(),
    );
    let fills = Arc::new(AtomicUsize::new(0));
    const READERS: usize = 4;
    const READS: usize = 60;
    let hot = key(42);
    let expected = result(256, 42);

    std::thread::scope(|scope| {
        // Eviction pressure: a stream of distinct keys, each put forcing
        // the store back under budget.
        let churn_store = Arc::clone(&store);
        scope.spawn(move || {
            for i in 0..200u8 {
                if i != 42 {
                    churn_store.put(&key(i), &result(256, i)).unwrap();
                }
            }
        });
        for _ in 0..READERS {
            let store = Arc::clone(&store);
            let fills = Arc::clone(&fills);
            let expected = expected.clone();
            scope.spawn(move || {
                for _ in 0..READS {
                    let (got, _hit) = store.get_or_fill(&hot, || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        Some(result(256, 42))
                    });
                    assert_eq!(
                        got.expect("fill always produces a value"),
                        expected,
                        "read observed a torn or stale value"
                    );
                }
            });
        }
    });

    let fill_count = fills.load(Ordering::SeqCst);
    assert!(fill_count >= 1, "the first read must fill");
    assert!(
        fill_count < READERS * READS,
        "the gate deduplicated at least some concurrent fills"
    );
    assert_eq!(
        store.stats().quarantined,
        0,
        "no reader ever saw a corrupt entry under churn"
    );
}

#[test]
fn concurrent_replacement_is_atomic_to_readers() {
    // Two writers replace the same key with distinguishable payloads
    // while readers poll it: every read must decode to exactly one of the
    // two complete values (write-then-rename makes replacement atomic),
    // with no quarantines from half-written objects.
    let dir = TempDir::new("store-replace-race").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let k = key(7);
    store.put(&k, &result(512, 1)).unwrap();
    let one = result(512, 1);
    let two = result(512, 2);

    std::thread::scope(|scope| {
        for tag in [1u8, 2u8] {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..50 {
                    store.put(&k, &result(512, tag)).unwrap();
                }
            });
        }
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let (one, two) = (one.clone(), two.clone());
            scope.spawn(move || {
                for _ in 0..100 {
                    let got = store.get(&k).expect("key never disappears");
                    assert!(
                        got == one || got == two,
                        "read returned a value neither writer wrote"
                    );
                }
            });
        }
    });
    assert_eq!(store.stats().quarantined, 0, "no torn object was served");
}

#[test]
fn sharded_layout_and_key_hex() {
    let dir = TempDir::new("store-shard").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    let k = Key::from_hex("ab00000000000000000000000000000000000000").unwrap();
    store.put(&k, &result(16, 1)).unwrap();
    let path = object_path(dir.path(), k);
    assert!(path.ends_with(
        std::path::Path::new("objects")
            .join("ab")
            .join("00000000000000000000000000000000000000")
    ));
    assert!(path.exists());
    assert_eq!(Key::from_hex(&k.to_hex()), Some(k));
    assert!(Key::from_hex("xyz").is_none());
    assert!(Key::from_hex("ab").is_none());
}

#[test]
fn uncacheable_fill_stores_nothing() {
    let dir = TempDir::new("store-nofill").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    let (got, hit) = store.get_or_fill(&key(4), || None);
    assert!(got.is_none());
    assert!(!hit);
    assert_eq!(store.stats().entries, 0);
    // A later fill still runs and can cache.
    let (got, hit) = store.get_or_fill(&key(4), || Some(result(8, 4)));
    assert!(!hit);
    assert_eq!(got.unwrap(), result(8, 4));
    assert_eq!(store.stats().entries, 1);
}

#[test]
fn backfill_writes_only_when_absent() {
    let dir = TempDir::new("store-backfill").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    // First backfill lands and is served like any other entry.
    assert!(store.put_if_absent(&key(9), &result(32, 9)).unwrap());
    assert_eq!(store.get(&key(9)).unwrap(), result(32, 9));
    // A second backfill for the same key is a no-op: the resident entry
    // (possibly a newer local fill) wins over the repair copy.
    assert!(!store.put_if_absent(&key(9), &result(32, 7)).unwrap());
    assert_eq!(store.get(&key(9)).unwrap(), result(32, 9));
    assert_eq!(store.stats().puts, 1);
}
