//! Crash recovery of the store's index log: a last record a crash tore,
//! a byte that is not UTF-8 and half-written objects each cost at most
//! what they touch, and a log cut at any byte keeps every record that
//! completed before the cut.

use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use dexlego_store::{object_path, CachedResult, Key, Store, StoreConfig, TempDir};

fn key(n: u8) -> Key {
    Key::new([n; 20])
}

fn result(tag: u8) -> CachedResult {
    CachedResult {
        dex_bytes: vec![tag; 32],
        counters: vec![("insns".to_owned(), u64::from(tag))],
        phases_us: Vec::new(),
    }
}

fn open(root: &Path) -> Store {
    Store::open(StoreConfig::new(root)).expect("store opens")
}

fn append_to_log(root: &Path, bytes: &[u8]) {
    OpenOptions::new()
        .append(true)
        .open(root.join("index.log"))
        .expect("index log exists")
        .write_all(bytes)
        .expect("append to the log");
}

/// Every file under `dir`, recursively.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("readable dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files(&path));
        } else {
            out.push(path);
        }
    }
    out
}

/// A `kill -9` mid-append leaves a last line without its newline. The
/// next put must not join it and vanish at the following open.
#[test]
fn a_torn_last_record_does_not_swallow_the_next_put() {
    let dir = TempDir::new("store-torn-tail").unwrap();
    open(dir.path()).put(&key(1), &result(1)).unwrap();
    append_to_log(dir.path(), b"put 0202");
    open(dir.path()).put(&key(2), &result(2)).unwrap();

    let store = open(dir.path());
    assert_eq!(
        store.get(&key(2)),
        Some(result(2)),
        "the put after the tear"
    );
    assert_eq!(store.get(&key(1)), Some(result(1)));
    assert_eq!(store.stats().entries, 2);
}

/// A byte that is not UTF-8 costs its own line, not the whole index.
#[test]
fn a_non_utf8_byte_costs_only_its_line() {
    let dir = TempDir::new("store-non-utf8").unwrap();
    open(dir.path()).put(&key(1), &result(1)).unwrap();
    append_to_log(dir.path(), b"get \xff\n");
    open(dir.path()).put(&key(2), &result(2)).unwrap();

    let store = open(dir.path());
    assert_eq!(store.get(&key(1)), Some(result(1)));
    assert_eq!(store.get(&key(2)), Some(result(2)));
}

/// A log of puts, gets and evictions, cut at every byte: each reopen
/// honours exactly the records completed before the cut (an entry whose
/// object was evicted later is gone either way), a put after the reopen
/// survives the next one, and no half-written object survives an open.
#[test]
fn every_cut_of_the_log_keeps_the_records_before_it() {
    let src = TempDir::new("store-cut-src").unwrap();
    let entry_bytes = {
        let store = open(src.path());
        store.put(&key(1), &result(1)).unwrap();
        store.stats().bytes
    };
    {
        // Room for three entries: the fourth and fifth puts evict.
        let store = Store::open(StoreConfig::new(src.path()).with_budget(3 * entry_bytes)).unwrap();
        store.put(&key(2), &result(2)).unwrap();
        assert!(store.get(&key(1)).is_some());
        store.put(&key(3), &result(3)).unwrap();
        store.put(&key(4), &result(4)).unwrap();
        assert!(store.get(&key(3)).is_some());
        store.put(&key(5), &result(5)).unwrap();
        assert!(store.stats().evictions >= 2, "the log holds evictions");
    }
    let log = fs::read(src.path().join("index.log")).unwrap();
    let objects = files(&src.path().join("objects"));

    for cut in 0..=log.len() {
        let dir = TempDir::new("store-cut").unwrap();
        for object in &objects {
            let to = dir.path().join(object.strip_prefix(src.path()).unwrap());
            fs::create_dir_all(to.parent().unwrap()).unwrap();
            fs::copy(object, to).unwrap();
        }
        fs::write(dir.path().join("index.log"), &log[..cut]).unwrap();
        let unfinished = object_path(dir.path(), key(9)).with_extension("tmp");
        fs::create_dir_all(unfinished.parent().unwrap()).unwrap();
        fs::write(&unfinished, b"half an object").unwrap();

        // The records whose newline made it, as the store wrote them.
        let complete = log[..cut]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        let mut want: HashMap<Key, u64> = HashMap::new();
        for line in std::str::from_utf8(&log[..complete]).unwrap().lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            let key = Key::from_hex(fields[1]).unwrap();
            match fields[0] {
                "put" => {
                    want.insert(key, fields[2].parse().unwrap());
                }
                "evict" => {
                    want.remove(&key);
                }
                _ => {}
            }
        }
        want.retain(|key, _| object_path(dir.path(), *key).exists());

        let check = |store: &Store, extra: u64| {
            let stats = store.stats();
            assert_eq!(stats.entries, want.len() as u64 + extra, "cut at {cut}");
            assert_eq!(
                stats.bytes,
                want.values().sum::<u64>() + extra * entry_bytes,
                "cut at {cut}"
            );
            for key in want.keys() {
                assert!(store.contains(key), "cut at {cut}: {key} lost");
            }
        };
        let store = open(dir.path());
        check(&store, 0);
        assert!(!unfinished.exists(), "cut at {cut}: a .tmp object survived");
        store.put(&key(200), &result(200)).unwrap();
        drop(store);
        let store = open(dir.path());
        check(&store, 1);
        assert_eq!(store.get(&key(200)), Some(result(200)), "cut at {cut}");
        let tmps = files(&dir.path().join("objects"))
            .into_iter()
            .filter(|path| path.extension().is_some_and(|ext| ext == "tmp"))
            .count();
        assert_eq!(tmps, 0, "cut at {cut}");
    }
}
