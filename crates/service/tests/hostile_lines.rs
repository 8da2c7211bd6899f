//! Hostile request lines against live servers. Each of these aborted the
//! whole process before the JSON parser and the DEX reader bounded their
//! nesting: 100,000 nested `[` overflowed the loop thread's stack while
//! parsing the line, and an extract whose DEX (checksum and signature
//! valid) nests 20,000 static-value arrays overflowed it while reading the
//! payload. Now each gets an `error` reply from dexlegod and from a router
//! in front of it, and the same connection keeps serving.

use dexlego_dex::checksum::{adler32, sha1};
use dexlego_dex::writer::write_dex;
use dexlego_dex::{ClassDef, DexFile, EncodedValue};
use dexlego_router::{Router, RouterConfig};
use dexlego_service::{Client, Daemon, ExtractRequest, Reply, ServiceConfig};
use dexlego_store::TempDir;

/// A DEX whose one static value nests 20,000 arrays around a `null`,
/// appended to the file, with its size, signature and checksum set.
fn nested_value_dex() -> Vec<u8> {
    let mut dex = DexFile::new();
    let mut def = ClassDef::new(dex.intern_type("Lhostile/A;"));
    def.static_values.push(EncodedValue::Null);
    dex.add_class(def);
    let mut bytes = write_dex(&dex).unwrap();
    let class_def = u32::from_le_bytes(bytes[100..104].try_into().unwrap()) as usize;
    let at = (bytes.len() as u32).to_le_bytes();
    bytes[class_def + 28..class_def + 32].copy_from_slice(&at);
    bytes.push(1);
    for _ in 0..20_000 {
        bytes.extend([0x1c, 1]);
    }
    bytes.push(0x1e);
    let len = (bytes.len() as u32).to_le_bytes();
    bytes[32..36].copy_from_slice(&len);
    let signature = sha1(&bytes[32..]);
    bytes[12..32].copy_from_slice(&signature);
    let checksum = adler32(&bytes[12..]).to_le_bytes();
    bytes[8..12].copy_from_slice(&checksum);
    bytes
}

/// Sends both hostile lines on one connection to `addr`, expecting an
/// `error` reply to each, then a ping on the same connection.
fn refused_then_served(addr: &str) {
    let nested_dex = ExtractRequest::new(nested_value_dex(), "Lhostile/A;->main()V").encode();
    assert!(nested_dex.len() > 80_000, "{}", nested_dex.len());
    let mut client = Client::connect(addr).expect("connect");
    for line in ["[".repeat(100_000), nested_dex] {
        client.send_line(&line).expect("send");
        let reply = client.recv().expect("a reply, not a dead server");
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
    }
    client.ping().expect("the connection keeps serving");
}

#[test]
fn hostile_lines_get_errors_from_the_daemon_and_through_a_router() {
    let dir = TempDir::new("hostile-lines").unwrap();
    let daemon = Daemon::start(ServiceConfig::new(dir.path())).expect("daemon starts");
    let addr = daemon.addr().to_string();
    refused_then_served(&addr);
    let router = Router::start(RouterConfig::new(vec![addr.clone()])).expect("router starts");
    refused_then_served(&router.addr().to_string());
    router.trigger_shutdown();
    router.wait();
    // The daemon behind the router is still up.
    Client::connect(&addr).unwrap().ping().expect("daemon ping");
    daemon.trigger_shutdown();
    daemon.wait();
}
