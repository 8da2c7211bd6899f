//! The consistent-hash ring that maps store keys to backends.
//!
//! Each backend contributes `vnodes` points to a 64-bit ring; a key is
//! hashed to a point and owned by the first backend point at or after
//! it (wrapping). Virtual nodes smooth the load split, and consistent
//! hashing bounds churn: adding or removing one backend of `n` moves
//! roughly `1/n` of the keyspace, leaving every other backend's cached
//! results where they are.
//!
//! Placement is a pure function of `(seed, backend names, vnodes)` —
//! every router instance with the same fleet configuration computes the
//! same ring, so routers need no coordination and a restarted router
//! sends keys exactly where its predecessor did.

use dexlego_dex::checksum::sha1;
use dexlego_store::Key;

/// A point on the ring: position, owning backend index.
#[derive(Debug, Clone, Copy)]
struct Point {
    at: u64,
    backend: usize,
}

/// An immutable consistent-hash ring over a fixed backend list.
#[derive(Debug, Clone)]
pub struct Ring {
    points: Vec<Point>,
    backends: usize,
}

/// First 8 digest bytes as a big-endian ring position.
fn position(data: &[u8]) -> u64 {
    let digest = sha1(data);
    u64::from_be_bytes(digest[..8].try_into().expect("sha1 is 20 bytes"))
}

impl Ring {
    /// Builds the ring for `names` (backend identities, typically their
    /// addresses) with `vnodes` points each, derived from `seed`.
    ///
    /// # Panics
    ///
    /// When `names` is empty or `vnodes` is zero — an empty ring routes
    /// nothing and is always a configuration bug.
    #[must_use]
    pub fn new(names: &[String], vnodes: usize, seed: u64) -> Ring {
        assert!(!names.is_empty(), "a ring needs at least one backend");
        assert!(vnodes > 0, "a backend needs at least one virtual node");
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (backend, name) in names.iter().enumerate() {
            for vnode in 0..vnodes {
                // The point input pins the placement function: seed,
                // identity, vnode index, unambiguously delimited.
                let material = format!("{seed:016x}|{name}|{vnode}");
                points.push(Point {
                    at: position(material.as_bytes()),
                    backend,
                });
            }
        }
        points.sort_by_key(|p| (p.at, p.backend));
        Ring {
            points,
            backends: names.len(),
        }
    }

    /// How many backends the ring spans.
    #[must_use]
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The ring position a store key hashes to.
    #[must_use]
    pub fn key_position(key: &Key) -> u64 {
        let bytes = key.bytes();
        u64::from_be_bytes(bytes[..8].try_into().expect("key is 20 bytes"))
    }

    /// Every backend in preference order for `pos`: the owner first,
    /// then each distinct backend met walking clockwise. The first `r`
    /// entries are the replica set; the tail is the failover order.
    #[must_use]
    pub fn candidates(&self, pos: u64) -> Vec<usize> {
        let start = self
            .points
            .partition_point(|p| p.at < pos)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        let mut seen = vec![false; self.backends];
        let mut order = Vec::with_capacity(self.backends);
        for i in 0..self.points.len() {
            let p = self.points[(start + i) % self.points.len()];
            if !seen[p.backend] {
                seen[p.backend] = true;
                order.push(p.backend);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }

    /// The owning backend for `pos` (the first candidate).
    #[must_use]
    pub fn owner(&self, pos: u64) -> usize {
        self.candidates(pos)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("backend-{i}")).collect()
    }

    #[test]
    fn same_inputs_build_the_same_ring() {
        let a = Ring::new(&names(3), 64, 7);
        let b = Ring::new(&names(3), 64, 7);
        for pos in [0u64, 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(a.candidates(pos), b.candidates(pos));
        }
    }

    #[test]
    fn candidates_are_distinct_and_complete() {
        let ring = Ring::new(&names(4), 32, 1);
        for i in 0..1000u64 {
            let order = ring.candidates(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "all backends appear exactly once");
        }
    }

    #[test]
    fn single_backend_owns_everything() {
        let ring = Ring::new(&names(1), 8, 0);
        assert_eq!(ring.candidates(12345), vec![0]);
    }
}
