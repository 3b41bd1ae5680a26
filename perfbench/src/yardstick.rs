//! A fixed workload of the benchmark's own that times the host itself.
//!
//! On a shared VM the same simulation can run 60 % slower for seconds to
//! minutes at a time, and the slowdown is on-CPU (`schedstat` shows no
//! run-queue wait). Host-time metrics are therefore reported in seconds
//! of a reference host: each measured interval is multiplied by
//! [`scale`] of the yardstick runs just before and just after it. The
//! yardstick uses no repository code, so a change to the simulator
//! cannot move it.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds the yardstick takes on the reference host: a 2-vCPU VM
/// in a quiet period.
pub const REFERENCE_S: f64 = 0.05;

/// Runs the yardstick once: sorting, heap, hash-map and ordered-map work
/// on a fixed pseudo-random input, the mix the simulator's event loop and
/// server state do, in about 1 MiB so that it does not raise the
/// process's peak memory. Returns host seconds.
pub fn run() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let keys: Vec<u64> = (0..1 << 16).map(|_| next()).collect();
    let mut sorted = keys.clone();
    let mut heap = BinaryHeap::with_capacity(1 << 12);
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(1 << 14);
    let mut ordered = BTreeMap::new();
    for round in 0..6u32 {
        sorted.copy_from_slice(&keys);
        sorted.iter_mut().for_each(|k| *k = k.rotate_left(round));
        sorted.sort_unstable();
        for &k in &keys {
            heap.push(std::cmp::Reverse(k.rotate_left(round + 7)));
            if heap.len() > 4_096 {
                black_box(heap.pop());
            }
            *counts.entry(k.rotate_left(round) % 16_381).or_insert(0) += 1;
        }
        ordered.clear();
        for (i, &k) in keys.iter().enumerate().take(1 << 14) {
            ordered.insert(k.rotate_left(round + 13), i);
        }
    }
    black_box((&sorted, &heap, &counts, &ordered));
    t.elapsed().as_secs_f64()
}

/// The factor that turns host seconds measured between two yardstick
/// runs, of `before` and `after` seconds, into reference-host seconds.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_takes_time() {
        assert!(run() > 0.0);
    }

    #[test]
    fn a_slow_host_scales_its_seconds_down() {
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(scale(0.09, 0.11), 0.5);
    }
}
