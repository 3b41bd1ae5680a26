//! Link and device health bookkeeping for fault injection.
//!
//! Fault specs express degradation as a *fraction of healthy capacity*
//! ([`simcore::fault::FaultKind::LinkDegrade`]), but the flow network
//! only knows absolute capacities — and the healthy value must survive
//! overlapping faults (a flap firing while a scheduled degrade is
//! active must restore to the original capacity, not to the degraded
//! one). [`LinkHealth`] snapshots every link's healthy capacity at
//! build time and converts factors to absolute values; [`GpuHealth`]
//! tracks which devices are up.

use simcore::flow::{FlowNet, LinkId};

/// Degradation factors are clamped here so a "dead" link still drains
/// in-flight fluid flows instead of dividing by zero.
const MIN_FACTOR: f64 = 0.01;

/// Healthy-capacity snapshot plus current degradation per link.
#[derive(Debug, Clone)]
pub struct LinkHealth {
    base: Vec<f64>,
    factor: Vec<f64>,
}

impl LinkHealth {
    /// Snapshots the healthy capacity of every link in `net`.
    pub fn snapshot(net: &FlowNet) -> Self {
        let base: Vec<f64> = (0..net.link_count())
            .map(|i| net.link_capacity(LinkId(i)))
            .collect();
        let factor = vec![1.0; base.len()];
        LinkHealth { base, factor }
    }

    /// Applies a degradation factor to `link` and returns the absolute
    /// capacity to program into the flow network. Factors compose by
    /// replacement, not multiplication: the last fault wins, and
    /// restore always returns to the healthy snapshot.
    pub fn degrade(&mut self, link: LinkId, factor: f64) -> f64 {
        let f = factor.max(MIN_FACTOR);
        self.factor[link.0] = f;
        self.base[link.0] * f
    }

    /// Clears `link`'s degradation and returns its healthy capacity.
    pub fn restore(&mut self, link: LinkId) -> f64 {
        self.factor[link.0] = 1.0;
        self.base[link.0]
    }

    /// The healthy capacity snapshot for `link`.
    pub fn healthy_capacity(&self, link: LinkId) -> f64 {
        self.base[link.0]
    }

    /// The current degradation factor for `link` (1.0 = healthy).
    pub fn factor(&self, link: LinkId) -> f64 {
        self.factor[link.0]
    }
}

/// Up/down state per GPU.
#[derive(Debug, Clone)]
pub struct GpuHealth {
    up: Vec<bool>,
}

impl GpuHealth {
    /// All `n` GPUs start healthy.
    pub fn all_up(n: usize) -> Self {
        GpuHealth { up: vec![true; n] }
    }

    /// Marks `gpu` failed. Returns `false` when it was already down.
    pub fn fail(&mut self, gpu: usize) -> bool {
        std::mem::replace(&mut self.up[gpu], false)
    }

    /// Marks `gpu` healthy again. Returns `false` when it was already up.
    pub fn recover(&mut self, gpu: usize) -> bool {
        !std::mem::replace(&mut self.up[gpu], true)
    }

    /// Whether `gpu` is currently up.
    pub fn is_up(&self, gpu: usize) -> bool {
        self.up[gpu]
    }

    /// Number of healthy GPUs.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&u| u).count()
    }

    /// Indices of healthy GPUs, ascending.
    pub fn up_gpus(&self) -> Vec<usize> {
        (0..self.up.len()).filter(|&g| self.up[g]).collect()
    }

    /// Total GPUs tracked (up or down).
    pub fn len(&self) -> usize {
        self.up.len()
    }

    /// Whether no GPUs are tracked.
    pub fn is_empty(&self) -> bool {
        self.up.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::v100;
    use crate::machine::MachineBuilder;
    use crate::netmap::NetMap;

    #[test]
    fn degrade_and_restore_round_trip() {
        let m = MachineBuilder::new("t")
            .switches(1)
            .gpu(v100(), 0)
            .gpu(v100(), 0)
            .build()
            .unwrap();
        let (net, map) = NetMap::build(&m).unwrap();
        let mut health = LinkHealth::snapshot(&net);
        let l = map.gpu_pcie[0];
        let healthy = health.healthy_capacity(l);
        assert!((healthy - 12e9).abs() < 1.0);
        assert_eq!(health.factor(l), 1.0);

        let degraded = health.degrade(l, 0.25);
        assert!((degraded - 3e9).abs() < 1.0);
        assert_eq!(health.factor(l), 0.25);
        // A second fault replaces, not compounds.
        let worse = health.degrade(l, 0.1);
        assert!((worse - 1.2e9).abs() < 1.0);
        // Restore returns to the snapshot no matter what was active.
        assert!((health.restore(l) - healthy).abs() < 1.0);
        assert_eq!(health.factor(l), 1.0);
        // Zero factors clamp instead of zeroing the link.
        assert!(health.degrade(l, 0.0) >= healthy * 0.01 - 1.0);
    }

    #[test]
    fn gpu_health_tracks_up_set() {
        let mut h = GpuHealth::all_up(4);
        assert_eq!(h.up_count(), 4);
        assert!(h.fail(2));
        assert!(!h.fail(2)); // Already down.
        assert!(!h.is_up(2));
        assert_eq!(h.up_gpus(), vec![0, 1, 3]);
        assert!(h.recover(2));
        assert!(!h.recover(2)); // Already up.
        assert_eq!(h.up_count(), 4);
    }
}
