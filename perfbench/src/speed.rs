//! Host-speed normalisation.
//!
//! On a shared virtual machine the CPU a run gets is sometimes fast and
//! sometimes up to 1.7× slower, for seconds to minutes at a time, whatever
//! the program does, so two runs of the same code can differ by more than
//! any bound a regression gate could use. A fixed reference loop that
//! shares no code with the program, run on the benchmark's own CPU every
//! [`PROBE_EVERY`] during set-up and the timed window, reads the host's
//! speed at that moment. Time metrics are reported at the reference speed:
//! a measured time is divided by [`Speed::factor`] and a rate multiplied
//! by it. The measured values are printed beside them.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::stats::median;

/// How often the drive loop probes the host between operations.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Probe time, ns, that defines the reference speed: about what one probe
/// takes on an uncontended vCPU of a 2-vCPU x86-64 VM.
pub const REFERENCE_NS: f64 = 1_000_000.0;

/// How far the program's times move per unit move of the probe's, on a
/// log scale. The probe is bound by the core alone; the program also waits
/// on memory, which the slow stretches slow less. Over 46 runs of the
/// three workloads, fitted per workload and metric, the program's times
/// moved with the probe's at elasticities of 0.6 to 0.96 (store-writes
/// lowest, review highest); one value for all keeps each workload's
/// residual under a quarter of the host's swing.
pub const ELASTICITY: f64 = 0.75;

/// Map updates per probe.
const PROBE_STEPS: u64 = 20_000;

/// The reference loop: hashing, small allocations and map updates, the
/// mix the program's own hot paths are made of. Returns a value derived
/// from the work so the optimiser keeps it.
fn reference_work() -> u64 {
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut x: u64 = 1;
    for _ in 0..PROBE_STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let bucket = map.entry(x >> 52).or_default();
        bucket.push(x as u8);
        if bucket.len() > 64 {
            bucket.clear();
        }
    }
    x ^ map.len() as u64
}

/// Probe times taken over one interval.
#[derive(Default)]
pub struct Speed {
    /// Time of each probe, ns.
    pub samples_ns: Vec<u64>,
}

impl Speed {
    /// Runs one probe and records its time.
    pub fn probe(&mut self) {
        let t = Instant::now();
        std::hint::black_box(reference_work());
        self.samples_ns.push(t.elapsed().as_nanos() as u64);
    }

    /// Takes every sample of `other`.
    pub fn absorb(&mut self, other: &Speed) {
        self.samples_ns.extend_from_slice(&other.samples_ns);
    }

    /// Time the probes took, s: benchmark work, not the program's.
    pub fn spent_s(&self) -> f64 {
        self.samples_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// How much slower than the reference the host ran: the median probe
    /// time over [`REFERENCE_NS`] (1 when nothing was probed).
    pub fn slowdown(&self) -> f64 {
        let mut ns: Vec<f64> = self.samples_ns.iter().map(|&n| n as f64).collect();
        if ns.is_empty() {
            1.0
        } else {
            median(&mut ns) / REFERENCE_NS
        }
    }

    /// How much slower the program ran than it would at the reference
    /// speed: the slowdown raised to [`ELASTICITY`].
    pub fn factor(&self) -> f64 {
        self.slowdown().powf(ELASTICITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_probe_over_the_reference() {
        let mut s = Speed::default();
        assert_eq!(s.factor(), 1.0);
        s.samples_ns = vec![1_500_000, 1_000_000, 9_000_000];
        assert_eq!(s.slowdown(), 1.5);
        assert_eq!(s.factor(), 1.5f64.powf(ELASTICITY));
        assert_eq!(s.spent_s(), 0.0115);
        let mut t = Speed::default();
        t.probe();
        t.absorb(&s);
        assert_eq!(t.samples_ns.len(), 4);
        assert!(t.samples_ns[0] > 0);
    }
}
