//! Machine-speed calibration. The host this benchmark runs on may be
//! shared: its speed drifts by tens of percent over minutes as other work
//! comes and goes. A fixed calibration pass, independent of the program
//! under test, is timed next to every measured sample, and the sample is
//! reported at the speed where one pass takes [`REF_S`]. A change to the
//! program moves the samples but not the calibration.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal duration of one calibration pass, in seconds (about what it
/// takes on a 2-core Xeon when the host is quiet).
pub const REF_S: f64 = 0.01;

/// Time one calibration pass: ordered-map churn over a small working set,
/// the same kind of branchy, allocating work the emulator does.
pub fn pass() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 1;
    for i in 0..100_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, i);
        if map.len() > 4096 {
            map.pop_first();
        }
    }
    std::hint::black_box(&map);
    t.elapsed().as_secs_f64()
}

/// The median of `n` passes: a steadier reading for a sample that can
/// afford it.
pub fn median_pass(n: usize) -> f64 {
    crate::stats::median(&(0..n).map(|_| pass()).collect::<Vec<_>>())
}

/// Scales samples by the calibration passes around them.
pub struct Calibrator {
    last: f64,
}

impl Calibrator {
    /// Start with one pass.
    pub fn new() -> Self {
        Calibrator { last: pass() }
    }

    /// The factor that brings a sample just taken to the reference speed,
    /// from the pass before it and a pass taken now.
    pub fn factor(&mut self) -> f64 {
        let next = pass();
        let pass_s = (self.last + next) / 2.0;
        self.last = next;
        normalize(1.0, pass_s)
    }
}

/// `seconds` measured while one calibration pass took `pass_s`, at the
/// reference speed.
pub fn normalize(seconds: f64, pass_s: f64) -> f64 {
    seconds * REF_S / pass_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_is_proportional() {
        assert!((normalize(2.0, REF_S) - 2.0).abs() < 1e-12);
        // A host running at half speed doubles both the sample and the pass.
        assert!((normalize(4.0, 2.0 * REF_S) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_pass_takes_measurable_time() {
        let s = pass();
        assert!(s > 0.0 && s < 5.0, "{s}");
    }
}
