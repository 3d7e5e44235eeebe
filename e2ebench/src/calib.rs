//! The speed probe: a fixed synthetic kernel timed before every run, so
//! that the run's times can be reported at a reference core speed.
//!
//! The machines this benchmark runs on share cores with other tenants,
//! and their speed drifts over seconds as well as minutes. A run's wall
//! time moves with it, and so, to a large part, does the probe's. Each
//! run is scaled by the probe taken just before it, not by one median for
//! the process: over the 20-second windows of one 240-second
//! `paper_closed` process (`baseline/spread/windows.py`), `run_s_p50`
//! spread 20% as measured, 12% scaled by each window's median probe and
//! 4.1% scaled run by run.
//!
//! Over two sets of ten processes (`baseline/spread/set1` and `set2`),
//! while the machine slowed to about half speed, the median of
//! `run_s_p50` moved between the sets by +70%, +38%, +33% and −36% as
//! measured on `paper_closed`, `churn_maint`, `scale_1m` and
//! `service_hostile`, and by +18%, −8%, +1% and −6% at reference speed.
//! The probe under-corrects heavy contention on `paper_closed` and
//! over-corrects it on `churn_maint`, so it narrows the spread but does
//! not remove it; once, on `paper_closed` in the second set, the spread
//! within a set rose, from 4.8% to 7.9%.
//!
//! The kernel is the benchmark's own code, so no change to the simulator
//! moves it: a faster simulator still reads faster.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's median wall time on the reference machine (2-core Xeon)
/// in a quiet period, the speed every reported time is scaled to.
pub const REFERENCE_S: f64 = 0.75e-3;

fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut values: Vec<u64> = Vec::with_capacity(16384);
    let mut acc = 0u64;
    let mut f = 1.0f64;
    for i in 0..16384u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(x & 4095).or_insert(0) += i;
        acc = acc.wrapping_add(counts.get(&(x >> 52)).copied().unwrap_or(0));
        values.push(x);
        f = f * 1.000_000_1 + (x as f64).sqrt() * 1e-9;
    }
    values.sort_unstable();
    acc ^ values[8192] ^ f.to_bits()
}

/// Runs the kernel once and returns its wall time in seconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}
