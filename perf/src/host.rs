//! How fast the host runs code right now, and the clock the end-to-end
//! times are read from.
//!
//! On a shared host the same code runs up to 2× slower for tens of
//! seconds at a time, longer than a run, so a median over one run's
//! repetitions moves with the spell it fell in. A fixed calibration
//! kernel, timed before the first repetition and after each one,
//! measures the host's speed around every repetition. Each repetition's
//! time is divided by the host's slowdown over it, so end-to-end times
//! read in seconds of a host at the reference speed. The kernel is
//! benchmark code only, so a change to the simulator moves the
//! repetitions and never the calibration.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::workload::BoxError;

/// About the calibration kernel's median on-CPU time on the reference
/// machine, a 2-vCPU Intel Xeon VM at 2.1 GHz (0.03 s in its quiet
/// spells, 0.07 s in its slowest).
pub const REFERENCE_S: f64 = 0.04;

/// Rounds of the calibration kernel.
const ROUNDS: usize = 600;

/// Seconds the calling thread has spent on a CPU, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. Unlike wall time it leaves
/// out the time the thread waited for a CPU, on the run queue or taken by
/// the hypervisor (steal, on a kernel with paravirtual time accounting).
/// The `/proc` views of the same clock advance only at scheduler ticks.
pub fn thread_cpu_s() -> Result<f64, BoxError> {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    let mut now = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `now` is a valid, writable `struct timespec` for the call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) } != 0 {
        return Err(std::io::Error::last_os_error().into());
    }
    Ok(now.sec as f64 + now.nsec as f64 * 1e-9)
}

/// Runs the calibration kernel once and returns its on-CPU seconds. The
/// work is fixed and of the kinds the simulator's hot paths do: sorting
/// a queue by key, keeping a bounded ordered index, float arithmetic per
/// entry, and removing from the front of a `Vec`.
pub fn calibrate() -> Result<f64, BoxError> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let started = thread_cpu_s()?;
    let mut queue: Vec<(u64, u64)> = Vec::with_capacity(1024);
    let mut index = BTreeMap::new();
    let (mut sum, mut acc) = (0u64, 1.0f64);
    for _ in 0..ROUNDS {
        queue.clear();
        queue.extend((0..1024).map(|i| (next() % 100_000, i)));
        queue.sort_by_key(|&entry| entry);
        for &(key, i) in queue.iter().step_by(8) {
            index.insert(key, i);
            if index.len() > 4096 {
                index.pop_first();
            }
            acc = acc * 1.000_001 + (key as f64).sqrt() / (1.0 + i as f64);
        }
        while queue.len() > 900 {
            sum = sum.wrapping_add(queue.remove(3).0);
        }
    }
    black_box((sum, acc, index.len()));
    Ok(thread_cpu_s()? - started)
}

/// Each repetition's time in reference seconds. `calibrations` holds one
/// more entry than `times`: the kernel's time before the first
/// repetition and after each one. Repetition `i`'s slowdown is the mean
/// of the calibrations on either side of it over [`REFERENCE_S`].
pub fn reference_seconds(times: &[f64], calibrations: &[f64]) -> Vec<f64> {
    assert_eq!(
        calibrations.len(),
        times.len() + 1,
        "one calibration per gap"
    );
    times
        .iter()
        .zip(calibrations.windows(2))
        .map(|(t, around)| t * REFERENCE_S / ((around[0] + around[1]) / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniformly_slower_host_reads_the_same_reference_time() {
        let quiet = reference_seconds(&[1.0, 1.2], &[0.04, 0.04, 0.04]);
        assert_eq!(quiet, vec![1.0, 1.2]);
        let slow = reference_seconds(&[2.0, 2.4], &[0.08, 0.08, 0.08]);
        assert_eq!(slow, quiet);
        // A spell that starts between the calibrations around a
        // repetition is charged half.
        let half = reference_seconds(&[1.5], &[0.04, 0.08]);
        assert!((half[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let t = calibrate().expect("calibration");
        assert!(t > 0.0 && t < 10.0, "{t}");
    }
}
