//! Service-time backends: how long a scheduled job actually takes.
//!
//! The engine separates *predicting* runtimes (always the fitted models
//! — that is the paper's premise) from *charging* them:
//!
//! - [`ServiceBackend::Measured`] runs each `(kernel, N, M)` combination
//!   once on the real simulated SoC **solo** and replays the cached
//!   cycle count thereafter, so the virtual-time simulation advances by
//!   *measured* runtimes and model error shows up as deadline misses,
//!   exactly as it would on hardware. The cache key deliberately drops
//!   the mask: clusters are symmetric (identical cores, TCDM and a
//!   uniform-latency switch tree to HBM), so on an otherwise-idle SoC
//!   the partition's *count* `M` — not which clusters it contains —
//!   determines the runtime. What the key therefore also bakes in is
//!   the solo-run assumption itself: a measured service time can never
//!   reflect cross-tenant contention, because co-residents would make
//!   the runtime depend on what else is in flight, not on `(kernel, N,
//!   M)` alone.
//! - [`ServiceBackend::Analytic`] charges the model prediction itself —
//!   no SoC in the loop, arbitrarily fast, useful for large sweeps and
//!   for isolating queueing effects from model error.
//! - [`ServiceBackend::CoSimulated`] drops the solo-run assumption: the
//!   engine drives one *shared* SoC session in virtual time, tenants on
//!   disjoint partitions overlap on the real NoC/HBM/host models, and
//!   each job's service time (and its attributed contention cycles)
//!   *emerges* from the co-simulation instead of being charged from a
//!   cache.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use mpsoc_kernels::ProgramMemo;
use mpsoc_noc::ClusterMask;
use mpsoc_offload::{JobId, OffloadStrategy, Offloader};
use mpsoc_sim::Cycle;

use crate::calibrate::{operands, ModelTable};
use crate::error::SchedError;
use crate::job::KernelId;

/// Where service times come from.
#[derive(Debug)]
pub enum ServiceBackend {
    /// Measured on a simulated SoC, memoized by `(kernel, N, M)`.
    Measured {
        /// The SoC to measure on.
        offloader: Box<Offloader>,
        /// Operand seed (measurements are deterministic in it).
        seed: u64,
        /// Dispatch strategy for measured offloads.
        strategy: OffloadStrategy,
        /// Memoized offload runtimes.
        offload_cache: BTreeMap<(KernelId, u64, usize), u64>,
        /// Memoized host runtimes.
        host_cache: BTreeMap<(KernelId, u64), u64>,
    },
    /// Model predictions, rounded up to whole cycles.
    Analytic {
        /// The per-kernel models to charge.
        table: ModelTable,
    },
    /// One shared SoC co-simulated in virtual time: concurrent tenants
    /// interfere on the real NoC/HBM/host models. Service times are not
    /// charged through [`ServiceBackend::offload_cycles`] — the engine
    /// submits jobs into the offloader's session and virtual time
    /// follows the SoC's event queue.
    CoSimulated {
        /// The shared SoC every tenant runs on.
        offloader: Box<Offloader>,
        /// Operand seed (runs are deterministic in it).
        seed: u64,
        /// Dispatch strategy for submitted offloads.
        strategy: OffloadStrategy,
        /// Memoized host runtimes (host fallback runs stay virtual: the
        /// scalar host pipeline is modeled as a serial server, exactly
        /// as under the measured backend).
        host_cache: BTreeMap<(KernelId, u64), u64>,
        /// Memoized operand pairs by element count. A pair is a pure
        /// function of `(n, seed ^ n)`, so one serves every submission
        /// of that size; like `host_cache`, the memo grows with the
        /// number of distinct sizes.
        operand_cache: BTreeMap<u64, (Vec<f64>, Vec<f64>)>,
        /// One instance of every kernel, built once, each building a
        /// core slice's program once: staging asks for the same slices
        /// job after job.
        kernels: BTreeMap<KernelId, ProgramMemo>,
    },
}

impl ServiceBackend {
    /// A measured backend over `offloader`, using the extended runtime
    /// (the configuration the scheduler targets).
    pub fn measured(offloader: Offloader, seed: u64) -> Self {
        ServiceBackend::Measured {
            offloader: Box::new(offloader),
            seed,
            strategy: OffloadStrategy::extended(),
            offload_cache: BTreeMap::new(),
            host_cache: BTreeMap::new(),
        }
    }

    /// An analytic backend over fitted models.
    pub fn analytic(table: ModelTable) -> Self {
        ServiceBackend::Analytic { table }
    }

    /// A co-simulated backend over `offloader`: tenants share the SoC
    /// and contention emerges, using the extended runtime.
    pub fn co_simulated(offloader: Offloader, seed: u64) -> Self {
        ServiceBackend::CoSimulated {
            offloader: Box::new(offloader),
            seed,
            strategy: OffloadStrategy::extended(),
            host_cache: BTreeMap::new(),
            operand_cache: BTreeMap::new(),
            kernels: KernelId::ALL
                .into_iter()
                .map(|kernel| (kernel, ProgramMemo::new(kernel.instantiate())))
                .collect(),
        }
    }

    /// The shared SoC session of a co-simulated backend.
    ///
    /// # Panics
    ///
    /// Panics unless the backend is [`ServiceBackend::CoSimulated`].
    pub(crate) fn session(&mut self) -> &mut Offloader {
        let ServiceBackend::CoSimulated { offloader, .. } = self else {
            unreachable!("only the co-simulated backend runs a shared session");
        };
        offloader
    }

    /// Submits one offload of `kernel` over `n` elements on `mask` into
    /// the co-simulated session at virtual time `at`.
    ///
    /// # Errors
    ///
    /// Offload failures from the session (e.g. a partition too small
    /// for the job's TCDM footprint). A job the session would refuse
    /// before writing its operands is refused before they are built, so
    /// a size past main memory is an error, not an allocation.
    ///
    /// # Panics
    ///
    /// Panics unless the backend is [`ServiceBackend::CoSimulated`].
    pub(crate) fn submit_at(
        &mut self,
        kernel: KernelId,
        n: u64,
        mask: ClusterMask,
        at: Cycle,
    ) -> Result<JobId, SchedError> {
        let ServiceBackend::CoSimulated {
            offloader,
            seed,
            strategy,
            operand_cache,
            kernels,
            ..
        } = self
        else {
            unreachable!("only the co-simulated backend runs a shared session");
        };
        let kernel = &kernels[&kernel];
        // Every schedulable kernel reads one `x` word per element.
        let (x, y) = match operand_cache.entry(n) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => {
                offloader.check_submit(kernel, n, n, mask)?;
                slot.insert(operands(n, *seed ^ n))
            }
        };
        Ok(offloader.submit_at(kernel, x, y, mask, *strategy, at)?)
    }

    /// Drops memoized solo-run offload measurements.
    ///
    /// Called when the machine changes under the cache — above all on
    /// cluster quarantine: past measurements may have been taken on a
    /// partition containing the cluster now known to be faulty (a
    /// stalling DMA inflates the cached cycle count, a corrupting one
    /// invalidates the run entirely), so the `(kernel, N, M)` entries
    /// can no longer be trusted. Host runtimes never touch clusters and
    /// stay cached. Analytic and co-simulated backends hold no offload
    /// cache; the call is a no-op there.
    pub fn invalidate_measurements(&mut self) {
        if let ServiceBackend::Measured { offload_cache, .. } = self {
            offload_cache.clear();
        }
    }

    /// Cycles one offload of `kernel` over `n` elements takes on the
    /// partition `mask`.
    ///
    /// # Errors
    ///
    /// Offload failures from the measured backend (e.g. a partition too
    /// small for the job's TCDM footprint).
    pub fn offload_cycles(
        &mut self,
        kernel: KernelId,
        n: u64,
        mask: ClusterMask,
    ) -> Result<u64, SchedError> {
        let m = mask.count();
        match self {
            ServiceBackend::Measured {
                offloader,
                seed,
                strategy,
                offload_cache,
                ..
            } => {
                if let Some(&cycles) = offload_cache.get(&(kernel, n, m)) {
                    return Ok(cycles);
                }
                let (x, y) = operands(n, *seed ^ n);
                let run =
                    offloader.offload_to(kernel.instantiate().as_ref(), &x, &y, mask, *strategy)?;
                let cycles = run.cycles();
                offload_cache.insert((kernel, n, m), cycles);
                Ok(cycles)
            }
            ServiceBackend::Analytic { table } => {
                Ok(table.get(kernel).accel.predict(m as u64, n).ceil() as u64)
            }
            ServiceBackend::CoSimulated { .. } => unreachable!(
                "co-simulated service times emerge from the engine's shared session, \
                 not from per-job charges"
            ),
        }
    }

    /// Cycles one host execution of `kernel` over `n` elements takes.
    ///
    /// # Errors
    ///
    /// Host-run failures from the measured backend.
    pub fn host_cycles(&mut self, kernel: KernelId, n: u64) -> Result<u64, SchedError> {
        match self {
            ServiceBackend::Measured {
                offloader,
                seed,
                host_cache,
                ..
            }
            | ServiceBackend::CoSimulated {
                offloader,
                seed,
                host_cache,
                ..
            } => {
                if let Some(&cycles) = host_cache.get(&(kernel, n)) {
                    return Ok(cycles);
                }
                let (x, y) = operands(n, *seed ^ n);
                let (cycles, _) = offloader.run_on_host(kernel.instantiate().as_ref(), &x, &y)?;
                host_cache.insert((kernel, n), cycles);
                Ok(cycles)
            }
            ServiceBackend::Analytic { table } => {
                Ok(table.get(kernel).host.predict(n).ceil() as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernels::Kernel;
    use mpsoc_offload::{OffloadError, SessionStep};
    use mpsoc_soc::SocConfig;

    #[test]
    fn measured_backend_memoizes_by_count_not_mask() {
        let mut backend = ServiceBackend::measured(
            Offloader::new(SocConfig::with_clusters(8)).expect("soc"),
            0xBEEF,
        );
        let low = ClusterMask::first(2);
        let mut high = ClusterMask::EMPTY;
        high.insert(5);
        high.insert(7);
        let a = backend
            .offload_cycles(KernelId::Daxpy, 512, low)
            .expect("offload");
        let b = backend
            .offload_cycles(KernelId::Daxpy, 512, high)
            .expect("offload");
        assert_eq!(a, b);
        match &backend {
            ServiceBackend::Measured { offload_cache, .. } => {
                assert_eq!(offload_cache.len(), 1)
            }
            _ => unreachable!(),
        }
    }

    /// The mask-blind cache key is *sound*, not just convenient: two
    /// fresh backends (no memoization between them) measuring the same
    /// `(kernel, N, M)` on different equal-size partitions — the bottom
    /// of the machine vs a scattered high mask — report the identical
    /// cycle count, because clusters are symmetric and a solo run sees
    /// no cross-tenant traffic. (The previous version of this test
    /// compared two calls on *one* backend, which the cache made
    /// tautological.)
    #[test]
    fn placement_does_not_change_solo_measured_timing() {
        let measure = |mask: ClusterMask| {
            let mut backend = ServiceBackend::measured(
                Offloader::new(SocConfig::with_clusters(8)).expect("soc"),
                0xBEEF,
            );
            backend
                .offload_cycles(KernelId::Daxpy, 512, mask)
                .expect("offload")
        };
        let low = measure(ClusterMask::first(2));
        let scattered = measure([3, 6].into_iter().collect());
        let high = measure(ClusterMask::range(6, 2));
        assert_eq!(low, scattered);
        assert_eq!(low, high);
    }

    fn co_simulated() -> ServiceBackend {
        let offloader = Offloader::new(SocConfig::with_clusters(8)).expect("soc");
        let mut backend = ServiceBackend::co_simulated(offloader, 0xBEEF);
        backend.session().begin_jobs();
        backend
    }

    /// Submits one job to a co-simulated backend, runs it to completion
    /// and checks its result against the kernel's golden reference.
    fn submit_and_verify(backend: &mut ServiceBackend, kernel: KernelId, n: u64, m: usize) {
        let job = backend
            .submit_at(kernel, n, ClusterMask::first(m), Cycle::ZERO)
            .expect("submit");
        let SessionStep::Completed(done) = backend
            .session()
            .advance_jobs(Cycle::new(u64::MAX))
            .expect("advance")
        else {
            panic!("{kernel} n={n} m={m} did not complete");
        };
        assert_eq!(done.job, job);
        let (x, y) = operands(n, 0xBEEF ^ n);
        let report = done.run.verify(kernel.instantiate().as_ref(), &x, &y);
        assert!(report.passed(), "{kernel} n={n} m={m}: {report}");
    }

    /// Staging builds each (kernel, core slice) program once: every
    /// memoized program equals a fresh build for its slice, and a second
    /// identical submit builds no new program.
    #[test]
    fn co_simulated_staging_builds_each_program_once() {
        let mut backend = co_simulated();
        for kernel in KernelId::ALL {
            for n in [1, 7, 256, 4096] {
                for m in [1, 3, 8] {
                    submit_and_verify(&mut backend, kernel, n, m);
                    let ServiceBackend::CoSimulated { kernels, .. } = &backend else {
                        unreachable!("a co-simulated backend");
                    };
                    let built = kernels[&kernel].programs();
                    assert!(built > 0, "{kernel} n={n} m={m}");
                    submit_and_verify(&mut backend, kernel, n, m);
                    let ServiceBackend::CoSimulated { kernels, .. } = &backend else {
                        unreachable!("a co-simulated backend");
                    };
                    assert_eq!(kernels[&kernel].programs(), built, "{kernel} n={n} m={m}");
                }
            }
            let ServiceBackend::CoSimulated { kernels, .. } = &backend else {
                unreachable!("a co-simulated backend");
            };
            let (memo, fresh) = (&kernels[&kernel], kernel.instantiate());
            let slices = memo.slices();
            for slice in &slices {
                assert_eq!(
                    memo.codegen(slice).expect("memoized"),
                    fresh.codegen(slice).expect("fresh"),
                    "{kernel} {slice:?}"
                );
            }
            assert_eq!(memo.programs(), slices.len());
        }
    }

    /// A job far past main memory gets the typed main-memory error
    /// before its operands are built: at n = 2^40 they would be two
    /// 8 TiB vectors.
    #[test]
    fn co_simulated_submit_refuses_a_job_past_main_memory_before_its_operands() {
        let mut backend = co_simulated();
        let n = 1u64 << 40;
        let err = backend
            .submit_at(KernelId::Daxpy, n, ClusterMask::first(1), Cycle::ZERO)
            .expect_err("a job past main memory");
        let ServiceBackend::CoSimulated {
            offloader,
            operand_cache,
            ..
        } = &backend
        else {
            unreachable!("a co-simulated backend");
        };
        let capacity = offloader.soc().map().main_words();
        match err {
            SchedError::Offload(OffloadError::MainMemoryOverflow {
                required,
                capacity: reported,
            }) => {
                assert_eq!((required, reported), (1024 + 2 * n, capacity));
            }
            other => panic!("expected a main-memory error, got {other:?}"),
        }
        assert!(operand_cache.is_empty());
    }

    #[test]
    fn analytic_matches_model_predictions() {
        let table = ModelTable::paper_defaults();
        let expected = table.get(KernelId::Daxpy).accel.predict(4, 1024).ceil() as u64;
        let mut backend = ServiceBackend::analytic(table);
        let got = backend
            .offload_cycles(KernelId::Daxpy, 1024, ClusterMask::first(4))
            .expect("analytic");
        assert_eq!(got, expected);
        let host = backend.host_cycles(KernelId::Daxpy, 1024).expect("host");
        assert!(host > got, "host must be slower at this size");
    }
}
