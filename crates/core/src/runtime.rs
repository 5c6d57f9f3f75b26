//! The offload runtime: stages host programs and cluster jobs on the
//! SoC, runs them and extracts results.

use mpsoc_kernels::partition::split_even;
use mpsoc_kernels::{GoldenOutput, Kernel, KernelKind};
use mpsoc_mem::ClusterReg;
use mpsoc_noc::ClusterMask;
use mpsoc_sim::Cycle;
use mpsoc_soc::{
    ClusterJob, CompletionSignal, ContentionReport, HostOp, HostProgram, JobId, JobStage,
    OffloadOutcome, SessionProgress, Soc, SocConfig, Transfer,
};
use serde::{Deserialize, Serialize};

use crate::layout::{JobGeometry, MainLayout};
use crate::strategy::{DispatchStrategy, SyncStrategy};
use crate::verify::VerifyReport;
use crate::{OffloadError, OffloadStrategy};

/// Cycle costs of the host-side runtime routines (the software half of
/// the co-design).
///
/// Defaults are calibrated so the extended configuration's constant
/// offload overhead lands near the paper's 367 cycles (see
/// `EXPERIMENTS.md` for the fitted values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeCosts {
    /// Argument marshalling before the descriptor is written.
    pub marshal_cycles: u64,
    /// Loop bookkeeping per cluster in the sequential dispatch loop.
    pub dispatch_loop_cycles: u64,
    /// Interrupt service routine (credit-counter completion path).
    pub isr_cycles: u64,
    /// Spin-loop overhead per software-barrier polling iteration.
    pub spin_cycles: u64,
    /// Barrier-exit bookkeeping after the poll hits.
    pub barrier_exit_cycles: u64,
    /// Host cycles per reduction partial during the combine step.
    pub combine_per_partial_cycles: u64,
}

impl Default for RuntimeCosts {
    fn default() -> Self {
        RuntimeCosts {
            marshal_cycles: 93,
            dispatch_loop_cycles: 6,
            isr_cycles: 62,
            spin_cycles: 4,
            barrier_exit_cycles: 18,
            combine_per_partial_cycles: 3,
        }
    }
}

/// The computed result extracted from main memory after an offload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OffloadResult {
    /// The output `y` vector of a map kernel.
    Vector(Vec<f64>),
    /// The combined scalar of a reduce kernel.
    Scalar(f64),
}

impl OffloadResult {
    /// Verifies this result against the kernel's golden reference over
    /// the original operands (see [`OffloadRun::verify`]).
    pub fn verify(&self, kernel: &dyn Kernel, x: &[f64], y: &[f64]) -> VerifyReport {
        match (kernel.golden(x, y), self) {
            (GoldenOutput::Vector(want), OffloadResult::Vector(got)) => {
                VerifyReport::compare_vectors(got, &want, 0.0)
            }
            (GoldenOutput::Scalar(want), OffloadResult::Scalar(got)) => {
                VerifyReport::compare_scalars(*got, want, 1e-9)
            }
            (GoldenOutput::Vector(want), OffloadResult::Scalar(_)) => {
                VerifyReport::compare_vectors(&[], &want, 0.0)
            }
            (GoldenOutput::Scalar(want), OffloadResult::Vector(_)) => {
                VerifyReport::compare_scalars(f64::NAN, want, 1e-9)
            }
        }
    }
}

/// One completed offload: measurement plus result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OffloadRun {
    /// Timing, energy and per-cluster reports from the SoC.
    pub outcome: OffloadOutcome,
    /// The computed result.
    pub result: OffloadResult,
    /// Problem size.
    pub n: u64,
    /// Clusters employed.
    pub m: usize,
    /// Strategy used.
    pub strategy: OffloadStrategy,
}

impl OffloadRun {
    /// End-to-end runtime in cycles (== nanoseconds at 1 GHz).
    pub fn cycles(&self) -> u64 {
        self.outcome.total.as_u64()
    }

    /// Verifies the result against the kernel's golden reference.
    ///
    /// Map kernels must match bitwise (the simulated FPU and the
    /// reference both use fused multiply-add); reductions are compared
    /// with a relative tolerance because the combination order differs.
    pub fn verify(&self, kernel: &dyn Kernel, x: &[f64], y: &[f64]) -> VerifyReport {
        self.result.verify(kernel, x, y)
    }
}

/// One tenant's completed offload from a concurrent session
/// ([`Offloader::submit_at`] / [`Offloader::advance_jobs`]): the
/// [`OffloadRun`] measured *in company* — its `outcome.total` includes
/// every cycle spent queueing for the shared host core and every
/// contention-stretched phase — plus the SoC's per-job interference
/// attribution.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The job handle returned by [`Offloader::submit_at`].
    pub job: JobId,
    /// When the job was submitted (session virtual time).
    pub submitted_at: Cycle,
    /// When the job's host program retired (session virtual time).
    pub finished_at: Cycle,
    /// Cycles the job's host phases queued behind other tenants on the
    /// serial host core.
    pub host_wait_cycles: u64,
    /// Shared-resource interference (NoC stall, HBM queueing, AMO wait)
    /// attributed to this job.
    pub contention: ContentionReport,
    /// Bitmask of the job's clusters whose DMA engine flagged a CRC
    /// mismatch — the architecturally visible corruption signal the
    /// self-healing runtime retries on. Zero on every fault-free run.
    pub corrupt_clusters: u64,
    /// Injected faults attributed to this job (diagnostic ground truth;
    /// recovery keys off observable signals only).
    pub faults_injected: u64,
    /// The measurement and result, timestamps relative to submission.
    pub run: OffloadRun,
}

/// What one [`Offloader::advance_jobs`] step produced.
#[derive(Debug)]
pub enum SessionStep {
    /// A tenant finished; its completed run.
    Completed(Box<TenantRun>),
    /// The horizon was reached with jobs still in flight.
    Horizon,
    /// No jobs are in flight and no events remain.
    Idle,
}

/// A job staged on the SoC: where its result is read back from once it
/// finishes, and what its run reports.
#[derive(Debug)]
struct StagedJob {
    layout: MainLayout,
    kind: KernelKind,
    n: u64,
    m: usize,
    partial_slots: u64,
    strategy: OffloadStrategy,
}

impl StagedJob {
    /// Reads the finished job's result back from main memory (the output
    /// vector of a map kernel, the summed partials of a reduction) and
    /// pairs it with the SoC's measurement.
    fn read_back(&self, soc: &Soc, outcome: OffloadOutcome) -> Result<OffloadRun, OffloadError> {
        let store = soc.main().store();
        let result = match self.kind {
            KernelKind::Map => OffloadResult::Vector(store.read_f64_slice(self.layout.y, self.n)?),
            KernelKind::Reduce => OffloadResult::Scalar(
                store
                    .read_f64_slice(self.layout.partials, self.partial_slots)?
                    .iter()
                    .sum(),
            ),
        };
        Ok(OffloadRun {
            outcome,
            result,
            n: self.n,
            m: self.m,
            strategy: self.strategy,
        })
    }
}

/// A job that passed every check staging makes before it writes
/// anything: where its operands and control block go in main memory,
/// and how its clusters lay it out in TCDM.
struct Plan {
    layout: MainLayout,
    geometry: JobGeometry,
    /// Reduction partials the host combines (0 for map kernels).
    partial_slots: u64,
}

/// Bookkeeping for a submitted-but-not-yet-collected tenant job.
#[derive(Debug)]
struct PendingJob {
    job: JobId,
    region_word: u64,
    staged: StagedJob,
}

/// The offload runtime: owns a simulated SoC and runs kernels on it.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug)]
pub struct Offloader {
    soc: Soc,
    /// In-flight session jobs awaiting completion.
    pending: Vec<PendingJob>,
    /// Live main-memory regions `(start_word, words)`, sorted by start:
    /// the deterministic first-fit allocator for concurrent tenants.
    regions: Vec<(u64, u64)>,
    /// Per-cluster fault-implication strikes accumulated by the
    /// self-healing path (see [`Offloader::offload_resilient`]).
    pub(crate) strikes: Vec<u32>,
    /// Clusters quarantined after reaching the strike limit; excluded
    /// from every future resilient dispatch.
    pub(crate) quarantined: ClusterMask,
}

impl Offloader {
    /// Builds an offloader on a fresh SoC.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Soc`] for an invalid configuration.
    pub fn new(config: SocConfig) -> Result<Self, OffloadError> {
        let clusters = config.clusters;
        Ok(Offloader {
            soc: Soc::new(config)?,
            pending: Vec::new(),
            regions: Vec::new(),
            strikes: vec![0; clusters],
            quarantined: ClusterMask::default(),
        })
    }

    /// The SoC configuration in effect.
    pub fn config(&self) -> &SocConfig {
        self.soc.config()
    }

    /// The underlying SoC (inspection, tracing).
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Mutable access to the underlying SoC (e.g. enabling traces).
    pub fn soc_mut(&mut self) -> &mut Soc {
        &mut self.soc
    }

    /// Offloads `kernel` over operands `x`/`y` to the first `m` clusters
    /// using `strategy`, returning the measurement and the result.
    ///
    /// # Errors
    ///
    /// Size/geometry violations ([`OffloadError::TooManyClusters`],
    /// [`OffloadError::TcdmOverflow`], ...) and SoC execution failures.
    pub fn offload(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        m: usize,
        strategy: OffloadStrategy,
    ) -> Result<OffloadRun, OffloadError> {
        self.offload_pipelined(kernel, x, y, m, strategy, 1)
    }

    /// Executes `kernel` entirely on the host core (no offload): the
    /// CVA6-class scalar pipeline runs the same micro-op program a
    /// single worker core would, over cached main-memory data. This is
    /// the measured counterpart of
    /// [`decision::HostModel`](crate::decision::HostModel), used by the
    /// break-even analysis.
    ///
    /// # Errors
    ///
    /// Operand mismatches, an image past main memory (see
    /// [`Offloader::check_host`]) and core faults.
    pub fn run_on_host(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
    ) -> Result<(u64, OffloadResult), OffloadError> {
        self.check_host(kernel, x.len() as u64, y.len() as u64)?;
        let n = y.len() as u64;
        // Flat image: [left halo] x [right halo], y, out slot
        // (reductions), args + zero word. Halo slots stay zero — the
        // job-boundary semantics of stencil kernels.
        let halo = kernel.x_halo() as usize;
        let x_words = x.len() + 2 * halo;
        let out_word = x_words + y.len();
        let args_word = out_word + 1;
        let args = kernel.scalar_args();
        let mut image = vec![0.0; args_word + args.len() + 1];
        image[halo..halo + x.len()].copy_from_slice(x);
        image[x_words..x_words + y.len()].copy_from_slice(y);
        image[args_word..args_word + args.len()].copy_from_slice(&args);

        let slice = mpsoc_kernels::CoreSlice {
            elems: n,
            x_base: (halo * 8) as u64,
            y_base: (x_words * 8) as u64,
            out_base: match kernel.kind() {
                KernelKind::Map => (x_words * 8) as u64,
                KernelKind::Reduce => (out_word * 8) as u64,
            },
            args_base: (args_word * 8) as u64,
            core_index: 0,
        };
        let program = kernel.codegen(&slice)?;
        let mut port = mpsoc_isa::VecPort::new(image);
        let report = mpsoc_isa::Interpreter::with_timing(mpsoc_isa::CoreTiming::cva6())
            .run(&program, &mut port)
            .map_err(|error| {
                OffloadError::Soc(mpsoc_soc::SocError::Core {
                    cluster: usize::MAX,
                    core: 0,
                    error,
                })
            })?;
        let result = match kernel.kind() {
            KernelKind::Map => {
                OffloadResult::Vector(port.data()[x_words..x_words + y.len()].to_vec())
            }
            KernelKind::Reduce => OffloadResult::Scalar(port.data()[out_word]),
        };
        Ok((report.finish.as_u64(), result))
    }

    /// Checks a host run of `kernel` over `x_len` words of `x` and
    /// `y_len` of `y`, as [`Offloader::run_on_host`] checks it, without
    /// the operands: the operand lengths, then that the run's flat image
    /// (`x` with its halos, `y`, the out slot, the scalar arguments and
    /// the zero word) fits in [`SocConfig::main_words`]. A caller that
    /// still has to build the operands can refuse a run here first,
    /// however large it is.
    ///
    /// [`SocConfig::main_words`]: mpsoc_soc::SocConfig::main_words
    ///
    /// # Errors
    ///
    /// [`OffloadError::OperandMismatch`], then
    /// [`OffloadError::MainMemoryOverflow`].
    pub fn check_host(
        &self,
        kernel: &dyn Kernel,
        x_len: u64,
        y_len: u64,
    ) -> Result<(), OffloadError> {
        if y_len.checked_mul(kernel.x_words_per_elem()) != Some(x_len) {
            return Err(OffloadError::OperandMismatch {
                x_len: x_len as usize,
                y_len: y_len as usize,
            });
        }
        let required = x_len
            .saturating_add(kernel.x_halo().saturating_mul(2))
            .saturating_add(y_len)
            .saturating_add(1)
            .saturating_add(kernel.scalar_args().len() as u64 + 1);
        let capacity = self.soc.config().main_words;
        if required > capacity {
            return Err(OffloadError::MainMemoryOverflow { required, capacity });
        }
        Ok(())
    }

    /// Offloads a *map* kernel with a software-pipelined (double-buffered)
    /// cluster schedule: each cluster's slice is split into `stages`
    /// sub-slices that alternate between two TCDM buffers, so stage
    /// `k+1`'s DMA-in overlaps stage `k`'s compute and data movement
    /// hides behind arithmetic. An extension beyond the paper's runtime
    /// (whose clusters execute DMA-in → compute → DMA-out sequentially).
    ///
    /// With `stages == 1` this is [`Offloader::offload`].
    ///
    /// # Errors
    ///
    /// [`OffloadError::PipelineUnsupported`] for reduce kernels (their
    /// accumulator spans the whole slice) and halo kernels when
    /// `stages > 1`, plus everything [`Offloader::offload`] can return.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn offload_pipelined(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        m: usize,
        strategy: OffloadStrategy,
        stages: usize,
    ) -> Result<OffloadRun, OffloadError> {
        assert!(stages > 0, "need at least one pipeline stage");
        if stages > 1 && (kernel.kind() != KernelKind::Map || kernel.x_halo() != 0) {
            return Err(OffloadError::PipelineUnsupported {
                kernel: kernel.name().to_owned(),
            });
        }
        let available = self.soc.config().clusters;
        if m > available {
            return Err(OffloadError::TooManyClusters {
                requested: m,
                available,
            });
        }
        self.offload_blocking(kernel, x, y, ClusterMask::first(m), strategy, stages)
    }

    /// Offloads to an arbitrary set of clusters (e.g. the upper half of
    /// the machine while the lower half runs another tenant's job).
    ///
    /// Every blocking offload runs alone in a fresh SoC session, so it
    /// ends any session opened with [`Offloader::begin_jobs`]: jobs still
    /// in flight there are dropped and never complete.
    ///
    /// # Errors
    ///
    /// As [`Offloader::offload`].
    pub fn offload_to(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        mask: ClusterMask,
        strategy: OffloadStrategy,
    ) -> Result<OffloadRun, OffloadError> {
        self.offload_blocking(kernel, x, y, mask, strategy, 1)
    }

    /// Checks a blocking offload of `kernel` over `x_len` words of `x`
    /// and `y_len` of `y` to `mask`, as [`Offloader::offload_to`] plans
    /// it, without the operands and without changing anything: the
    /// partition and the operands against the job, its main-memory
    /// layout at the start of main memory, and its TCDM geometry. A
    /// caller that still has to build the operands can refuse a job here
    /// first, however large it is.
    ///
    /// # Errors
    ///
    /// The first error [`Offloader::offload_to`] would return before it
    /// writes the operands.
    pub fn check_offload(
        &self,
        kernel: &dyn Kernel,
        x_len: u64,
        y_len: u64,
        mask: ClusterMask,
    ) -> Result<(), OffloadError> {
        self.plan(kernel, x_len, y_len, mask, 0, 1).map(drop)
    }

    /// The blocking offload: stages the job at the start of main memory,
    /// runs it alone on the SoC and reads its result back.
    fn offload_blocking(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        mask: ClusterMask,
        strategy: OffloadStrategy,
        stages: usize,
    ) -> Result<OffloadRun, OffloadError> {
        let plan = self.plan(kernel, x.len() as u64, y.len() as u64, mask, 0, stages)?;
        let (program, staged) = self.stage(kernel, x, y, mask, strategy, plan)?;
        // `run_offload` opens a fresh SoC session: any open one ends here.
        self.pending.clear();
        self.regions.clear();
        let outcome = self.soc.run_offload(program, mask)?;
        staged.read_back(&self.soc, outcome)
    }

    /// Opens a concurrent-job session: resets the SoC's virtual time,
    /// shared-resource models and statistics, and clears the runtime's
    /// region allocator. Jobs are then placed with
    /// [`Offloader::submit_at`] and driven with
    /// [`Offloader::advance_jobs`]; tenants on disjoint cluster
    /// partitions overlap in time on the shared NoC, HBM and host core.
    pub fn begin_jobs(&mut self) {
        self.soc.begin_jobs();
        self.pending.clear();
        self.regions.clear();
    }

    /// Submits `kernel` over `x`/`y` to the clusters in `mask` at
    /// session time `at` (clamped forward to "now"), returning a job
    /// handle. The job's operands live in a private main-memory region
    /// (deterministic first-fit), so concurrent tenants never alias.
    ///
    /// # Errors
    ///
    /// Everything [`Offloader::offload_to`] can return, plus
    /// [`mpsoc_soc::SocError::PartitionOverlap`] (via
    /// [`OffloadError::Soc`]) when `mask` intersects a tenant still in
    /// flight, and [`OffloadError::MainMemoryOverflow`] when no region
    /// fits between the live tenants.
    ///
    /// The overlap is checked first: a submit that overlaps a live
    /// tenant and is also invalid in another way (an empty or
    /// out-of-range mask, mismatched operands, a slice too large for
    /// TCDM, no free region) returns `PartitionOverlap`. A rejected
    /// submit writes, binds and allocates nothing, so the tenants in
    /// flight run on undisturbed. [`Offloader::check_submit`] runs the
    /// same checks, in the same order, without the operands.
    pub fn submit_at(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        mask: ClusterMask,
        strategy: OffloadStrategy,
        at: Cycle,
    ) -> Result<JobId, OffloadError> {
        let (x_len, y_len) = (x.len() as u64, y.len() as u64);
        let (region_word, plan) = self.plan_submit(kernel, x_len, y_len, mask)?;
        self.alloc_region(region_word, MainLayout::region_words(x_len, y_len));
        let submitted =
            self.stage(kernel, x, y, mask, strategy, plan)
                .and_then(|(program, staged)| {
                    let job = self.soc.submit_job(program, mask, at)?;
                    Ok(PendingJob {
                        job,
                        region_word,
                        staged,
                    })
                });
        match submitted {
            Ok(pending) => {
                let job = pending.job;
                self.pending.push(pending);
                Ok(job)
            }
            Err(e) => {
                self.free_region(region_word);
                Err(e)
            }
        }
    }

    /// Advances the session until a tenant completes, the event queue
    /// drains, or virtual time would pass `horizon`. On completion the
    /// tenant's result is read back from its region and the region is
    /// freed for later submissions.
    ///
    /// # Errors
    ///
    /// Fatal SoC execution errors and result read-back failures.
    pub fn advance_jobs(&mut self, horizon: Cycle) -> Result<SessionStep, OffloadError> {
        match self.soc.advance_jobs(horizon)? {
            SessionProgress::Completed(c) => {
                let at = self
                    .pending
                    .iter()
                    .position(|p| p.job == c.job)
                    .expect("completion for a job this runtime never submitted");
                let p = self.pending.remove(at);
                self.free_region(p.region_word);
                let run = p.staged.read_back(&self.soc, c.outcome)?;
                Ok(SessionStep::Completed(Box::new(TenantRun {
                    job: c.job,
                    submitted_at: c.submitted_at,
                    finished_at: c.finished_at,
                    host_wait_cycles: c.host_wait_cycles,
                    contention: c.contention,
                    corrupt_clusters: c.corrupt_clusters,
                    faults_injected: c.faults_injected,
                    run,
                })))
            }
            SessionProgress::Horizon => Ok(SessionStep::Horizon),
            SessionProgress::Idle => Ok(SessionStep::Idle),
        }
    }

    /// Current session virtual time.
    pub fn session_now(&self) -> Cycle {
        self.soc.session_now()
    }

    /// Jobs submitted but not yet completed.
    pub fn jobs_in_flight(&self) -> usize {
        self.soc.jobs_in_flight()
    }

    /// Checks a session submission of `kernel` over `x_len` words of `x`
    /// and `y_len` of `y` to `mask`, as [`Offloader::submit_at`] would
    /// check it, without the operands and without changing anything:
    /// the partition against the tenants in flight, then a main-memory
    /// region, then the partition and the operands against the job, then
    /// the job's TCDM geometry. A caller that still has to build the
    /// operands can refuse a job here first, however large it is.
    ///
    /// # Errors
    ///
    /// The first error [`Offloader::submit_at`] would return before it
    /// writes the operands.
    pub fn check_submit(
        &self,
        kernel: &dyn Kernel,
        x_len: u64,
        y_len: u64,
        mask: ClusterMask,
    ) -> Result<(), OffloadError> {
        self.plan_submit(kernel, x_len, y_len, mask).map(drop)
    }

    /// The checks of [`Offloader::check_submit`]; on success, the region
    /// word first-fit places the job at, and its plan there.
    fn plan_submit(
        &self,
        kernel: &dyn Kernel,
        x_len: u64,
        y_len: u64,
        mask: ClusterMask,
    ) -> Result<(u64, Plan), OffloadError> {
        // Staging binds a job to every cluster of `mask`, which would
        // replace a live tenant's job before the SoC could refuse it.
        self.soc.check_partition(mask)?;
        let region_word = self.first_fit(MainLayout::region_words(x_len, y_len))?;
        let plan = self.plan(kernel, x_len, y_len, mask, region_word, 1)?;
        Ok((region_word, plan))
    }

    /// Where first-fit over the live-region list (kept sorted by start
    /// word) places a region of `words`, deterministically.
    fn first_fit(&self, words: u64) -> Result<u64, OffloadError> {
        let capacity = self.soc.map().main_words();
        let mut start = 0u64;
        for &(live_start, live_words) in &self.regions {
            if start.saturating_add(words) <= live_start {
                break;
            }
            start = live_start + live_words;
        }
        let required = start.saturating_add(words);
        if required > capacity {
            return Err(OffloadError::MainMemoryOverflow { required, capacity });
        }
        Ok(start)
    }

    /// Claims the region of `words` at `start` that
    /// [`Offloader::first_fit`] found.
    fn alloc_region(&mut self, start: u64, words: u64) {
        let at = self
            .regions
            .iter()
            .position(|&(s, _)| s > start)
            .unwrap_or(self.regions.len());
        self.regions.insert(at, (start, words));
    }

    fn free_region(&mut self, start: u64) {
        self.regions.retain(|&(s, _)| s != start);
    }

    /// Plans a job of `kernel` over `x_len` words of `x` and `y_len` of
    /// `y` on `mask`: checks the mask and the operand lengths, and plans
    /// the job's main-memory region at `region_word` and its TCDM
    /// geometry for `stages` pipeline stages. Every offload path plans
    /// through here before it writes anything.
    fn plan(
        &self,
        kernel: &dyn Kernel,
        x_len: u64,
        y_len: u64,
        mask: ClusterMask,
        region_word: u64,
        stages: usize,
    ) -> Result<Plan, OffloadError> {
        let m = mask.count();
        if m == 0 {
            return Err(OffloadError::NoClusters);
        }
        let available = self.soc.config().clusters;
        if mask.highest().expect("non-empty") >= available {
            return Err(OffloadError::TooManyClusters {
                requested: mask.highest().expect("non-empty") + 1,
                available,
            });
        }
        // The job size is the output length; `x` must hold
        // `x_words_per_elem` words per element (1 for vector kernels,
        // `K` for matrix kernels like GEMV).
        let n = y_len;
        let x_words = n * kernel.x_words_per_elem();
        if x_len != x_words {
            return Err(OffloadError::OperandMismatch {
                x_len: x_len as usize,
                y_len: y_len as usize,
            });
        }
        let cores = self.soc.config().cores_per_cluster;
        // Only reductions leave per-core partials in main memory.
        let partial_slots = match kernel.kind() {
            KernelKind::Map => 0,
            KernelKind::Reduce => (m * cores) as u64,
        };
        let layout = MainLayout::plan(self.soc.map(), region_word, x_words, n, partial_slots)?;
        let geometry =
            JobGeometry::plan(kernel, n, m, cores, stages, self.soc.config().tcdm_words)?;
        Ok(Plan {
            layout,
            geometry,
            partial_slots,
        })
    }

    /// Stages one planned job on the SoC, ready to run: writes the
    /// operands, binds one cluster job per cluster of `mask` and builds
    /// the host program. Every offload path stages through here.
    fn stage(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        mask: ClusterMask,
        strategy: OffloadStrategy,
        plan: Plan,
    ) -> Result<(HostProgram, StagedJob), OffloadError> {
        let Plan {
            layout,
            geometry,
            partial_slots,
        } = plan;
        let n = y.len() as u64;
        let cores = self.soc.config().cores_per_cluster;

        // Load operands (zero-time test-bench initialization, as the
        // paper's measurements also exclude input generation). The
        // reserved zero word feeds halo zero-fills at job edges.
        let store = self.soc.main_mut().store_mut();
        store.write_f64_slice(layout.x, x)?;
        store.write_f64_slice(layout.y, y)?;
        store.write_u64(layout.zero, 0)?;

        // Bind one job per selected cluster; the job geometry is indexed
        // by *position* within the mask, not by cluster id.
        for (position, cluster) in mask.iter().enumerate() {
            let job = cluster_job(kernel, &geometry, position, &layout, n, cores, strategy)?;
            self.soc.bind_job(cluster, job);
        }

        let program = self.build_host_program(kernel, &layout, n, mask, cores, strategy);
        let staged = StagedJob {
            layout,
            kind: kernel.kind(),
            n,
            m: mask.count(),
            partial_slots,
            strategy,
        };
        Ok((program, staged))
    }

    fn build_host_program(
        &self,
        kernel: &dyn Kernel,
        layout: &MainLayout,
        n: u64,
        mask: ClusterMask,
        cores: usize,
        strategy: OffloadStrategy,
    ) -> HostProgram {
        let costs = RuntimeCosts::default();
        let m = mask.count();
        let mut ops = Vec::new();

        // 1. Marshal the job descriptor and write it out.
        ops.push(HostOp::Compute(costs.marshal_cycles));
        let args = kernel.scalar_args();
        let desc_len = self.soc.config().descriptor_words as usize;
        let mut desc = vec![0u64; desc_len];
        desc[0] = layout.x.as_u64();
        if desc_len > 1 {
            desc[1] = layout.y.as_u64();
        }
        if desc_len > 2 {
            desc[2] = m as u64;
        }
        for (i, a) in args.iter().enumerate() {
            if 3 + i < desc_len {
                desc[3 + i] = a.to_bits();
            }
        }
        ops.push(HostOp::WriteWords {
            addr: layout.desc,
            values: desc,
        });

        // 2. Serial operand preparation (the paper's N/4 data term):
        //    flush inputs to accelerator-visible memory and
        //    allocate/invalidate the output lines.
        let in_words = kernel.dma_in_words(n);
        let out_words = kernel.dma_out_words(n, (m * cores) as u64);
        ops.push(HostOp::PrepareOperands {
            words: in_words + out_words,
        });

        // 3. Prepare the synchronization mechanism.
        match strategy.sync {
            SyncStrategy::CreditCounter => {
                ops.push(HostOp::CreditArm {
                    threshold: m as u64,
                });
            }
            SyncStrategy::SoftwareBarrier => {
                ops.push(HostOp::StoreUncachedMain {
                    addr: layout.barrier,
                    value: 0,
                });
            }
        }

        // 4. Dispatch.
        match strategy.dispatch {
            DispatchStrategy::Multicast => {
                ops.push(HostOp::MulticastMailbox {
                    mask,
                    reg: ClusterReg::JobPtr,
                    value: layout.desc.as_u64(),
                });
                ops.push(HostOp::MulticastMailbox {
                    mask,
                    reg: ClusterReg::Wakeup,
                    value: 1,
                });
            }
            DispatchStrategy::Sequential => {
                for cluster in mask.iter() {
                    ops.push(HostOp::Compute(costs.dispatch_loop_cycles));
                    ops.push(HostOp::StoreMailbox {
                        cluster,
                        reg: ClusterReg::JobPtr,
                        value: layout.desc.as_u64(),
                    });
                    ops.push(HostOp::StoreMailbox {
                        cluster,
                        reg: ClusterReg::Wakeup,
                        value: 1,
                    });
                }
            }
        }

        // 5. Wait for completion.
        match strategy.sync {
            SyncStrategy::CreditCounter => {
                ops.push(HostOp::WaitIrq);
                ops.push(HostOp::Compute(costs.isr_cycles));
            }
            SyncStrategy::SoftwareBarrier => {
                ops.push(HostOp::PollUntilEq {
                    addr: layout.barrier,
                    value: m as u64,
                    spin_cycles: costs.spin_cycles,
                });
                ops.push(HostOp::Compute(costs.barrier_exit_cycles));
            }
        }

        // 6. Reductions: combine per-core partials on the host.
        if kernel.kind() == KernelKind::Reduce {
            let partials = (m * cores) as u64;
            ops.push(HostOp::Compute(costs.combine_per_partial_cycles * partials));
        }

        ops.push(HostOp::End);
        HostProgram::new(ops)
    }
}

/// Builds the job of the cluster at `position` in the mask. Its chunk
/// splits into `geometry.stages` sub-slices that alternate between the
/// TCDM buffers; each stage fetches its sub-slice in, runs one
/// `split_even` slice of it per worker core and writes the result back.
/// One stage is the paper's DMA-in → compute → DMA-out; with more, stage
/// `k+1`'s DMA-in overlaps stage `k`'s compute. Halo zero-fills and
/// reduction partials only occur in one-stage jobs.
fn cluster_job(
    kernel: &dyn Kernel,
    geometry: &JobGeometry,
    position: usize,
    layout: &MainLayout,
    n: u64,
    cores: usize,
    strategy: OffloadStrategy,
) -> Result<ClusterJob, OffloadError> {
    let chunk = geometry.clusters[position];
    let tcdm = &geometry.tcdm[position];
    let wpe = kernel.x_words_per_elem();
    let halo = kernel.x_halo();
    debug_assert!(
        halo == 0 || wpe == 1,
        "halos are only supported for one-word-per-element kernels"
    );

    let mut stages = Vec::with_capacity(geometry.stages);
    for (k, sub) in split_even(chunk.count, geometry.stages)
        .into_iter()
        .enumerate()
    {
        let buffer = tcdm.buffer(k);
        let start = chunk.start + sub.start;
        let end = start + sub.count;

        let mut dma_in = Vec::new();
        if kernel.uses_x() && sub.count > 0 {
            // Fetch the slice plus as much halo as exists in the job;
            // job-edge halo slots are zero-filled from the reserved word.
            let fetch_start = start.saturating_sub(halo);
            let fetch_end = (end + halo).min(n);
            let left_missing = halo - (start - fetch_start);
            let right_missing = halo - (fetch_end - end);
            let right_word = buffer.x_word + left_missing + (fetch_end - fetch_start);
            let zero_fill = |local_word| Transfer {
                main_addr: layout.zero,
                local_word,
                words: 1,
            };
            dma_in.extend((0..left_missing).map(|i| zero_fill(buffer.x_word + i)));
            dma_in.push(Transfer {
                main_addr: layout.x.add_words(fetch_start * wpe),
                local_word: buffer.x_word + left_missing,
                words: (fetch_end - fetch_start) * wpe,
            });
            dma_in.extend((0..right_missing).map(|i| zero_fill(right_word + i)));
        }
        if kernel.uses_y() && sub.count > 0 {
            dma_in.push(Transfer {
                main_addr: layout.y.add_words(start),
                local_word: buffer.y_word,
                words: sub.count,
            });
        }

        let mut dma_out = Vec::new();
        match kernel.kind() {
            KernelKind::Map => {
                if sub.count > 0 {
                    dma_out.push(Transfer {
                        main_addr: layout.y.add_words(start),
                        local_word: buffer.y_word,
                        words: sub.count,
                    });
                }
            }
            KernelKind::Reduce => {
                dma_out.push(Transfer {
                    main_addr: layout.partials.add_words((position * cores) as u64),
                    local_word: buffer.out_word,
                    words: cores as u64,
                });
            }
        }

        let programs = split_even(sub.count, cores)
            .into_iter()
            .enumerate()
            .map(|(core, slice)| kernel.codegen(&buffer.core_slice(kernel, core, slice)))
            .collect::<Result<Vec<_>, _>>()?;

        stages.push(JobStage {
            dma_in,
            programs,
            dma_out,
        });
    }

    let completion = match strategy.sync {
        SyncStrategy::CreditCounter => CompletionSignal::Credit,
        SyncStrategy::SoftwareBarrier => CompletionSignal::Barrier {
            addr: layout.barrier,
        },
    };
    Ok(ClusterJob {
        stages,
        args: kernel.scalar_args(),
        args_local_word: tcdm.args_word,
        completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernels::{Daxpy, Dot, Memset};

    fn offloader(clusters: usize) -> Offloader {
        Offloader::new(SocConfig::with_clusters(clusters)).unwrap()
    }

    fn ramp(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.25).collect();
        let y: Vec<f64> = (0..n).map(|i| 10.0 - (i % 31) as f64).collect();
        (x, y)
    }

    #[test]
    fn daxpy_round_trip_both_strategies() {
        let mut off = offloader(4);
        let kernel = Daxpy::new(2.5);
        let (x, y) = ramp(256);
        for strategy in [OffloadStrategy::baseline(), OffloadStrategy::extended()] {
            let run = off.offload(&kernel, &x, &y, 4, strategy).unwrap();
            let report = run.verify(&kernel, &x, &y);
            assert!(report.passed(), "{strategy}: {report}");
            assert!(run.cycles() > 0);
            assert_eq!(run.n, 256);
            assert_eq!(run.m, 4);
        }
    }

    #[test]
    fn extended_beats_baseline() {
        let mut off = offloader(8);
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(1024);
        let base = off
            .offload(&kernel, &x, &y, 8, OffloadStrategy::baseline())
            .unwrap();
        let ext = off
            .offload(&kernel, &x, &y, 8, OffloadStrategy::extended())
            .unwrap();
        assert!(
            ext.cycles() < base.cycles(),
            "extended {} should beat baseline {}",
            ext.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn reduce_kernel_combines_partials() {
        let mut off = offloader(4);
        let kernel = Dot::new();
        let (x, y) = ramp(512);
        let run = off
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();
        let report = run.verify(&kernel, &x, &y);
        assert!(report.passed(), "{report}");
        match run.result {
            OffloadResult::Scalar(s) => assert!(s.is_finite()),
            OffloadResult::Vector(_) => panic!("dot must produce a scalar"),
        }
    }

    #[test]
    fn memset_requires_no_input_streams() {
        let mut off = offloader(2);
        let kernel = Memset::new(7.5);
        let (x, y) = ramp(128);
        let run = off
            .offload(&kernel, &x, &y, 2, OffloadStrategy::extended())
            .unwrap();
        assert!(run.verify(&kernel, &x, &y).passed());
    }

    #[test]
    fn geometry_errors_are_surfaced() {
        let mut off = offloader(2);
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(64);
        assert!(matches!(
            off.offload(&kernel, &x, &y, 3, OffloadStrategy::extended()),
            Err(OffloadError::TooManyClusters { .. })
        ));
        assert!(matches!(
            off.offload(&kernel, &x, &y, 0, OffloadStrategy::extended()),
            Err(OffloadError::NoClusters)
        ));
        assert!(matches!(
            off.offload(&kernel, &x[..10], &y, 2, OffloadStrategy::extended()),
            Err(OffloadError::OperandMismatch { .. })
        ));
    }

    #[test]
    fn repeated_offloads_are_deterministic() {
        let mut off = offloader(4);
        let kernel = Daxpy::new(3.0);
        let (x, y) = ramp(512);
        let a = off
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();
        let b = off
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn session_single_tenant_matches_blocking_offload() {
        let kernel = Daxpy::new(2.5);
        let (x, y) = ramp(256);
        let mut legacy = offloader(4);
        let want = legacy
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();

        let mut off = offloader(4);
        off.begin_jobs();
        let job = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::first(4),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        let done = match off.advance_jobs(Cycle::MAX).unwrap() {
            SessionStep::Completed(t) => t,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(done.job, job);
        assert_eq!(done.run.cycles(), want.cycles());
        assert_eq!(done.run.result, want.result);
        assert_eq!(done.host_wait_cycles, 0);
        assert!(matches!(
            off.advance_jobs(Cycle::MAX).unwrap(),
            SessionStep::Idle
        ));
        assert_eq!(off.jobs_in_flight(), 0);
    }

    #[test]
    fn concurrent_tenants_verify_and_interfere() {
        let kernel = Daxpy::new(1.5);
        let (x, y) = ramp(512);
        // Solo reference on the same partition shape.
        let mut solo = offloader(4);
        let solo_run = solo
            .offload_to(
                &kernel,
                &x,
                &y,
                ClusterMask::range(2, 2),
                OffloadStrategy::extended(),
            )
            .unwrap();

        let mut off = offloader(4);
        off.begin_jobs();
        let a = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::first(2),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        let b = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::range(2, 2),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        assert_eq!(off.jobs_in_flight(), 2);
        let mut done = Vec::new();
        while let SessionStep::Completed(t) = off.advance_jobs(Cycle::MAX).unwrap() {
            done.push(*t);
        }
        assert_eq!(done.len(), 2);
        for t in &done {
            assert!(t.run.verify(&kernel, &x, &y).passed(), "job {}", t.job);
        }
        let b_run = done.iter().find(|t| t.job == b).unwrap();
        let a_run = done.iter().find(|t| t.job == a).unwrap();
        // The second tenant queued behind the first on the serial host.
        assert!(b_run.host_wait_cycles > 0);
        assert!(b_run.run.cycles() > solo_run.cycles());
        assert!(a_run.run.cycles() >= solo_run.cycles());
    }

    /// `check_submit` runs `submit_at`'s own checks in its order: on
    /// every submit it returns what `submit_at` returns, error for error,
    /// and it changes nothing, so the region first-fit picks and the
    /// live tenant are the same after it.
    #[test]
    fn check_submit_answers_as_submit_at_does() {
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(128);
        let tcdm_words = SocConfig::with_clusters(4).tcdm_words as usize;
        let (big_x, big_y) = ramp(tcdm_words);
        let strategy = OffloadStrategy::extended();
        let mut off = offloader(4);
        off.begin_jobs();
        off.submit_at(
            &kernel,
            &x,
            &y,
            ClusterMask::first(1),
            strategy,
            Cycle::ZERO,
        )
        .unwrap();
        let cases: [(&[f64], &[f64], ClusterMask); 7] = [
            (&x, &y, ClusterMask::first(2)),
            (&x[1..], &y, ClusterMask::range(1, 8)),
            (&x, &y, ClusterMask::EMPTY),
            (&x, &y, ClusterMask::range(2, 4)),
            (&x[1..], &y, ClusterMask::range(1, 2)),
            (&big_x, &big_y, ClusterMask::range(1, 1)),
            (&x, &y, ClusterMask::range(1, 3)),
        ];
        for (x, y, mask) in cases {
            let checked = off.check_submit(&kernel, x.len() as u64, y.len() as u64, mask);
            let submitted = off
                .submit_at(&kernel, x, y, mask, strategy, Cycle::ZERO)
                .map(drop);
            assert_eq!(format!("{checked:?}"), format!("{submitted:?}"), "{mask:?}");
        }
        // Sizes no operand vector could have are refused, not overflowed.
        let (capacity, mask) = (off.soc().map().main_words(), ClusterMask::range(1, 3));
        off.begin_jobs();
        for (len, required) in [(1u64 << 40, 1024 + (2u64 << 40)), (u64::MAX, u64::MAX)] {
            let err = off.check_submit(&kernel, len, len, mask).unwrap_err();
            assert!(
                matches!(
                    err,
                    OffloadError::MainMemoryOverflow { required: r, capacity: c }
                        if (r, c) == (required, capacity)
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn session_rejects_overlapping_partitions_and_recovers() {
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(128);
        // Both sync mechanisms: a rebound credit-counter tenant completes
        // with a wrong result, a rebound barrier tenant never completes.
        for strategy in [OffloadStrategy::baseline(), OffloadStrategy::extended()] {
            let mut off = offloader(4);
            off.begin_jobs();
            let first = off
                .submit_at(
                    &kernel,
                    &x,
                    &y,
                    ClusterMask::first(2),
                    strategy,
                    Cycle::ZERO,
                )
                .unwrap();
            let err = off
                .submit_at(
                    &kernel,
                    &x,
                    &y,
                    ClusterMask::first(4),
                    strategy,
                    Cycle::ZERO,
                )
                .unwrap_err();
            assert!(matches!(
                err,
                OffloadError::Soc(mpsoc_soc::SocError::PartitionOverlap { cluster: 0 })
            ));
            // The overlap is reported ahead of every staging error.
            let err = off
                .submit_at(
                    &kernel,
                    &x[1..],
                    &y,
                    ClusterMask::range(1, 8),
                    strategy,
                    Cycle::ZERO,
                )
                .unwrap_err();
            assert!(matches!(
                err,
                OffloadError::Soc(mpsoc_soc::SocError::PartitionOverlap { cluster: 1 })
            ));
            // The failed submissions released their regions: a disjoint
            // tenant still fits and the session drains cleanly.
            off.submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::range(2, 2),
                strategy,
                Cycle::ZERO,
            )
            .unwrap();
            let mut done = Vec::new();
            while let SessionStep::Completed(t) = off.advance_jobs(Cycle::new(2_000_000)).unwrap() {
                done.push(*t);
            }
            assert_eq!(done.len(), 2, "{strategy:?}");
            assert_eq!(off.jobs_in_flight(), 0);
            assert!(done.iter().any(|t| t.job == first), "{strategy:?}");
            for t in &done {
                assert!(
                    t.run.verify(&kernel, &x, &y).passed(),
                    "{strategy:?}: job {} (first tenant {first})",
                    t.job
                );
            }
        }
    }

    /// A DMA chain with nothing else due before its next burst runs that
    /// burst inline; concurrent chains interleave cycle by cycle, so
    /// every one of their bursts still goes through the event queue.
    #[test]
    fn solo_dma_chains_run_their_bursts_inline() {
        let kernel = Daxpy::new(2.0);
        let (x, y) = ramp(1024);
        let mut off = offloader(8);
        let counts = |off: &mut Offloader, m: usize| {
            let run = off
                .offload(&kernel, &x, &y, m, OffloadStrategy::extended())
                .unwrap();
            assert!(run.verify(&kernel, &x, &y).passed());
            (run.outcome.events_delivered, off.soc().events_popped())
        };
        assert_eq!(counts(&mut off, 1), (210, 20));
        assert_eq!(counts(&mut off, 8), (266, 266));
    }

    #[test]
    fn region_allocator_is_first_fit_and_reuses_freed_space() {
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(64);
        let mut off = offloader(4);
        off.begin_jobs();
        let first = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::single(0),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        assert_eq!(off.regions.len(), 1);
        let (first_start, span) = off.regions[0];
        assert_eq!(first_start, 0);
        let _second = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::single(1),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        assert_eq!(
            off.regions[1].0, span,
            "second tenant packs after the first"
        );
        // Drain the first completion, then a third tenant reuses slot 0.
        let done = loop {
            match off.advance_jobs(Cycle::MAX).unwrap() {
                SessionStep::Completed(t) => break t,
                SessionStep::Horizon => continue,
                SessionStep::Idle => panic!("jobs still pending"),
            }
        };
        assert_eq!(done.job, first);
        let at = off.session_now();
        off.submit_at(
            &kernel,
            &x,
            &y,
            ClusterMask::single(2),
            OffloadStrategy::extended(),
            at,
        )
        .unwrap();
        assert_eq!(off.regions[0].0, 0, "freed head region is reused first");
    }

    #[test]
    fn blocking_offload_ends_the_open_session() {
        let daxpy = Daxpy::new(1.5);
        let mut off = offloader(4);
        off.begin_jobs();
        let (xa, ya) = ramp(300);
        let a = off
            .submit_at(
                &daxpy,
                &xa,
                &ya,
                ClusterMask::first(2),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        let (xd, yd) = ramp(200);
        let dot = off
            .offload(&Dot::new(), &xd, &yd, 4, OffloadStrategy::extended())
            .unwrap();
        assert!(dot.verify(&Dot::new(), &xd, &yd).passed());
        // The blocking offload dropped job `a`; the next submission opens
        // on a clean slate and is the only job that completes.
        let x: Vec<f64> = (0..128).map(|i| i as f64 * 0.5 - 7.0).collect();
        let y: Vec<f64> = (0..128).map(|i| 3.0 - i as f64).collect();
        let c = off
            .submit_at(
                &daxpy,
                &x,
                &y,
                ClusterMask::first(2),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        let done = match off.advance_jobs(Cycle::MAX).unwrap() {
            SessionStep::Completed(t) => t,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!((a, c), (1, 1), "the blocking offload restarted job ids");
        assert_eq!(done.job, c);
        assert_eq!(done.run.n, 128);
        let report = done.run.verify(&daxpy, &x, &y);
        assert!(report.passed(), "{report}");
        assert!(matches!(
            off.advance_jobs(Cycle::MAX).unwrap(),
            SessionStep::Idle
        ));
    }

    #[test]
    fn uneven_sizes_still_verify() {
        let mut off = offloader(4);
        let kernel = Daxpy::new(-0.5);
        for n in [1usize, 7, 63, 100, 257, 1000] {
            let (x, y) = ramp(n);
            let run = off
                .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
                .unwrap();
            assert!(
                run.verify(&kernel, &x, &y).passed(),
                "n={n} failed verification"
            );
        }
    }
}
