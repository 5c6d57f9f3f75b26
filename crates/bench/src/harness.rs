//! The experiment harness: owns one simulated SoC and runs the paper's
//! experiments on it.

use mpsoc_kernels::{Axpby, Daxpy, Dot, Gemv, Kernel, Memset, Scale, Sum, VecAdd};
use mpsoc_offload::{
    decision::min_clusters, mape, OffloadError, OffloadStrategy, Offloader, RuntimeModel, Sample,
};
use mpsoc_sim::rng::SplitMix64;
use mpsoc_soc::SocConfig;

use crate::results::{
    AblationRow, DecisionRow, Fig1LeftRow, Fig1RightRow, Headline, KernelSweepRow, MapeRow,
    ModelFitResult,
};
use crate::{FIG1_RIGHT_N, FIT_N, MAPE_N, PAPER_M};

/// Generates deterministic operand vectors for a run.
fn operands(n: u64, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let mut x = vec![0.0; n as usize];
    let mut y = vec![0.0; n as usize];
    rng.fill_f64(&mut x, -4.0, 4.0);
    rng.fill_f64(&mut y, -4.0, 4.0);
    (x, y)
}

/// Runs the paper's experiments on one simulated Manticore-class SoC.
///
/// # Example
///
/// ```
/// use mpsoc_bench::Harness;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut harness = Harness::new()?;
/// let headline = harness.headline()?;
/// assert!(headline.improvement_pct > 30.0, "the co-design must pay off");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Harness {
    offloader: Offloader,
    seed: u64,
}

impl Harness {
    /// Builds a harness on the calibrated 32-cluster Manticore preset.
    ///
    /// # Errors
    ///
    /// Propagates SoC construction failures.
    pub fn new() -> Result<Self, OffloadError> {
        Self::with_config(SocConfig::manticore())
    }

    /// Builds a harness on an explicit SoC configuration.
    ///
    /// # Errors
    ///
    /// Propagates SoC construction failures.
    pub fn with_config(config: SocConfig) -> Result<Self, OffloadError> {
        Ok(Harness {
            offloader: Offloader::new(config)?,
            seed: 0xDA7E_2024,
        })
    }

    /// The underlying offloader.
    pub fn offloader_mut(&mut self) -> &mut Offloader {
        &mut self.offloader
    }

    /// Measures one DAXPY offload runtime in cycles.
    ///
    /// # Errors
    ///
    /// Propagates offload failures.
    pub fn measure_daxpy(
        &mut self,
        n: u64,
        m: usize,
        strategy: OffloadStrategy,
    ) -> Result<u64, OffloadError> {
        let kernel = Daxpy::new(2.0);
        let (x, y) = operands(n, self.seed ^ n);
        let run = self.offloader.offload(&kernel, &x, &y, m, strategy)?;
        debug_assert!(run.verify(&kernel, &x, &y).passed());
        Ok(run.cycles())
    }

    /// **Fig. 1 (left)**: runtime of a 1024-element DAXPY for `M ∈
    /// {1,2,4,8,16,32}`, baseline vs extended.
    ///
    /// # Errors
    ///
    /// Propagates offload failures.
    pub fn fig1_left(&mut self) -> Result<Vec<Fig1LeftRow>, OffloadError> {
        let n = 1024;
        PAPER_M
            .iter()
            .map(|&m| {
                Ok(Fig1LeftRow {
                    m,
                    baseline: self.measure_daxpy(n, m, OffloadStrategy::baseline())?,
                    extended: self.measure_daxpy(n, m, OffloadStrategy::extended())?,
                })
            })
            .collect()
    }

    /// **Fig. 1 (right)**: speedup of the extensions over the baseline
    /// for `N ∈ {1024, 2048, 4096, 8192}` × `M ∈ {1,2,4,8,16,32}`.
    ///
    /// # Errors
    ///
    /// Propagates offload failures.
    pub fn fig1_right(&mut self) -> Result<Vec<Fig1RightRow>, OffloadError> {
        let mut rows = Vec::new();
        for &n in &FIG1_RIGHT_N {
            for &m in &PAPER_M {
                let baseline = self.measure_daxpy(n, m, OffloadStrategy::baseline())?;
                let extended = self.measure_daxpy(n, m, OffloadStrategy::extended())?;
                rows.push(Fig1RightRow {
                    n,
                    m,
                    baseline,
                    extended,
                    speedup: baseline as f64 / extended as f64,
                });
            }
        }
        Ok(rows)
    }

    /// **Headline**: the maximum improvement on the 1024-element DAXPY
    /// (paper: 47.9% at M=32, a gap of more than 300 cycles).
    ///
    /// # Errors
    ///
    /// Propagates offload failures.
    pub fn headline(&mut self) -> Result<Headline, OffloadError> {
        let (n, m) = (1024, 32);
        let baseline = self.measure_daxpy(n, m, OffloadStrategy::baseline())?;
        let extended = self.measure_daxpy(n, m, OffloadStrategy::extended())?;
        Ok(Headline {
            n,
            m,
            baseline,
            extended,
            improvement_pct: (baseline as f64 / extended as f64 - 1.0) * 100.0,
            gap_cycles: baseline as i64 - extended as i64,
        })
    }

    /// Collects extended-runtime samples over a grid, for model fitting.
    ///
    /// # Errors
    ///
    /// Propagates offload failures.
    fn collect_samples(&mut self, ns: &[u64], ms: &[usize]) -> Result<Vec<Sample>, OffloadError> {
        let mut samples = Vec::with_capacity(ns.len() * ms.len());
        for &n in ns {
            for &m in ms {
                let cycles = self.measure_daxpy(n, m, OffloadStrategy::extended())?;
                samples.push(Sample {
                    m: m as u64,
                    n,
                    cycles: cycles as f64,
                });
            }
        }
        Ok(samples)
    }

    /// **Eq. 1**: fits the runtime model to measurements on the training
    /// grid (problem sizes disjoint from the validation grid).
    ///
    /// # Errors
    ///
    /// Propagates offload and fit failures.
    pub fn model_fit(&mut self) -> Result<ModelFitResult, Box<dyn std::error::Error>> {
        let samples = self.collect_samples(&FIT_N, &PAPER_M)?;
        let report = RuntimeModel::fit(&samples)?;
        Ok(ModelFitResult {
            fitted: report.model,
            paper: RuntimeModel::paper(),
            r_squared: report.r_squared,
            max_abs_pct_err: report.max_abs_pct_err,
            samples: report.samples,
        })
    }

    /// **Eq. 2**: validates the fitted model on the paper's grid
    /// (`N ∈ {256, 512, 768, 1024}`, `M ∈ {1,2,4,8,16,32}`), reporting
    /// MAPE(N) — the paper observes < 1% everywhere.
    ///
    /// Returns the fitted model and one row per problem size.
    ///
    /// # Errors
    ///
    /// Propagates offload and fit failures.
    pub fn mape_table(
        &mut self,
    ) -> Result<(RuntimeModel, Vec<MapeRow>), Box<dyn std::error::Error>> {
        let fit = self.model_fit()?;
        let mut rows = Vec::new();
        for &n in &MAPE_N {
            let samples = self.collect_samples(&[n], &PAPER_M)?;
            rows.push(MapeRow {
                n,
                mape_pct: mape(&fit.fitted, &samples),
                points: samples.len(),
            });
        }
        Ok((fit.fitted, rows))
    }

    /// **Eq. 3**: solves the offload decision for a grid of deadlines and
    /// validates each decision against simulation: the deadline must be
    /// met at `M_min` (within `tolerance_pct` of model error) and missed
    /// at `M_min − 1`.
    ///
    /// # Errors
    ///
    /// Propagates offload and fit failures.
    pub fn decision_table(
        &mut self,
        tolerance_pct: f64,
    ) -> Result<(RuntimeModel, Vec<DecisionRow>), Box<dyn std::error::Error>> {
        let fit = self.model_fit()?;
        let model = fit.fitted;
        let mut rows = Vec::new();
        for &n in &[256u64, 1024, 4096] {
            let t1 = model.predict(1, n);
            let t32 = model.predict(32, n);
            // Deadlines spanning infeasible → trivially feasible.
            let deadlines = [
                t32 * 0.9,
                t32 * 1.002,
                (t32 + t1) / 2.0,
                t1 * 0.95,
                t1 * 1.05,
            ];
            for &t_max in &deadlines {
                let m_min = min_clusters(&model, n, t_max).filter(|&m| m <= 32);
                let mut simulated_at_m_min: Option<u64> = None;
                let mut simulated_below = None;
                let mut confirmed = true;
                if let Some(m) = m_min {
                    let at = self.measure_daxpy(n, m as usize, OffloadStrategy::extended())?;
                    simulated_at_m_min = Some(at);
                    // Deadline met within the model's tolerance.
                    confirmed &= (at as f64) <= t_max * (1.0 + tolerance_pct / 100.0);
                    if m > 1 {
                        let below =
                            self.measure_daxpy(n, (m - 1) as usize, OffloadStrategy::extended())?;
                        simulated_below = Some(below);
                        confirmed &= (below as f64) > t_max * (1.0 - tolerance_pct / 100.0);
                    }
                } else {
                    // Model says infeasible (or needs > 32 clusters): even
                    // the full machine must miss the deadline.
                    let full = self.measure_daxpy(n, 32, OffloadStrategy::extended())?;
                    confirmed = (full as f64) > t_max * (1.0 - tolerance_pct / 100.0);
                    simulated_below = Some(full);
                }
                rows.push(DecisionRow {
                    n,
                    t_max,
                    m_min,
                    simulated_at_m_min,
                    simulated_below,
                    confirmed,
                });
            }
        }
        Ok((model, rows))
    }

    /// **Ablation**: each co-design ingredient in isolation
    /// (dispatch × sync grid) on the 1024-element DAXPY.
    ///
    /// # Errors
    ///
    /// Propagates offload failures.
    pub fn ablation(&mut self) -> Result<Vec<AblationRow>, OffloadError> {
        let mut rows = Vec::new();
        for strategy in OffloadStrategy::all() {
            for &m in &PAPER_M {
                let cycles = self.measure_daxpy(1024, m, strategy)?;
                rows.push(AblationRow {
                    strategy: strategy.to_string(),
                    m,
                    cycles,
                });
            }
        }
        Ok(rows)
    }

    /// **Break-even analysis** (the paper's introduction: "determining if
    /// a portion of the workload can benefit or not from offloading"):
    /// fits the accelerator model, then computes and simulates the
    /// smallest problem size at which offloading beats host execution.
    ///
    /// # Errors
    ///
    /// Propagates offload and fit failures.
    pub fn breakeven(
        &mut self,
    ) -> Result<Vec<crate::results::BreakEvenRow>, Box<dyn std::error::Error>> {
        use mpsoc_offload::decision::{break_even_n, HostModel};
        let fit = self.model_fit()?;

        // Fit the host model from two *simulated* host executions of the
        // same kernel on the CVA6-class scalar pipeline.
        let kernel = Daxpy::new(2.0);
        let host_cycles_at = |h: &mut Harness, n: u64| -> Result<u64, OffloadError> {
            let (x, y) = operands(n, h.seed ^ n ^ 0xB0);
            let (cycles, _) = h.offloader.run_on_host(&kernel, &x, &y)?;
            Ok(cycles)
        };
        let (n_a, n_b) = (256u64, 2048u64);
        let t_a = host_cycles_at(self, n_a)? as f64;
        let t_b = host_cycles_at(self, n_b)? as f64;
        let c_elem = (t_b - t_a) / (n_b - n_a) as f64;
        let host = HostModel {
            c0: t_a - c_elem * n_a as f64,
            c_elem,
        };

        let mut rows = Vec::new();
        for &m in &PAPER_M {
            let n_star = break_even_n(&host, &fit.fitted, m as u64)
                .expect("the calibrated accelerator eventually wins");
            let accel_cycles = self.measure_daxpy(n_star, m, OffloadStrategy::extended())?;
            let host_measured = host_cycles_at(self, n_star)?;
            rows.push(crate::results::BreakEvenRow {
                m,
                break_even_n: n_star,
                accel_cycles,
                host_cycles: host_measured as f64,
            });
        }
        Ok(rows)
    }

    /// **Energy sweep**: runtime and energy estimate of the 1024-element
    /// DAXPY across strategies and cluster counts (the paper motivates
    /// the co-design by energy as well as runtime).
    ///
    /// # Errors
    ///
    /// Propagates offload failures.
    pub fn energy_sweep(&mut self) -> Result<Vec<crate::results::EnergyRow>, OffloadError> {
        let kernel = Daxpy::new(2.0);
        let n = 1024u64;
        let (x, y) = operands(n, self.seed ^ n);
        let mut rows = Vec::new();
        for strategy in [OffloadStrategy::baseline(), OffloadStrategy::extended()] {
            for &m in &PAPER_M {
                let run = self.offloader.offload(&kernel, &x, &y, m, strategy)?;
                rows.push(crate::results::EnergyRow {
                    strategy: strategy.to_string(),
                    m,
                    cycles: run.cycles(),
                    total_pj: run.outcome.energy.total_pj(),
                    idle_pj: run.outcome.energy.idle_pj,
                    sync_pj: run.outcome.energy.sync_pj,
                });
            }
        }
        Ok(rows)
    }

    /// **Kernel sweep**: refits the Eq. 1-form model for every kernel in
    /// the zoo and verifies every offload, demonstrating the model's
    /// generality beyond DAXPY.
    ///
    /// # Errors
    ///
    /// Propagates offload and fit failures.
    pub fn kernel_sweep(&mut self) -> Result<Vec<KernelSweepRow>, Box<dyn std::error::Error>> {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Daxpy::new(2.0)),
            Box::new(Axpby::new(1.5, -0.5)),
            Box::new(Scale::new(3.0)),
            Box::new(VecAdd::new()),
            Box::new(Memset::new(1.25)),
            Box::new(Dot::new()),
            Box::new(Sum::new()),
            Box::new(Gemv::new(vec![0.5, -1.0, 2.0, 0.25])),
        ];
        let fit_ns = [384u64, 640, 1280, 2560];
        let val_ns = [512u64, 1024, 2048];
        let mut rows = Vec::new();
        for kernel in &kernels {
            let mut all_verified = true;
            let mut measure = |h: &mut Harness, n: u64, m: usize| -> Result<f64, OffloadError> {
                let seed = h.seed ^ n ^ (m as u64) << 32;
                let mut rng = SplitMix64::new(seed);
                let mut x = vec![0.0; (n * kernel.x_words_per_elem()) as usize];
                let mut y = vec![0.0; n as usize];
                rng.fill_f64(&mut x, -4.0, 4.0);
                rng.fill_f64(&mut y, -4.0, 4.0);
                let run =
                    h.offloader
                        .offload(kernel.as_ref(), &x, &y, m, OffloadStrategy::extended())?;
                if !run.verify(kernel.as_ref(), &x, &y).passed() {
                    all_verified = false;
                }
                Ok(run.cycles() as f64)
            };
            let mut fit_samples = Vec::new();
            for &n in &fit_ns {
                for &m in &PAPER_M {
                    fit_samples.push(Sample {
                        m: m as u64,
                        n,
                        cycles: measure(self, n, m)?,
                    });
                }
            }
            let report = RuntimeModel::fit(&fit_samples)?;
            let extended = mpsoc_offload::ExtendedModel::fit(&fit_samples)?;
            let mut val_samples = Vec::new();
            for &n in &val_ns {
                for &m in &PAPER_M {
                    val_samples.push(Sample {
                        m: m as u64,
                        n,
                        cycles: measure(self, n, m)?,
                    });
                }
            }
            rows.push(KernelSweepRow {
                kernel: kernel.name().to_owned(),
                fitted: report.model,
                r_squared: report.r_squared,
                mape_pct: mape(&report.model, &val_samples),
                extended: extended.model,
                mape_extended_pct: mape(&extended.model, &val_samples),
                all_verified,
            });
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small-geometry harness so unit tests stay fast; full-size runs
    /// are exercised by `all_experiments` and the integration tests.
    fn small() -> Harness {
        Harness::with_config(SocConfig::with_clusters(8)).unwrap()
    }

    #[test]
    fn measure_daxpy_is_deterministic() {
        let _serial = crate::simulating();
        let mut h = small();
        let a = h
            .measure_daxpy(512, 8, OffloadStrategy::extended())
            .unwrap();
        let b = h
            .measure_daxpy(512, 8, OffloadStrategy::extended())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn collect_samples_covers_grid() {
        let _serial = crate::simulating();
        let mut h = small();
        let samples = h.collect_samples(&[256, 512], &[1, 2, 4]).unwrap();
        assert_eq!(samples.len(), 6);
        assert!(samples.iter().all(|s| s.cycles > 0.0));
    }

    #[test]
    fn operand_generation_is_seeded() {
        let (x1, y1) = operands(64, 42);
        let (x2, y2) = operands(64, 42);
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
        let (x3, _) = operands(64, 43);
        assert_ne!(x1, x3);
    }
}
