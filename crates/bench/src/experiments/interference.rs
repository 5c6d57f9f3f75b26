//! Interference study: co-resident DAXPY tenants on disjoint cluster
//! partitions of one bandwidth-constrained SoC, swept over tenant count
//! × offered load × problem size:
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     --only interference [--smoke] [--out <dir> | --replay <dir>]
//! ```
//!
//! Every tenant runs a closed-loop stream of DAXPY offloads on its own
//! partition of the *shared* SoC (one NoC switch tree, one HBM
//! bandwidth/AMO model, one serial host core), driven through the
//! concurrent-session API. The study reports, per configuration, the
//! solo service time (same partition size, otherwise-idle SoC), the
//! mean shared service time, the slowdown, and how much of the
//! slowdown the SoC's per-job `contention.*` attribution (NoC stall +
//! HBM queueing + AMO wait + host-queue wait) accounts for.
//!
//! The full sweep then refits the paper's Eq. 1 with a contention term,
//!
//! ```text
//! t̂(M, N, T) = c₀ + c_mem·N + c_comp·N/M + c_int·N·(T − 1)
//! ```
//!
//! and compares its MAPE against the contention-blind three-parameter
//! fit on the same co-resident samples.
//!
//! The study asserts its own headline claims — every result verifies
//! against the golden reference, at least one two-tenant configuration
//! makes *every* co-resident measurably slower than solo with the
//! slowdown accounted by the tagged contention counters, and (full
//! sweep) `c_int > 0` with a strictly better MAPE — and exits non-zero
//! otherwise, so CI can use `--smoke` as a determinism-checked smoke
//! test. The command line and the report's life cycle are
//! [`crate::study`]'s.

use std::collections::BTreeMap;
use std::error::Error;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_kernels::{Daxpy, Kernel};
use mpsoc_offload::{ClusterMask, JobId, OffloadStrategy, Offloader, SessionStep};
use mpsoc_sim::rng::SplitMix64;
use mpsoc_sim::Cycle;
use mpsoc_soc::SocConfig;
use serde::Serialize;

/// Operand seed; runs are deterministic in it.
const SEED: u64 = 0x1A7E_2FEE;
/// HBM words per cycle — deliberately scarce so co-resident DMA and
/// host marshalling traffic queue against each other (the default SoC
/// provisions 512).
const MEM_WORDS_PER_CYCLE: u64 = 8;
/// Host marshalling throughput, similarly constrained (default 12).
const HOST_PREP_WORDS_PER_CYCLE: u64 = 4;

/// One `(tenants, partition size, N, load)` cell of the sweep.
#[derive(Debug, Clone, Serialize)]
struct InterferenceRow {
    /// Co-resident tenants.
    tenants: usize,
    /// Clusters per tenant partition.
    clusters_per_tenant: usize,
    /// DAXPY problem size per job.
    n: u64,
    /// Offered load per tenant (fraction of its solo service rate).
    load: f64,
    /// Jobs each tenant streamed.
    jobs_per_tenant: usize,
    /// Solo service time on an otherwise-idle SoC, same partition size.
    solo_cycles: u64,
    /// Contention a *solo* job already attributes to itself (its own
    /// DMA bursts queue behind its own reserved HBM bandwidth on this
    /// deliberately scarce configuration); the interference signal is
    /// the excess over this baseline.
    solo_contention_cycles: f64,
    /// Mean service time across all tenants' jobs in company.
    mean_service_cycles: f64,
    /// Mean service time of the *least*-slowed tenant — when even this
    /// exceeds solo, every co-resident is measurably slower.
    best_tenant_mean_cycles: f64,
    /// Mean service time of the most-slowed tenant.
    worst_tenant_mean_cycles: f64,
    /// `mean_service_cycles / solo_cycles`.
    slowdown: f64,
    /// Mean per-job NoC-stall + HBM-queue + AMO-wait attribution.
    mean_contention_cycles: f64,
    /// Mean per-job wait for the serial host core.
    mean_host_wait_cycles: f64,
    /// Fraction of the per-job slowdown (shared − solo service cycles)
    /// covered by the *excess* contention attribution (shared − solo
    /// contention, plus host-queue wait); can exceed 1 because queue
    /// cycles of overlapping requests are summed per request, not
    /// critical-pathed. 1.0 when there is no slowdown to explain.
    accounted_fraction: f64,
}

/// Eq. 1 refit with the contention term, against the plain fit.
#[derive(Debug, Clone, Serialize)]
struct ContentionFit {
    /// Fixed offload cost (cycles).
    c0: f64,
    /// Per-element memory-movement cost.
    c_mem: f64,
    /// Per-element-per-cluster compute cost.
    c_comp: f64,
    /// Per-element cost of each *additional* co-resident tenant.
    c_int: f64,
    /// MAPE of the four-parameter model over the co-resident samples.
    mape_with_contention: f64,
    /// MAPE of the contention-blind `t̂(M, N)` fit on the same samples.
    mape_without_contention: f64,
}

/// The JSON artifact.
#[derive(Debug, Serialize)]
struct InterferenceReport {
    clusters: usize,
    mem_words_per_cycle: u64,
    host_prep_words_per_cycle: u64,
    seed: u64,
    smoke: bool,
    rows: Vec<InterferenceRow>,
    /// `None` in smoke mode (too few samples to pose the fit).
    fit: Option<ContentionFit>,
}

/// Aggregates from one shared-session run.
struct SharedOutcome {
    per_tenant_mean: Vec<f64>,
    mean_service: f64,
    mean_contention: f64,
    mean_host_wait: f64,
}

/// One tenant's job stream: what every co-resident submits and how
/// often.
struct Stream<'a> {
    kernel: &'a Daxpy,
    x: &'a [f64],
    y: &'a [f64],
    /// Nominal interarrival gap (cycles) between a tenant's jobs.
    gap: u64,
    jobs_per_tenant: usize,
}

/// Streams `jobs_per_tenant` DAXPYs per tenant through one shared
/// session: tenant `t` owns clusters `[t·m, (t+1)·m)`, submits job `j`
/// at the later of its nominal arrival `j·gap` and its previous
/// completion (a tenant never overlaps itself — the SoC would reject
/// the partition), and every completion is verified against the golden
/// reference.
fn run_shared(
    config: &SocConfig,
    tenants: usize,
    m: usize,
    stream: &Stream<'_>,
) -> Result<SharedOutcome, Box<dyn std::error::Error>> {
    let &Stream {
        kernel,
        x,
        y,
        gap,
        jobs_per_tenant,
    } = stream;
    let mut off = Offloader::new(config.clone())?;
    off.begin_jobs();
    let mut owner: BTreeMap<JobId, usize> = BTreeMap::new();
    let mut submitted = vec![0usize; tenants];
    let mut busy = vec![false; tenants];
    let mut next_free = vec![0u64; tenants];
    let mut services: Vec<Vec<u64>> = vec![Vec::new(); tenants];
    let mut contention = 0u64;
    let mut host_wait = 0u64;
    let total = tenants * jobs_per_tenant;
    let mut done = 0usize;
    while done < total {
        for t in 0..tenants {
            if !busy[t] && submitted[t] < jobs_per_tenant {
                let nominal = submitted[t] as u64 * gap;
                let at = Cycle::new(nominal.max(next_free[t]));
                let mask = ClusterMask::range(t * m, m);
                let job = off.submit_at(kernel, x, y, mask, OffloadStrategy::extended(), at)?;
                owner.insert(job, t);
                submitted[t] += 1;
                busy[t] = true;
            }
        }
        match off.advance_jobs(Cycle::MAX)? {
            SessionStep::Completed(run) => {
                let t = owner
                    .remove(&run.job)
                    .expect("completion for a submitted job");
                busy[t] = false;
                next_free[t] = run.finished_at.as_u64();
                services[t].push(run.run.cycles());
                contention += run.contention.total_cycles();
                host_wait += run.host_wait_cycles;
                assert!(
                    run.run.verify(kernel, x, y).passed(),
                    "tenant {t} result must verify in company"
                );
                done += 1;
            }
            SessionStep::Horizon => unreachable!("advancing to Cycle::MAX never pauses"),
            SessionStep::Idle => panic!("session drained with {} jobs outstanding", total - done),
        }
    }
    let per_tenant_mean: Vec<f64> = services
        .iter()
        .map(|s| s.iter().sum::<u64>() as f64 / s.len() as f64)
        .collect();
    Ok(SharedOutcome {
        mean_service: services.iter().flatten().sum::<u64>() as f64 / total as f64,
        per_tenant_mean,
        mean_contention: contention as f64 / total as f64,
        mean_host_wait: host_wait as f64 / total as f64,
    })
}

/// Least squares via normal equations and Gaussian elimination with
/// partial pivoting; `rows` are `(features, target)`.
fn least_squares(rows: &[(Vec<f64>, f64)], k: usize) -> Vec<f64> {
    let mut ata = vec![vec![0.0f64; k + 1]; k];
    for (f, t) in rows {
        for i in 0..k {
            for j in 0..k {
                ata[i][j] += f[i] * f[j];
            }
            ata[i][k] += f[i] * t;
        }
    }
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&a, &b| ata[a][col].abs().total_cmp(&ata[b][col].abs()))
            .expect("non-empty");
        ata.swap(col, pivot);
        assert!(ata[col][col].abs() > 1e-12, "singular design matrix");
        let pivot_row = ata[col].clone();
        for row in ata.iter_mut().skip(col + 1) {
            let factor = row[col] / pivot_row[col];
            for (dst, &p) in row[col..=k].iter_mut().zip(&pivot_row[col..=k]) {
                *dst -= factor * p;
            }
        }
    }
    let mut c = vec![0.0f64; k];
    for row in (0..k).rev() {
        let mut acc = ata[row][k];
        for j in row + 1..k {
            acc -= ata[row][j] * c[j];
        }
        c[row] = acc / ata[row][row];
    }
    c
}

/// Mean absolute percentage error of `predict` over `rows`.
fn mape(rows: &[(Vec<f64>, f64)], c: &[f64]) -> f64 {
    let total: f64 = rows
        .iter()
        .map(|(f, t)| {
            let pred: f64 = f.iter().zip(c).map(|(a, b)| a * b).sum();
            ((pred - t) / t).abs()
        })
        .sum();
    100.0 * total / rows.len() as f64
}

pub(super) fn run(run: &Run) -> Result<Output, Box<dyn Error>> {
    let smoke = run.smoke;

    let clusters = if smoke { 16 } else { 32 };
    let mut config = SocConfig::with_clusters(clusters);
    config.mem_words_per_cycle = MEM_WORDS_PER_CYCLE;
    config.host_prep_words_per_cycle = HOST_PREP_WORDS_PER_CYCLE;

    // (tenants, clusters per tenant): partition size varies
    // independently of tenant count so the N/M and N·(T−1) columns of
    // the refit stay linearly independent.
    let partitions: &[(usize, usize)] = if smoke {
        &[(1, 8), (2, 8)]
    } else {
        &[
            (1, 4),
            (1, 8),
            (1, 16),
            (2, 4),
            (2, 8),
            (2, 16),
            (4, 4),
            (4, 8),
        ]
    };
    let sizes: &[u64] = if smoke { &[1024] } else { &[1024, 2048, 4096] };
    let loads: &[f64] = if smoke { &[1.0] } else { &[0.5, 1.0] };
    let jobs_per_tenant = if smoke { 3 } else { 4 };

    let kernel = Daxpy::new(2.0);
    let mut solo_cache: BTreeMap<(usize, u64), (u64, f64)> = BTreeMap::new();
    let mut rows: Vec<InterferenceRow> = Vec::new();

    for &(tenants, m) in partitions {
        for &n in sizes {
            let mut rng = SplitMix64::new(SEED ^ n);
            let mut x = vec![0.0; n as usize * kernel.x_words_per_elem() as usize];
            let mut y = vec![0.0; n as usize];
            rng.fill_f64(&mut x, -8.0, 8.0);
            rng.fill_f64(&mut y, -8.0, 8.0);

            // A one-tenant one-job session is cycle-identical to the
            // blocking path (asserted by the cross-stack property
            // tests), and unlike `offload_to` it also reports the
            // job's *solo* contention attribution — the baseline the
            // shared runs are accounted against.
            let (solo, solo_contention) = match solo_cache.get(&(m, n)) {
                Some(&pair) => pair,
                None => {
                    let one = run_shared(
                        &config,
                        1,
                        m,
                        &Stream {
                            kernel: &kernel,
                            x: &x,
                            y: &y,
                            gap: 1,
                            jobs_per_tenant: 1,
                        },
                    )?;
                    let pair = (one.mean_service as u64, one.mean_contention);
                    solo_cache.insert((m, n), pair);
                    pair
                }
            };

            for &load in loads {
                let gap = (solo as f64 / load).ceil() as u64;
                let shared = run_shared(
                    &config,
                    tenants,
                    m,
                    &Stream {
                        kernel: &kernel,
                        x: &x,
                        y: &y,
                        gap,
                        jobs_per_tenant,
                    },
                )?;
                let best = shared
                    .per_tenant_mean
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                let worst = shared.per_tenant_mean.iter().copied().fold(0.0, f64::max);
                let excess = shared.mean_service - solo as f64;
                let excess_contention =
                    (shared.mean_contention - solo_contention) + shared.mean_host_wait;
                let accounted = if excess <= 0.0 {
                    1.0
                } else {
                    excess_contention / excess
                };
                rows.push(InterferenceRow {
                    tenants,
                    clusters_per_tenant: m,
                    n,
                    load,
                    jobs_per_tenant,
                    solo_cycles: solo,
                    solo_contention_cycles: solo_contention,
                    mean_service_cycles: shared.mean_service,
                    best_tenant_mean_cycles: best,
                    worst_tenant_mean_cycles: worst,
                    slowdown: shared.mean_service / solo as f64,
                    mean_contention_cycles: shared.mean_contention,
                    mean_host_wait_cycles: shared.mean_host_wait,
                    accounted_fraction: accounted,
                });
            }
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tenants.to_string(),
                r.clusters_per_tenant.to_string(),
                r.n.to_string(),
                format!("{:.2}", r.load),
                r.solo_cycles.to_string(),
                format!("{:.1}", r.mean_service_cycles),
                format!("{:.3}", r.slowdown),
                format!("{:.1}", r.mean_contention_cycles),
                format!("{:.1}", r.mean_host_wait_cycles),
                format!("{:.2}", r.accounted_fraction),
            ]
        })
        .collect();
    println!(
        "Interference sweep — {clusters}-cluster SoC, HBM {MEM_WORDS_PER_CYCLE} w/cyc, \
         host prep {HOST_PREP_WORDS_PER_CYCLE} w/cyc, DAXPY closed-loop streams\n"
    );
    println!(
        "{}",
        render_table(
            &[
                "T", "M/ten", "N", "load", "solo", "shared", "slowdn", "cont/job", "wait/job",
                "acct"
            ],
            &table,
        )
    );

    // Headline claim: some two-tenant configuration slows *every*
    // co-resident down measurably, and the tagged contention counters
    // account for the bulk of it.
    let witness = rows
        .iter()
        .filter(|r| r.tenants == 2 && r.load == 1.0)
        .max_by(|a, b| a.slowdown.total_cmp(&b.slowdown))
        .expect("sweep contains two-tenant full-load configurations");
    println!(
        "witness: T=2 M={} N={} — every tenant ≥ {:.1}% slower than solo, \
         {:.0}% of the slowdown attributed to contention + host queueing",
        witness.clusters_per_tenant,
        witness.n,
        100.0 * (witness.best_tenant_mean_cycles / witness.solo_cycles as f64 - 1.0),
        100.0 * witness.accounted_fraction,
    );
    assert!(
        witness.best_tenant_mean_cycles > 1.02 * witness.solo_cycles as f64,
        "emergent interference: every co-resident must run ≥ 2% slower than solo \
         (best tenant {} vs solo {})",
        witness.best_tenant_mean_cycles,
        witness.solo_cycles
    );
    assert!(
        witness.mean_contention_cycles - witness.solo_contention_cycles
            + witness.mean_host_wait_cycles
            > 0.0,
        "the slowdown must be visible in the tagged contention counters beyond the \
         solo baseline"
    );
    assert!(
        witness.accounted_fraction >= 0.5,
        "contention + host-wait attribution must account for at least half of the \
         slowdown (got {:.2})",
        witness.accounted_fraction
    );

    // Refit Eq. 1 with the contention term over the full-load samples.
    let fit = if smoke {
        None
    } else {
        let samples: Vec<(Vec<f64>, f64)> = rows
            .iter()
            .filter(|r| r.load == 1.0)
            .map(|r| {
                let n = r.n as f64;
                let m = r.clusters_per_tenant as f64;
                let t = r.tenants as f64;
                (vec![1.0, n, n / m, n * (t - 1.0)], r.mean_service_cycles)
            })
            .collect();
        let with = least_squares(&samples, 4);
        let without_features: Vec<(Vec<f64>, f64)> =
            samples.iter().map(|(f, t)| (f[..3].to_vec(), *t)).collect();
        let without = least_squares(&without_features, 3);
        let fit = ContentionFit {
            c0: with[0],
            c_mem: with[1],
            c_comp: with[2],
            c_int: with[3],
            mape_with_contention: mape(&samples, &with),
            mape_without_contention: mape(&without_features, &without),
        };
        println!(
            "\nEq. 1 + contention refit: t̂ = {:.1} + {:.4}·N + {:.4}·N/M + {:.4}·N·(T−1)\n\
             MAPE {:.2}% with the contention term vs {:.2}% without",
            fit.c0,
            fit.c_mem,
            fit.c_comp,
            fit.c_int,
            fit.mape_with_contention,
            fit.mape_without_contention
        );
        assert!(
            fit.c_int > 0.0,
            "the fitted contention coefficient must be positive (got {})",
            fit.c_int
        );
        assert!(
            fit.mape_with_contention < fit.mape_without_contention,
            "the contention term must improve the fit ({:.2}% vs {:.2}%)",
            fit.mape_with_contention,
            fit.mape_without_contention
        );
        Some(fit)
    };

    Ok(Output::json(&InterferenceReport {
        clusters,
        mem_words_per_cycle: MEM_WORDS_PER_CYCLE,
        host_prep_words_per_cycle: HOST_PREP_WORDS_PER_CYCLE,
        seed: SEED,
        smoke,
        rows,
        fit,
    })?)
}
