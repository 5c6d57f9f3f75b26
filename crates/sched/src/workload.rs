//! Seeded synthetic job streams: the tenant side of the scheduling
//! problem.
//!
//! A [`Workload`] describes *what* arrives (kernel mix, problem sizes,
//! deadline slack) and *when* (the [`ArrivalPattern`]); `generate`
//! expands it into a concrete, deterministic job stream. Deadlines are
//! drawn relative to each job's predicted service time on a reference
//! partition size, so a stream stays meaningful across machine sizes.

use mpsoc_sim::rng::SplitMix64;

use crate::calibrate::ModelTable;
use crate::job::{Job, KernelId};

/// When jobs arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Open loop: exponential interarrival times with the given mean
    /// (cycles). Memoryless — the classic M/G/c offered-load model.
    Poisson {
        /// Mean interarrival gap in cycles.
        mean_interarrival: f64,
    },
    /// Closed loop: a fixed population of clients, each submitting its
    /// next job one think time after (an estimate of) its previous
    /// job's completion. The estimate is the model-predicted service
    /// time on the reference partition — the generator stays decoupled
    /// from the scheduler, so this is an open-loop approximation of a
    /// closed system.
    ClosedLoop {
        /// Number of concurrent clients.
        population: usize,
        /// Mean think time between a client's jobs (cycles).
        mean_think: f64,
    },
    /// Trace-style bursts: batches of back-to-back submissions at
    /// exponentially spaced epochs, e.g. a tenant unrolling a loop of
    /// offloads.
    Bursty {
        /// Jobs per burst.
        burst: usize,
        /// Mean gap between burst epochs (cycles).
        mean_gap: f64,
    },
}

/// A synthetic workload description; [`Workload::generate`] expands it
/// into a job stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Number of jobs to emit.
    pub jobs: usize,
    /// RNG seed: equal seeds (and equal specs) give identical streams.
    pub seed: u64,
    /// Kernel mix as `(kernel, weight)` pairs; weights need not sum to 1.
    pub mix: Vec<(KernelId, f64)>,
    /// Candidate problem sizes, drawn uniformly.
    pub sizes: Vec<u64>,
    /// Deadline slack range: each job's relative deadline is its
    /// predicted service time on [`Workload::reference_clusters`]
    /// clusters times a uniform draw from this range.
    pub slack: (f64, f64),
    /// Partition size used for the deadline reference prediction.
    pub reference_clusters: u64,
    /// The arrival process.
    pub arrivals: ArrivalPattern,
}

impl Workload {
    /// A balanced default: all seven kernels equally weighted, sizes
    /// from 256 to 4096, deadlines 1.5–6× the predicted service time on
    /// a quarter of a 32-cluster machine.
    pub fn balanced(jobs: usize, seed: u64, arrivals: ArrivalPattern) -> Self {
        Workload {
            jobs,
            seed,
            mix: KernelId::ALL.iter().map(|&k| (k, 1.0)).collect(),
            sizes: vec![256, 512, 1024, 2048, 4096],
            slack: (1.5, 6.0),
            reference_clusters: 8,
            arrivals,
        }
    }

    /// Expected cluster-cycle demand of one job: the mean over the mix
    /// and sizes of `M_ref · t̂(M_ref, N)`. Used to convert a target
    /// offered load into an interarrival gap.
    fn mean_demand(&self, table: &ModelTable) -> f64 {
        let weight_sum: f64 = self.mix.iter().map(|(_, w)| w).sum();
        let mut demand = 0.0;
        for &(kernel, weight) in &self.mix {
            let model = &table.get(kernel).accel;
            let per_kernel: f64 = self
                .sizes
                .iter()
                .map(|&n| {
                    self.reference_clusters as f64 * model.predict(self.reference_clusters, n)
                })
                .sum::<f64>()
                / self.sizes.len() as f64;
            demand += weight / weight_sum * per_kernel;
        }
        demand
    }

    /// The mean interarrival gap that offers `rho` load to a machine of
    /// `clusters` clusters: `gap = demand / (rho · clusters)`. `rho = 1`
    /// saturates the machine on average; `rho > 1` overloads it.
    pub fn interarrival_for_load(&self, table: &ModelTable, clusters: usize, rho: f64) -> f64 {
        assert!(rho > 0.0, "offered load must be positive");
        self.mean_demand(table) / (rho * clusters as f64)
    }

    /// Expands the description into a concrete job stream, sorted by
    /// arrival time with ids in arrival order. Deterministic in
    /// (`self`, `table`).
    pub fn generate(&self, table: &ModelTable) -> Vec<Job> {
        assert!(!self.mix.is_empty(), "workload needs at least one kernel");
        assert!(!self.sizes.is_empty(), "workload needs at least one size");
        let mut rng = SplitMix64::new(self.seed);
        let draw = |rng: &mut SplitMix64| {
            let kernel = weighted_choice(&self.mix, rng);
            let n = self.sizes[rng.next_below(self.sizes.len() as u64) as usize];
            let service = table.get(kernel).accel.predict(self.reference_clusters, n);
            let slack = rng.next_range_f64(self.slack.0, self.slack.1);
            let deadline = (service * slack).ceil() as u64;
            (kernel, n, deadline, service)
        };

        let mut jobs: Vec<Job> = Vec::with_capacity(self.jobs);
        match self.arrivals {
            ArrivalPattern::Poisson { mean_interarrival } => {
                let mut t = 0.0f64;
                for _ in 0..self.jobs {
                    t += exponential(&mut rng, mean_interarrival);
                    let (kernel, n, deadline, _) = draw(&mut rng);
                    jobs.push(Job {
                        id: 0,
                        kernel,
                        n,
                        arrival: t as u64,
                        deadline,
                    });
                }
            }
            ArrivalPattern::ClosedLoop {
                population,
                mean_think,
            } => {
                assert!(population > 0, "closed loop needs at least one client");
                // Each client's next submission follows its previous
                // job's estimated completion plus a think time.
                let mut next_free = vec![0.0f64; population];
                for i in 0..self.jobs {
                    let client = i % population;
                    let t = next_free[client];
                    let (kernel, n, deadline, service) = draw(&mut rng);
                    jobs.push(Job {
                        id: 0,
                        kernel,
                        n,
                        arrival: t as u64,
                        deadline,
                    });
                    next_free[client] = t + service + exponential(&mut rng, mean_think);
                }
            }
            ArrivalPattern::Bursty { burst, mean_gap } => {
                assert!(burst > 0, "bursts need at least one job");
                let mut t = 0.0f64;
                let mut emitted = 0;
                while emitted < self.jobs {
                    t += exponential(&mut rng, mean_gap);
                    for _ in 0..burst.min(self.jobs - emitted) {
                        let (kernel, n, deadline, _) = draw(&mut rng);
                        jobs.push(Job {
                            id: 0,
                            kernel,
                            n,
                            arrival: t as u64,
                            deadline,
                        });
                        emitted += 1;
                    }
                }
            }
        }

        // Arrival order with ids assigned after sorting, so every
        // pattern yields the same (arrival, id) invariant. Ties keep
        // emission order (stable sort).
        jobs.sort_by_key(|j| j.arrival);
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = i as u64;
        }
        jobs
    }
}

/// Exponential draw with the given mean (inverse-CDF of `U(0,1)`).
fn exponential(rng: &mut SplitMix64, mean: f64) -> f64 {
    let u = rng.next_f64();
    // `1 - u` is in (0, 1]: ln stays finite.
    -mean * (1.0 - u).ln()
}

/// Weighted draw from the kernel mix.
fn weighted_choice(mix: &[(KernelId, f64)], rng: &mut SplitMix64) -> KernelId {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut pick = rng.next_f64() * total;
    for &(kernel, weight) in mix {
        pick -= weight;
        if pick <= 0.0 {
            return kernel;
        }
    }
    mix.last().expect("non-empty mix").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::ModelTable;

    fn table() -> ModelTable {
        ModelTable::paper_defaults()
    }

    #[test]
    fn generation_is_deterministic() {
        let w = Workload::balanced(
            50,
            7,
            ArrivalPattern::Poisson {
                mean_interarrival: 500.0,
            },
        );
        assert_eq!(w.generate(&table()), w.generate(&table()));
    }

    #[test]
    fn seeds_change_the_stream() {
        let mk = |seed| {
            Workload::balanced(
                50,
                seed,
                ArrivalPattern::Poisson {
                    mean_interarrival: 500.0,
                },
            )
            .generate(&table())
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn streams_are_sorted_with_sequential_ids() {
        for arrivals in [
            ArrivalPattern::Poisson {
                mean_interarrival: 300.0,
            },
            ArrivalPattern::ClosedLoop {
                population: 4,
                mean_think: 200.0,
            },
            ArrivalPattern::Bursty {
                burst: 5,
                mean_gap: 2000.0,
            },
        ] {
            let jobs = Workload::balanced(40, 11, arrivals).generate(&table());
            assert_eq!(jobs.len(), 40);
            assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
            assert!(jobs.iter().enumerate().all(|(i, j)| j.id == i as u64));
            assert!(jobs.iter().all(|j| j.deadline > 0));
        }
    }

    #[test]
    fn bursts_share_arrival_times() {
        let jobs = Workload::balanced(
            30,
            3,
            ArrivalPattern::Bursty {
                burst: 10,
                mean_gap: 50_000.0,
            },
        )
        .generate(&table());
        let distinct: std::collections::BTreeSet<u64> = jobs.iter().map(|j| j.arrival).collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn load_conversion_is_monotonic() {
        let w = Workload::balanced(
            10,
            1,
            ArrivalPattern::Poisson {
                mean_interarrival: 1.0,
            },
        );
        let t = table();
        let slow = w.interarrival_for_load(&t, 32, 0.5);
        let fast = w.interarrival_for_load(&t, 32, 2.0);
        assert!(slow > fast);
        assert!(w.mean_demand(&t) > 0.0);
    }
}
