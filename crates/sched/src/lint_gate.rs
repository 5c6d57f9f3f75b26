//! Static verification at admission: jobs whose generated program fails
//! [`mpsoc_lint`] are rejected before they can touch the machine.
//!
//! The gate lints the *worst-case* core program for a job — core 0 of a
//! fully populated cluster, which owns the largest slice plus any halo —
//! against the target TCDM geometry. Verdicts are memoized per
//! `(kernel, n)`, so a stream of thousands of jobs over the usual handful
//! of kernel/size pairs pays for codegen and analysis once per pair.

use std::collections::HashMap;

use mpsoc_lint::descriptor::reference_slices;
use mpsoc_lint::{lint_program, LintContext, LintReport};

use crate::job::{Job, KernelId};

/// A memoizing lint check applied to every arriving job.
#[derive(Debug, Clone)]
pub struct LintGate {
    context: LintContext,
    cores_per_cluster: usize,
    verdicts: HashMap<(KernelId, u64), Option<LintReport>>,
}

impl LintGate {
    /// A gate checking programs against `context`'s TCDM geometry,
    /// assuming `cores_per_cluster` worker cores share each cluster.
    pub fn new(context: LintContext, cores_per_cluster: usize) -> Self {
        assert!(cores_per_cluster > 0, "clusters need at least one core");
        LintGate {
            context,
            cores_per_cluster,
            verdicts: HashMap::new(),
        }
    }

    /// A gate for the calibrated Manticore-class geometry (8 worker
    /// cores, 256 KiB TCDM).
    pub fn manticore() -> Self {
        LintGate::new(LintContext::manticore(), 8)
    }

    /// Checks one job. `None` means the program lints clean (warnings
    /// included — the gate only blocks on errors); `Some(report)` carries
    /// the failing report.
    pub fn check(&mut self, job: &Job) -> Option<&LintReport> {
        let key = (job.kernel, job.n);
        if !self.verdicts.contains_key(&key) {
            let verdict = self.lint(job.kernel, job.n);
            self.verdicts.insert(key, verdict);
        }
        self.verdicts[&key].as_ref()
    }

    fn lint(&self, kernel: KernelId, n: u64) -> Option<LintReport> {
        let k = kernel.instantiate();
        // A geometry past the address space and a builder refusal
        // surface through the service backend's own typed error path;
        // the gate only judges programs that built.
        let slices = reference_slices(k.as_ref(), n, self.cores_per_cluster).ok()?;
        // Core 0 holds the biggest slice (remainders go to low cores), so
        // its program has the worst-case footprint and loop structure.
        let slice = slices.first()?;
        if slice.elems == 0 {
            return None;
        }
        let program = k.codegen(slice).ok()?;
        let report = lint_program(&program, &self.context);
        if report.has_errors() {
            Some(report)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(kernel: KernelId, n: u64) -> Job {
        Job {
            id: 0,
            kernel,
            n,
            arrival: 0,
            deadline: 10_000,
        }
    }

    #[test]
    fn zoo_kernels_pass_on_real_geometry() {
        let mut gate = LintGate::manticore();
        for kernel in KernelId::ALL {
            for n in [1, 64, 1024] {
                assert!(
                    gate.check(&job(kernel, n)).is_none(),
                    "{kernel} n={n} failed the gate"
                );
            }
        }
    }

    #[test]
    fn shrunken_tcdm_fails_the_gate() {
        // 64 words of TCDM cannot hold a 1024-element daxpy: the interval
        // pass proves out-of-bounds accesses and the gate blocks the job.
        let tiny = LintContext {
            tcdm_words: 64,
            ..LintContext::manticore()
        };
        let mut gate = LintGate::new(tiny, 8);
        let report = gate.check(&job(KernelId::Daxpy, 1024)).expect("must fail");
        assert!(report.has_errors());
    }

    #[test]
    fn a_geometry_past_the_address_space_is_skipped() {
        // 2^62 DAXPY elements have no 64-bit byte addresses: the gate
        // skips the job, as it skips a program that does not build.
        let mut gate = LintGate::manticore();
        assert!(gate.check(&job(KernelId::Daxpy, 1 << 62)).is_none());
        assert!(gate.check(&job(KernelId::Dot, u64::MAX)).is_none());
    }

    #[test]
    fn verdicts_are_memoized() {
        let mut gate = LintGate::manticore();
        gate.check(&job(KernelId::Daxpy, 1024));
        gate.check(&job(KernelId::Daxpy, 1024));
        gate.check(&job(KernelId::Dot, 512));
        assert_eq!(gate.verdicts.len(), 2);
    }
}
