//! Jobs: the unit of multi-tenant offload work.

use mpsoc_kernels::{Axpby, Daxpy, Dot, Kernel, Memset, Scale, Sum, VecAdd};
use serde::{Deserialize, Serialize};

/// The kernels a tenant may submit: the vector subset of the kernel zoo
/// (one `x` word per element, so every job is fully described by its
/// problem size `N`).
///
/// Matrix (`Gemv`) and stencil kernels are excluded — their operand
/// geometry needs extra parameters and the scheduling problem is
/// unchanged by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KernelId {
    /// `y ← a·x + y` (the paper's kernel).
    Daxpy,
    /// `y ← a·x + b·y`.
    Axpby,
    /// `y ← a·x`.
    Scale,
    /// `y ← x + y`.
    VecAdd,
    /// `y ← v`.
    Memset,
    /// `Σ x·y` (reduction).
    Dot,
    /// `Σ x` (reduction).
    Sum,
}

impl KernelId {
    /// Every schedulable kernel, in a fixed order.
    pub const ALL: [KernelId; 7] = [
        KernelId::Daxpy,
        KernelId::Axpby,
        KernelId::Scale,
        KernelId::VecAdd,
        KernelId::Memset,
        KernelId::Dot,
        KernelId::Sum,
    ];

    /// Short lowercase name (stable; used in reports and tables).
    pub fn name(self) -> &'static str {
        match self {
            KernelId::Daxpy => "daxpy",
            KernelId::Axpby => "axpby",
            KernelId::Scale => "scale",
            KernelId::VecAdd => "vecadd",
            KernelId::Memset => "memset",
            KernelId::Dot => "dot",
            KernelId::Sum => "sum",
        }
    }

    /// Instantiates the kernel with fixed, representative scalar
    /// arguments (the argument values do not affect timing).
    pub fn instantiate(self) -> Box<dyn Kernel + Send> {
        match self {
            KernelId::Daxpy => Box::new(Daxpy::new(2.0)),
            KernelId::Axpby => Box::new(Axpby::new(2.0, 0.5)),
            KernelId::Scale => Box::new(Scale::new(1.5)),
            KernelId::VecAdd => Box::new(VecAdd::new()),
            KernelId::Memset => Box::new(Memset::new(0.0)),
            KernelId::Dot => Box::new(Dot::new()),
            KernelId::Sum => Box::new(Sum::new()),
        }
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One offload request submitted by a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Submission-order identifier (unique within a workload).
    pub id: u64,
    /// The kernel to run.
    pub kernel: KernelId,
    /// Problem size in elements.
    pub n: u64,
    /// Arrival time in cycles.
    pub arrival: u64,
    /// Relative deadline: the job should finish within this many cycles
    /// of its arrival.
    pub deadline: u64,
}

impl Job {
    /// The absolute cycle by which the job should complete.
    pub fn absolute_deadline(&self) -> u64 {
        self.arrival.saturating_add(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_ids_instantiate_and_name() {
        for id in KernelId::ALL {
            let k = id.instantiate();
            // One x word per element: the job is described by N alone.
            assert_eq!(k.x_words_per_elem(), 1, "{id}");
            assert!(!id.name().is_empty());
        }
    }

    #[test]
    fn absolute_deadline_saturates() {
        let job = Job {
            id: 0,
            kernel: KernelId::Daxpy,
            n: 1024,
            arrival: u64::MAX - 10,
            deadline: 100,
        };
        assert_eq!(job.absolute_deadline(), u64::MAX);
    }
}
