//! The host (CVA6-class) core: offload-runtime operations.

use mpsoc_mem::{Addr, ClusterReg};
use mpsoc_noc::ClusterMask;
use mpsoc_sim::Cycle;

/// One operation of the host-side offload routine.
///
/// The offload runtime compiles its dispatch/synchronization strategy
/// into a linear [`HostProgram`] of these ops; the SoC executes them with
/// cycle costs derived from the modeled hardware (injection-port
/// occupancy, NoC latencies, memory round trips).
#[derive(Debug, Clone, PartialEq)]
pub enum HostOp {
    /// Busy-compute for the given number of cycles (argument marshalling,
    /// loop bookkeeping, the interrupt service routine, ...).
    Compute(u64),
    /// Write a block of words to main memory through the write buffer
    /// (the job descriptor). Costs one cycle per word on the host plus
    /// main-memory bandwidth.
    WriteWords {
        /// Destination in main memory.
        addr: Addr,
        /// Raw words to write.
        values: Vec<u64>,
    },
    /// Serially prepare the job operands for accelerator access (cache
    /// flush / copy-in of inputs, allocation/invalidation of outputs) at
    /// the host's preparation throughput. For an `N`-element DAXPY this
    /// moves `3·N` words at 12 words/cycle — the paper's serial `N/4`
    /// data term, incurred identically by baseline and extended runtimes.
    PrepareOperands {
        /// Total operand words (inputs + outputs).
        words: u64,
    },
    /// Posted uncached store to one cluster's mailbox (baseline dispatch).
    StoreMailbox {
        /// Target cluster.
        cluster: usize,
        /// Target register.
        reg: ClusterReg,
        /// Value written.
        value: u64,
    },
    /// Posted multicast store to a mailbox register of every cluster in
    /// the mask (the paper's extension).
    MulticastMailbox {
        /// Selected clusters.
        mask: ClusterMask,
        /// Target register (same offset in every cluster).
        reg: ClusterReg,
        /// Value written.
        value: u64,
    },
    /// Program the credit-counter threshold and arm the unit.
    CreditArm {
        /// Number of completion credits to wait for.
        threshold: u64,
    },
    /// Write a word to main memory uncached (e.g. clearing the software
    /// barrier counter).
    StoreUncachedMain {
        /// Destination word address.
        addr: Addr,
        /// Value written.
        value: u64,
    },
    /// Spin-read a main-memory word until it equals `value` (the baseline
    /// software barrier). Each iteration pays the NoC/memory round trip
    /// plus `spin_cycles` of loop overhead.
    PollUntilEq {
        /// Polled word address.
        addr: Addr,
        /// Value to wait for.
        value: u64,
        /// Loop overhead per polling iteration.
        spin_cycles: u64,
    },
    /// Block until the credit-counter interrupt is delivered.
    WaitIrq,
    /// Offload routine complete; the timestamp of this op is the
    /// offload's end-to-end runtime.
    End,
}

/// A linear sequence of [`HostOp`]s: one offload routine.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProgram {
    ops: Vec<HostOp>,
}

impl HostProgram {
    /// Wraps a sequence of ops.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty or does not end in [`HostOp::End`].
    pub fn new(ops: Vec<HostOp>) -> Self {
        assert!(
            matches!(ops.last(), Some(HostOp::End)),
            "host program must end in HostOp::End"
        );
        HostProgram { ops }
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[HostOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the program has no ops (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What the host is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HostStatus {
    Running,
    WaitingIrq,
    Polling,
    Done(Cycle),
}

/// Internal host execution state.
#[derive(Debug, Clone)]
pub(crate) struct HostState {
    pub program: HostProgram,
    pub pc: usize,
    pub status: HostStatus,
    pub busy_cycles: u64,
    pub poll_iterations: u64,
}

impl HostState {
    pub fn new(program: HostProgram) -> Self {
        HostState {
            program,
            pc: 0,
            status: HostStatus::Running,
            busy_cycles: 0,
            poll_iterations: 0,
        }
    }

    pub fn current(&self) -> Option<&HostOp> {
        self.program.ops().get(self.pc)
    }

    /// Drops the program's ops, which nothing reads once the program has
    /// run to its [`HostOp::End`].
    pub fn release(&mut self) {
        self.program.ops = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_requires_end() {
        let p = HostProgram::new(vec![HostOp::Compute(1), HostOp::End]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "must end in HostOp::End")]
    fn missing_end_panics() {
        let _ = HostProgram::new(vec![HostOp::Compute(1)]);
    }

    #[test]
    #[should_panic(expected = "must end in HostOp::End")]
    fn empty_program_panics() {
        let _ = HostProgram::new(vec![]);
    }

    #[test]
    fn state_walks_ops() {
        let p = HostProgram::new(vec![HostOp::Compute(5), HostOp::End]);
        let mut s = HostState::new(p);
        assert!(matches!(s.current(), Some(HostOp::Compute(5))));
        s.pc += 1;
        assert!(matches!(s.current(), Some(HostOp::End)));
        s.pc += 1;
        assert!(s.current().is_none());
    }
}
