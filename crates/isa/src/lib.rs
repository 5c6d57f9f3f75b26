//! # mpsoc-isa
//!
//! Micro-op ISA and cycle-accurate in-order core timing model for the
//! accelerator (Snitch-class) worker cores of the `mpsoc-offload`
//! simulator.
//!
//! Kernels are expressed as explicit [`Program`]s of [`MicroOp`]s —
//! loads, stores (including 128-bit paired stores), fused multiply-adds,
//! integer ops and branches — built with a [`ProgramBuilder`] that
//! resolves labels. The [`Interpreter`] executes a program against a
//! [`MemoryPort`] (the cluster TCDM), computing **both** the numerical
//! result on real `f64` data and the cycle-accurate issue schedule of a
//! decoupled in-order core with four pipes (LSU, FPU, ALU, branch unit).
//!
//! The calibrated DAXPY kernel in `mpsoc-kernels` reaches a steady-state
//! initiation interval of 26 cycles per 10 elements on this model —
//! the 2.6 cycles/element/core of the paper's Eq. 1 compute term. Once a
//! loop's timing repeats like that, the interpreter runs its remaining
//! iterations functionally and extrapolates their timing, exactly, on any
//! port that declares itself [conflict-free](MemoryPort::conflict_free).
//!
//! The timing model is public so that a static analysis can run it
//! without data: [`OpTiming`] is the issue rule's view of one op,
//! [`Clocks`] the core's timing state it reads and advances, and
//! [`SteadyState`] the watch that finds a loop whose trips repeat. The
//! interpreter times every op through them, and so does the static
//! cycle-bound analyzer in `mpsoc-lint`.
//!
//! # Example
//!
//! ```
//! use mpsoc_isa::{FpReg, Interpreter, IntReg, MemoryPort, MicroOp, ProgramBuilder, VecPort};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // y[0] = 2.0 * x[0]  with x[0] at byte 0 and y[0] at byte 8.
//! let mut b = ProgramBuilder::new();
//! let (x1, f0, f1, f2) = (IntReg::new(1), FpReg::new(0), FpReg::new(1), FpReg::new(2));
//! b.li(x1, 0);
//! b.fld(f0, x1, 0); // x[0]
//! b.fld(f1, x1, 8); // y[0]
//! b.fld(f2, x1, 16); // a
//! b.fmadd(f1, f2, f0, FpReg::new(3)); // f1 = a*x + 0
//! b.fsd(f1, x1, 8);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut port = VecPort::new(vec![3.0, 0.0, 2.0, 0.0]);
//! let report = Interpreter::new().run(&program, &mut port)?;
//! assert_eq!(port.data()[1], 6.0);
//! assert!(report.finish.as_u64() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod op;
mod program;
#[cfg(test)]
mod reference;

pub use exec::{
    Clocks, CoreTiming, ExecError, ExecReport, Interpreter, MemoryPort, OpTiming, PortError,
    SteadyState, VecPort,
};
pub use op::{FpReg, IntReg, MicroOp, PipeClass, FP_REGS, INT_REGS};
pub use program::{BuildError, Label, ListingNote, Program, ProgramBuilder};
