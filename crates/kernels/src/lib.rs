//! # mpsoc-kernels
//!
//! The data-parallel kernel zoo of the `mpsoc-offload` reproduction:
//! kernel definitions ([`Kernel`]), per-core code generation onto the
//! [`mpsoc_isa`] micro-ISA, golden reference implementations, and the
//! work [`partition`]ing used to split a job across clusters and cores.
//!
//! The paper's workload is **DAXPY** (`y = a·x + y`); [`Daxpy`] carries
//! the hand-scheduled, software-pipelined inner loop that sustains the
//! calibrated 2.6 cycles/element/core. The rest of the zoo ([`Axpby`],
//! [`Scale`], [`VecAdd`], [`Memset`], [`Dot`], [`Sum`]) exercises the same
//! offload machinery with different compute/data-movement ratios, which
//! the model-generality experiment (`kernel_sweep`) uses to refit Eq. 1
//! per kernel.
//!
//! # Example
//!
//! ```
//! use mpsoc_kernels::{CoreSlice, Daxpy, GoldenOutput, Kernel};
//! use mpsoc_isa::{Interpreter, VecPort};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = Daxpy::new(2.0);
//!
//! // One core processing 4 elements laid out in a toy TCDM:
//! //   x at bytes 0..32, y at 32..64, scalar args at 64.
//! let slice = CoreSlice { elems: 4, x_base: 0, y_base: 32, out_base: 32, args_base: 64, core_index: 0 };
//! let program = kernel.codegen(&slice)?;
//!
//! let mut tcdm = VecPort::new(vec![0.0; 16]);
//! tcdm.data_mut()[0..4].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // x
//! tcdm.data_mut()[4..8].copy_from_slice(&[10.0, 10.0, 10.0, 10.0]); // y
//! tcdm.data_mut()[8] = 2.0; // a
//! Interpreter::new().run(&program, &mut tcdm)?;
//! assert_eq!(&tcdm.data()[4..8], &[12.0, 14.0, 16.0, 18.0]);
//!
//! // The golden reference agrees:
//! match kernel.golden(&[1.0, 2.0, 3.0, 4.0], &[10.0; 4]) {
//!     GoldenOutput::Vector(v) => assert_eq!(v, vec![12.0, 14.0, 16.0, 18.0]),
//!     _ => unreachable!("daxpy is a map kernel"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daxpy;
mod daxpy_ssr;
mod gemv;
mod kernel;
mod memo;
pub mod partition;
mod stencil;
mod zoo;

pub use daxpy::Daxpy;
pub use daxpy_ssr::DaxpySsr;
pub use gemv::Gemv;
pub use kernel::{ByteRange, CoreSlice, GoldenOutput, Kernel, KernelKind};
pub use memo::ProgramMemo;
pub use stencil::Stencil3;
pub use zoo::{Axpby, Dot, Memset, Scale, Sum, VecAdd};

/// The whole kernel zoo, one instance of each kernel with fixed
/// coefficients: the set the static-analysis gates (`lint_kernels`,
/// `cost_study`, the linter's zoo test) sweep.
pub fn zoo() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Daxpy::new(2.0)),
        Box::new(DaxpySsr::new(2.0)),
        Box::new(Axpby::new(1.5, -0.5)),
        Box::new(Scale::new(3.0)),
        Box::new(VecAdd::new()),
        Box::new(Memset::new(7.0)),
        Box::new(Dot::new()),
        Box::new(Sum::new()),
        Box::new(Gemv::new(vec![1.0, 2.0, 3.0])),
        Box::new(Stencil3::new(0.25, 0.5, 0.25)),
    ]
}
