//! Building each core slice's program once.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

use mpsoc_isa::{BuildError, Program};

use crate::{CoreSlice, GoldenOutput, Kernel, KernelKind};

/// A kernel whose [`Kernel::codegen`] builds each [`CoreSlice`]'s
/// program once and hands out copies of it after that; every other
/// method is the wrapped kernel's.
///
/// The memo is keyed by the whole slice, and each wrapper holds one
/// kernel instance. A zoo kernel's codegen reads nothing but the slice's
/// fields and the kernel's own parameters, and has no side effect, so a
/// copy equals what a fresh build would return. A wrapped kernel whose
/// codegen reads anything else must not be memoized.
///
/// ```
/// use mpsoc_kernels::{CoreSlice, Daxpy, Kernel, ProgramMemo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let kernel = ProgramMemo::new(Box::new(Daxpy::new(2.0)));
/// let slice = CoreSlice { elems: 4, x_base: 0, y_base: 32, out_base: 32, args_base: 64, core_index: 0 };
/// let program = kernel.codegen(&slice)?;
/// assert_eq!(kernel.codegen(&slice)?, program);
/// assert_eq!(kernel.programs(), 1);
/// assert_eq!(program, Daxpy::new(2.0).codegen(&slice)?);
/// # Ok(())
/// # }
/// ```
pub struct ProgramMemo {
    kernel: Box<dyn Kernel + Send>,
    programs: RefCell<BTreeMap<CoreSlice, Program>>,
}

impl ProgramMemo {
    /// Wraps `kernel` with an empty memo.
    pub fn new(kernel: Box<dyn Kernel + Send>) -> Self {
        ProgramMemo {
            kernel,
            programs: RefCell::new(BTreeMap::new()),
        }
    }

    /// Programs built so far: one per distinct slice.
    pub fn programs(&self) -> usize {
        self.programs.borrow().len()
    }

    /// The slices whose programs are built, in slice order.
    pub fn slices(&self) -> Vec<CoreSlice> {
        self.programs.borrow().keys().copied().collect()
    }
}

impl fmt::Debug for ProgramMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramMemo")
            .field("kernel", &self.kernel.name())
            .field("programs", &self.programs())
            .finish()
    }
}

impl Kernel for ProgramMemo {
    fn name(&self) -> &str {
        self.kernel.name()
    }

    fn kind(&self) -> KernelKind {
        self.kernel.kind()
    }

    fn uses_x(&self) -> bool {
        self.kernel.uses_x()
    }

    fn uses_y(&self) -> bool {
        self.kernel.uses_y()
    }

    fn x_words_per_elem(&self) -> u64 {
        self.kernel.x_words_per_elem()
    }

    fn x_halo(&self) -> u64 {
        self.kernel.x_halo()
    }

    fn scalar_args(&self) -> Vec<f64> {
        self.kernel.scalar_args()
    }

    fn dma_in_words(&self, elems: u64) -> u64 {
        self.kernel.dma_in_words(elems)
    }

    fn dma_out_words(&self, elems: u64, cores: u64) -> u64 {
        self.kernel.dma_out_words(elems, cores)
    }

    /// The wrapped kernel's program for `slice`, built on the first call
    /// with that slice. A failed build is not memoized.
    fn codegen(&self, slice: &CoreSlice) -> Result<Program, BuildError> {
        if let Some(program) = self.programs.borrow().get(slice) {
            return Ok(program.clone());
        }
        let program = self.kernel.codegen(slice)?;
        self.programs.borrow_mut().insert(*slice, program.clone());
        Ok(program)
    }

    fn golden(&self, x: &[f64], y: &[f64]) -> GoldenOutput {
        self.kernel.golden(x, y)
    }

    fn cycles_per_elem_hint(&self) -> f64 {
        self.kernel.cycles_per_elem_hint()
    }
}
