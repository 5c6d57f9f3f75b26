//! The kernel abstraction.

use mpsoc_isa::{BuildError, Program};

/// Whether a kernel produces an elementwise vector or per-core partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Elementwise: the output overwrites the `y` slice (`y' = f(x, y)`).
    Map,
    /// Reduction: each core writes one partial; the host combines them.
    Reduce,
}

/// The parameters a single worker core needs to run its share of a job.
///
/// All addresses are byte offsets local to the executing cluster's TCDM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreSlice {
    /// Number of elements this core processes.
    pub elems: u64,
    /// Local base of this core's `x` slice.
    pub x_base: u64,
    /// Local base of this core's `y` slice.
    pub y_base: u64,
    /// Local base of this core's output (equals `y_base` for map kernels;
    /// the core's partial slot for reductions).
    pub out_base: u64,
    /// Local base of the scalar-argument area shared by the cluster.
    pub args_base: u64,
    /// This core's index within the cluster (0-based).
    pub core_index: usize,
}

/// A half-open byte range `[start, end)` in cluster-local TCDM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteRange {
    /// First byte.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

impl ByteRange {
    /// The range of `len` bytes starting at `start`.
    pub fn new(start: u64, len: u64) -> Self {
        ByteRange {
            start,
            end: start + len,
        }
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` when the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// `true` when the two ranges share at least one byte.
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }
}

impl CoreSlice {
    /// The TCDM byte ranges this core's program may *read* when running
    /// `kernel`: its `x` slice including any halo, its `y` slice when the
    /// kernel streams `y` in, and the cluster-shared scalar-argument area
    /// (arguments plus the trailing zero word).
    pub fn read_ranges(&self, kernel: &dyn Kernel) -> Vec<ByteRange> {
        let mut ranges = Vec::with_capacity(3);
        if kernel.uses_x() {
            let halo = kernel.x_halo();
            ranges.push(ByteRange::new(
                self.x_base - 8 * halo,
                8 * (self.elems * kernel.x_words_per_elem() + 2 * halo),
            ));
        }
        if kernel.uses_y() {
            ranges.push(ByteRange::new(self.y_base, 8 * self.elems));
        }
        ranges.push(ByteRange::new(
            self.args_base,
            8 * (kernel.scalar_args().len() as u64 + 1),
        ));
        ranges.retain(|r| !r.is_empty());
        ranges
    }

    /// The TCDM byte ranges this core's program *writes* when running
    /// `kernel`: its `y` slice for map kernels, its single partial slot
    /// for reductions.
    pub fn write_ranges(&self, kernel: &dyn Kernel) -> Vec<ByteRange> {
        let range = match kernel.kind() {
            KernelKind::Map => ByteRange::new(self.out_base, 8 * self.elems),
            KernelKind::Reduce => ByteRange::new(self.out_base, 8),
        };
        if range.is_empty() {
            vec![]
        } else {
            vec![range]
        }
    }
}

/// The expected result of a kernel, from the golden reference.
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenOutput {
    /// Expected full `y` vector after a map kernel.
    Vector(Vec<f64>),
    /// Expected scalar after combining a reduction's partials.
    Scalar(f64),
}

impl GoldenOutput {
    /// The vector payload.
    ///
    /// # Panics
    ///
    /// Panics if this is a [`GoldenOutput::Scalar`].
    pub fn unwrap_vector(self) -> Vec<f64> {
        match self {
            GoldenOutput::Vector(v) => v,
            GoldenOutput::Scalar(_) => panic!("expected vector output, found scalar"),
        }
    }

    /// The scalar payload.
    ///
    /// # Panics
    ///
    /// Panics if this is a [`GoldenOutput::Vector`].
    pub fn unwrap_scalar(self) -> f64 {
        match self {
            GoldenOutput::Scalar(s) => s,
            GoldenOutput::Vector(_) => panic!("expected scalar output, found vector"),
        }
    }
}

/// A data-parallel kernel that can be offloaded to the accelerator.
///
/// A kernel bundles four things:
///
/// 1. its **shape** ([`Kernel::kind`], [`Kernel::uses_x`] /
///    [`Kernel::uses_y`]) — which operand vectors it streams in,
/// 2. its **scalar arguments** (copied into each cluster's TCDM arg area),
/// 3. **code generation** ([`Kernel::codegen`]) — the micro-op program one
///    worker core runs over its [`CoreSlice`],
/// 4. a **golden reference** ([`Kernel::golden`]) the integration tests
///    compare every offloaded result against.
///
/// Implementations live in this crate ([`Daxpy`](crate::Daxpy) and the
/// [zoo](crate::Axpby)); downstream users can implement the trait for
/// custom workloads.
pub trait Kernel {
    /// Kernel name, for reports.
    fn name(&self) -> &str;

    /// Map or reduce.
    fn kind(&self) -> KernelKind;

    /// `true` when the kernel streams the `x` operand in.
    fn uses_x(&self) -> bool {
        true
    }

    /// `true` when the kernel streams the `y` vector in.
    fn uses_y(&self) -> bool {
        true
    }

    /// Words of `x` per output element (1 for vector kernels; `K` for a
    /// GEMV whose `x` is an `N×K` row-major matrix).
    fn x_words_per_elem(&self) -> u64 {
        1
    }

    /// Halo words needed on *each* side of a slice's `x` data (stencils).
    /// The runtime fetches neighbouring elements into the halo slots and
    /// zero-fills them at the job boundaries; codegen may then address
    /// `x_base - 8·halo .. x_base + 8·(elems + halo)`. Only supported for
    /// kernels with [`Kernel::x_words_per_elem`] `== 1`.
    fn x_halo(&self) -> u64 {
        0
    }

    /// Scalar arguments, in arg-area order.
    fn scalar_args(&self) -> Vec<f64>;

    /// Words DMA'd into a cluster for a slice of `elems` elements.
    fn dma_in_words(&self, elems: u64) -> u64 {
        u64::from(self.uses_x()) * elems * self.x_words_per_elem()
            + u64::from(self.uses_y()) * elems
    }

    /// Words DMA'd out of a cluster after computing a slice of `elems`
    /// elements with `cores` worker cores.
    fn dma_out_words(&self, elems: u64, cores: u64) -> u64 {
        match self.kind() {
            KernelKind::Map => elems,
            KernelKind::Reduce => cores,
        }
    }

    /// Emits the micro-op program for one core's slice.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from program construction (should not
    /// happen for well-formed kernels; surfaced for custom implementors).
    fn codegen(&self, slice: &CoreSlice) -> Result<Program, BuildError>;

    /// Computes the expected result on the host, in plain Rust.
    fn golden(&self, x: &[f64], y: &[f64]) -> GoldenOutput;

    /// Approximate steady-state compute cost in cycles per element per
    /// core, used by seeding heuristics (the fitted model supersedes it).
    fn cycles_per_elem_hint(&self) -> f64 {
        2.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl Kernel for Fake {
        fn name(&self) -> &str {
            "fake"
        }
        fn kind(&self) -> KernelKind {
            KernelKind::Map
        }
        fn scalar_args(&self) -> Vec<f64> {
            vec![]
        }
        fn codegen(&self, _: &CoreSlice) -> Result<Program, BuildError> {
            let mut b = mpsoc_isa::ProgramBuilder::new();
            b.halt();
            b.build()
        }
        fn golden(&self, _x: &[f64], y: &[f64]) -> GoldenOutput {
            GoldenOutput::Vector(y.to_vec())
        }
    }

    #[test]
    fn byte_range_overlap() {
        let a = ByteRange::new(0, 64);
        let b = ByteRange::new(56, 64);
        let c = ByteRange::new(64, 64);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert_eq!(a.len(), 64);
        assert!(!a.is_empty());
        assert!(ByteRange::new(8, 0).is_empty());
        assert!(!ByteRange::new(8, 0).overlaps(&a));
    }

    #[test]
    fn footprints_of_a_map_kernel() {
        let k = Fake; // uses x and y, no scalars
        let slice = CoreSlice {
            elems: 16,
            x_base: 0,
            y_base: 512,
            out_base: 512,
            args_base: 1024,
            core_index: 0,
        };
        let reads = slice.read_ranges(&k);
        assert_eq!(
            reads,
            vec![
                ByteRange::new(0, 128),   // x
                ByteRange::new(512, 128), // y (streamed in)
                ByteRange::new(1024, 8),  // args: zero word only
            ]
        );
        assert_eq!(slice.write_ranges(&k), vec![ByteRange::new(512, 128)]);
    }

    #[test]
    fn empty_slice_has_no_data_footprint() {
        let k = Fake;
        let slice = CoreSlice {
            elems: 0,
            x_base: 0,
            y_base: 0,
            out_base: 0,
            args_base: 64,
            core_index: 3,
        };
        // Only the shared args area remains readable; nothing is written.
        assert_eq!(slice.read_ranges(&k), vec![ByteRange::new(64, 8)]);
        assert!(slice.write_ranges(&k).is_empty());
    }

    #[test]
    fn default_dma_volumes() {
        let k = Fake;
        assert_eq!(k.dma_in_words(100), 200); // x + y
        assert_eq!(k.dma_out_words(100, 8), 100); // map: y back
    }

    #[test]
    fn golden_output_unwrap() {
        assert_eq!(GoldenOutput::Vector(vec![1.0]).unwrap_vector(), vec![1.0]);
        assert_eq!(GoldenOutput::Scalar(2.0).unwrap_scalar(), 2.0);
    }

    #[test]
    #[should_panic(expected = "expected scalar")]
    fn unwrap_scalar_on_vector_panics() {
        GoldenOutput::Vector(vec![]).unwrap_scalar();
    }

    #[test]
    #[should_panic(expected = "expected vector")]
    fn unwrap_vector_on_scalar_panics() {
        GoldenOutput::Scalar(0.0).unwrap_vector();
    }
}
