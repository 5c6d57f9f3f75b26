//! Memory-layout planning for offloaded jobs.

use mpsoc_kernels::partition::{split_even, Chunk};
use mpsoc_kernels::{CoreSlice, Kernel};
use mpsoc_mem::{Addr, MemoryMap, WORD_BYTES};

use crate::OffloadError;

/// Word offset of the job descriptor from the main-memory base.
const DESC_WORD: u64 = 0;
/// Word offset of the software-barrier counter.
const BARRIER_WORD: u64 = 16;
/// Word offset of a reserved always-zero word (halo zero-fill source).
const ZERO_WORD: u64 = 24;
/// Word offset of the reduction-partials area.
const PARTIALS_WORD: u64 = 32;
/// Word offset of the operand vectors (x, then y).
const DATA_WORD: u64 = 1024;

/// Main-memory placement of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MainLayout {
    pub desc: Addr,
    pub barrier: Addr,
    pub zero: Addr,
    pub partials: Addr,
    pub x: Addr,
    pub y: Addr,
}

impl MainLayout {
    /// Words a job's main-memory region spans (control block + operands):
    /// the allocation unit of the concurrent-session region allocator.
    /// Saturates at `u64::MAX`, which no main memory holds.
    pub fn region_words(x_words: u64, n: u64) -> u64 {
        DATA_WORD.saturating_add(x_words).saturating_add(n)
    }

    /// Plans the placement of a job with `x_words` of `x` operand, `n`
    /// output elements and `partial_slots` reduction partials in the
    /// region starting `region_word` words into main memory. Blocking
    /// offloads use word 0; concurrent tenants get disjoint regions, so
    /// their control blocks (descriptor, barrier counter, zero word,
    /// reduction partials) and operand vectors never alias.
    pub fn plan(
        map: &MemoryMap,
        region_word: u64,
        x_words: u64,
        n: u64,
        partial_slots: u64,
    ) -> Result<Self, OffloadError> {
        let required = region_word + Self::region_words(x_words, n);
        if required > map.main_words() || PARTIALS_WORD + partial_slots > DATA_WORD {
            return Err(OffloadError::MainMemoryOverflow {
                required,
                capacity: map.main_words(),
            });
        }
        let base = map.main_base().add_words(region_word);
        Ok(MainLayout {
            desc: base.add_words(DESC_WORD),
            barrier: base.add_words(BARRIER_WORD),
            zero: base.add_words(ZERO_WORD),
            partials: base.add_words(PARTIALS_WORD),
            x: base.add_words(DATA_WORD),
            y: base.add_words(DATA_WORD + x_words),
        })
    }
}

/// TCDM placement of one cluster's slice of the job.
///
/// The slice runs in one or more pipeline stages, each holding one
/// sub-slice in a buffer of x and y words. One stage uses one buffer;
/// more stages alternate between two, so stage `k+1`'s DMA-in can fill
/// one while stage `k` computes on the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TcdmLayout {
    /// Local word of the x slice (present iff the kernel streams x).
    pub x_word: u64,
    /// Local word of the y slice (always present for map kernels — it is
    /// the output buffer — and absent for reductions that ignore y).
    pub y_word: u64,
    /// Words of one stage buffer (its x and y slices).
    pub buffer_words: u64,
    /// Local word of the per-core reduction partials (reduce kernels).
    pub out_word: u64,
    /// Local word of the scalar-argument area.
    pub args_word: u64,
    /// Total words used.
    pub used_words: u64,
}

impl TcdmLayout {
    /// Plans a cluster-local layout for `elems` elements of `kernel` run
    /// by `cores` worker cores in `stages` pipeline stages.
    pub fn plan(
        kernel: &dyn Kernel,
        elems: u64,
        cores: u64,
        stages: usize,
        capacity: u64,
    ) -> Result<Self, OffloadError> {
        let uses_x = kernel.uses_x();
        let needs_y_buffer = match kernel.kind() {
            mpsoc_kernels::KernelKind::Map => true,
            mpsoc_kernels::KernelKind::Reduce => kernel.uses_y(),
        };
        // A buffer holds the largest sub-slice, the first of `split_even`.
        let slice = elems.div_ceil(stages as u64);
        let x_words = if uses_x {
            slice * kernel.x_words_per_elem() + 2 * kernel.x_halo()
        } else {
            0
        };
        let y_words = if needs_y_buffer { slice } else { 0 };
        let out_words = match kernel.kind() {
            mpsoc_kernels::KernelKind::Map => 0,
            mpsoc_kernels::KernelKind::Reduce => cores,
        };
        let args_words = kernel.scalar_args().len() as u64 + 1; // + zero word
        let x_word = 0;
        let y_word = x_words;
        let buffer_words = x_words + y_words;
        let out_word = stages.min(2) as u64 * buffer_words;
        let args_word = out_word + out_words;
        let used_words = args_word + args_words;
        if used_words > capacity {
            return Err(OffloadError::TcdmOverflow {
                required: used_words,
                capacity,
            });
        }
        Ok(TcdmLayout {
            x_word,
            y_word,
            buffer_words,
            out_word,
            args_word,
            used_words,
        })
    }

    /// The layout pipeline stage `stage` works in: even stages use the
    /// first buffer, odd stages the second.
    pub fn buffer(&self, stage: usize) -> TcdmLayout {
        let shift = (stage % 2) as u64 * self.buffer_words;
        TcdmLayout {
            x_word: self.x_word + shift,
            y_word: self.y_word + shift,
            ..*self
        }
    }

    /// Builds the [`CoreSlice`] for worker `core`, given its chunk
    /// relative to the start of the slice in this buffer.
    pub fn core_slice(&self, kernel: &dyn Kernel, core: usize, chunk: Chunk) -> CoreSlice {
        let rel = chunk.start;
        let out_base = match kernel.kind() {
            mpsoc_kernels::KernelKind::Map => (self.y_word + rel) * WORD_BYTES,
            mpsoc_kernels::KernelKind::Reduce => (self.out_word + core as u64) * WORD_BYTES,
        };
        CoreSlice {
            elems: chunk.count,
            x_base: (self.x_word + kernel.x_halo() + rel * kernel.x_words_per_elem()) * WORD_BYTES,
            y_base: (self.y_word + rel) * WORD_BYTES,
            out_base,
            args_base: self.args_word * WORD_BYTES,
            core_index: core,
        }
    }
}

/// The per-cluster geometry shared by job building: each selected
/// cluster's chunk of the job and its TCDM plan.
pub(crate) struct JobGeometry {
    /// One chunk per selected cluster, in mask order.
    pub clusters: Vec<Chunk>,
    pub tcdm: Vec<TcdmLayout>,
    /// Pipeline stages each cluster runs.
    pub stages: usize,
}

impl JobGeometry {
    pub fn plan(
        kernel: &dyn Kernel,
        n: u64,
        clusters: usize,
        cores: usize,
        stages: usize,
        tcdm_capacity: u64,
    ) -> Result<Self, OffloadError> {
        let clusters = split_even(n, clusters);
        let tcdm = clusters
            .iter()
            .map(|chunk| TcdmLayout::plan(kernel, chunk.count, cores as u64, stages, tcdm_capacity))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(JobGeometry {
            clusters,
            tcdm,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernels::{Daxpy, Dot};

    #[test]
    fn main_layout_places_disjoint_regions() {
        let map = MemoryMap::new(4, 1 << 20);
        let l = MainLayout::plan(&map, 0, 1024, 1024, 32).unwrap();
        assert!(l.desc < l.barrier);
        assert!(l.barrier < l.partials);
        assert!(l.partials < l.x);
        assert_eq!(l.y, l.x.add_words(1024));
    }

    #[test]
    fn plan_at_zero_matches_plan_and_offsets_shift_everything() {
        let map = MemoryMap::new(4, 1 << 20);
        let a = MainLayout::plan(&map, 0, 256, 256, 8).unwrap();
        assert_eq!(a.desc, map.main_base());
        let span = MainLayout::region_words(256, 256);
        let c = MainLayout::plan(&map, span, 256, 256, 8).unwrap();
        assert_eq!(c.desc, a.desc.add_words(span));
        assert_eq!(c.barrier, a.barrier.add_words(span));
        assert_eq!(c.y, a.y.add_words(span));
        assert!(matches!(
            MainLayout::plan(&map, (1 << 20) - 10, 256, 256, 8),
            Err(OffloadError::MainMemoryOverflow { .. })
        ));
    }

    #[test]
    fn main_layout_rejects_oversized_jobs() {
        let map = MemoryMap::new(4, 2048);
        assert!(matches!(
            MainLayout::plan(&map, 0, 4096, 4096, 8),
            Err(OffloadError::MainMemoryOverflow { .. })
        ));
    }

    #[test]
    fn tcdm_layout_daxpy() {
        let k = Daxpy::new(2.0);
        let l = TcdmLayout::plan(&k, 128, 8, 1, 1 << 15).unwrap();
        assert_eq!(l.x_word, 0);
        assert_eq!(l.y_word, 128);
        assert_eq!(l.args_word, 256);
        assert_eq!(l.used_words, 258); // a + zero word

        let slice = l.core_slice(
            &k,
            2,
            Chunk {
                start: 32,
                count: 16,
            },
        );
        assert_eq!(slice.elems, 16);
        assert_eq!(slice.x_base, 32 * 8);
        assert_eq!(slice.y_base, (128 + 32) * 8);
        assert_eq!(slice.out_base, slice.y_base);
        assert_eq!(slice.args_base, 256 * 8);
    }

    #[test]
    fn tcdm_layout_reduce_has_partial_slots() {
        let k = Dot::new();
        let l = TcdmLayout::plan(&k, 64, 8, 1, 1 << 15).unwrap();
        // x 64 + y 64 + 8 partials + 1 zero word (no scalars).
        assert_eq!(l.out_word, 128);
        assert_eq!(l.args_word, 136);
        assert_eq!(l.used_words, 137);
        let slice = l.core_slice(&k, 3, Chunk { start: 8, count: 8 });
        assert_eq!(slice.out_base, (128 + 3) * 8);
    }

    #[test]
    fn tcdm_overflow_detected() {
        let k = Daxpy::new(1.0);
        assert!(matches!(
            TcdmLayout::plan(&k, 10_000, 8, 1, 1024),
            Err(OffloadError::TcdmOverflow { .. })
        ));
    }

    #[test]
    fn geometry_plans_every_cluster() {
        let k = Daxpy::new(1.0);
        let g = JobGeometry::plan(&k, 1000, 3, 8, 1, 1 << 15).unwrap();
        assert_eq!(g.tcdm.len(), 3);
        assert_eq!(g.clusters.len(), 3);
    }
}
