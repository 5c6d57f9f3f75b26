//! Descriptor/SoC-level checks: tile races (L101), tenant cluster-mask
//! overlap (L102) and Eq. 3 deadline feasibility (L103).
//!
//! These lints run over job *descriptors* rather than programs: the
//! per-core TCDM tiles a job carves out, the cluster masks concurrent
//! tenants hold, and the deadline a job asks the Eq. 3 planner to meet.

use mpsoc_kernels::{CoreSlice, Kernel, KernelKind};
use mpsoc_noc::ClusterMask;
use mpsoc_offload::decision::min_clusters;
use mpsoc_offload::RuntimeModel;

use crate::cost::CostError;
use crate::diag::{DiagCode, Diagnostic};

/// The per-core [`CoreSlice`]s one cluster of `cores` workers would use
/// for `elems` elements of `kernel`, mirroring the runtime's TCDM
/// planner: `x` (with halo), then `y`, then reduction partials, then the
/// scalar-argument area.
///
/// This is the reference geometry the `lint_kernels` bench and the
/// scheduler's admission gate lint against.
///
/// # Errors
///
/// A [`CostError`] carrying an L010 diagnostic when a byte address of
/// the geometry does not fit in a `u64`.
pub fn reference_slices(
    kernel: &dyn Kernel,
    elems: u64,
    cores: usize,
) -> Result<Vec<CoreSlice>, CostError> {
    let overflow = || CostError::address_overflow(kernel, elems);
    let bytes = |word: Option<u64>| word.and_then(|w| w.checked_mul(8)).ok_or_else(overflow);
    let x_words = if kernel.uses_x() {
        elems
            .checked_mul(kernel.x_words_per_elem())
            .and_then(|w| w.checked_add(2 * kernel.x_halo()))
            .ok_or_else(overflow)?
    } else {
        0
    };
    let needs_y_buffer = match kernel.kind() {
        KernelKind::Map => true,
        KernelKind::Reduce => kernel.uses_y(),
    };
    let y_words = if needs_y_buffer { elems } else { 0 };
    let out_words = match kernel.kind() {
        KernelKind::Map => 0,
        KernelKind::Reduce => cores as u64,
    };
    let y_word = x_words;
    let out_word = x_words.checked_add(y_words).ok_or_else(overflow)?;
    let args_base = bytes(out_word.checked_add(out_words))?;

    mpsoc_kernels::partition::split_even(elems, cores)
        .into_iter()
        .enumerate()
        .map(|(core, chunk)| {
            let rel = chunk.start;
            let y_base = bytes(y_word.checked_add(rel))?;
            Ok(CoreSlice {
                elems: chunk.count,
                x_base: bytes(
                    rel.checked_mul(kernel.x_words_per_elem())
                        .and_then(|w| w.checked_add(kernel.x_halo())),
                )?,
                y_base,
                out_base: match kernel.kind() {
                    KernelKind::Map => y_base,
                    KernelKind::Reduce => bytes(out_word.checked_add(core as u64))?,
                },
                args_base,
                core_index: core,
            })
        })
        .collect()
}

/// Words of TCDM the [`reference_slices`] geometry occupies.
///
/// # Errors
///
/// See [`reference_slices`].
pub fn reference_used_words(
    kernel: &dyn Kernel,
    elems: u64,
    cores: usize,
) -> Result<u64, CostError> {
    let slices = reference_slices(kernel, elems, cores)?;
    let args_words = kernel.scalar_args().len() as u64 + 1;
    Ok(slices
        .first()
        .map_or(args_words, |s| s.args_base / 8 + args_words))
}

/// L101: write-write and read-write races between the tiles of one
/// cluster's cores. Cores run concurrently with no intra-job barrier, so
/// any byte both written by one core and touched by another is a race.
pub fn lint_core_tiles(kernel: &dyn Kernel, slices: &[CoreSlice]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let footprints: Vec<_> = slices
        .iter()
        .map(|s| (s.core_index, s.read_ranges(kernel), s.write_ranges(kernel)))
        .collect();
    for (i, (core_a, reads_a, writes_a)) in footprints.iter().enumerate() {
        for (core_b, reads_b, writes_b) in footprints.iter().skip(i + 1) {
            for wa in writes_a {
                for wb in writes_b {
                    if wa.overlaps(wb) {
                        out.push(Diagnostic::global(
                            DiagCode::TileOverlap,
                            format!(
                                "cores {core_a} and {core_b} both write TCDM bytes \
                                 {}..{} / {}..{}",
                                wa.start, wa.end, wb.start, wb.end
                            ),
                        ));
                    }
                }
            }
            for (wr_core, rd_core, writes, reads) in [
                (core_a, core_b, writes_a, reads_b),
                (core_b, core_a, writes_b, reads_a),
            ] {
                for w in writes {
                    for r in reads {
                        if w.overlaps(r) {
                            out.push(Diagnostic::global(
                                DiagCode::TileOverlap,
                                format!(
                                    "core {wr_core} writes TCDM bytes {}..{} while core \
                                     {rd_core} reads {}..{}",
                                    w.start, w.end, r.start, r.end
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// L102: cluster masks of concurrently-running tenants must be disjoint —
/// an overlap means two jobs multicast to the same cluster and corrupt
/// each other's TCDM.
pub fn lint_tenant_masks(tenants: &[(&str, ClusterMask)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, (name_a, mask_a)) in tenants.iter().enumerate() {
        for (name_b, mask_b) in tenants.iter().skip(i + 1) {
            let shared = ClusterMask::from_bits(mask_a.bits() & mask_b.bits());
            if !shared.is_empty() {
                out.push(Diagnostic::global(
                    DiagCode::MaskOverlap,
                    format!(
                        "tenants {name_a:?} and {name_b:?} both hold cluster(s) {:?}",
                        shared.iter().collect::<Vec<_>>()
                    ),
                ));
            }
        }
    }
    out
}

/// L103: Eq. 3 feasibility of a deadline. Infeasible outright (the
/// serial fraction alone exceeds `t_max`) or infeasible on this machine
/// (Eq. 3 demands more clusters than `available`).
pub fn lint_deadline(model: &RuntimeModel, n: u64, t_max: f64, available: u64) -> Vec<Diagnostic> {
    match min_clusters(model, n, t_max) {
        None => vec![Diagnostic::global(
            DiagCode::DeadlineInfeasible,
            format!(
                "no cluster count meets the {t_max}-cycle deadline for n={n}: the serial \
                 fraction alone exceeds it (Eq. 3 has no solution)"
            ),
        )],
        Some(required) if required > available => vec![Diagnostic::global(
            DiagCode::DeadlineInfeasible,
            format!(
                "Eq. 3 needs {required} clusters for n={n} within {t_max} cycles, but the \
                 machine has {available}"
            ),
        )],
        Some(_) => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernels::{Daxpy, Dot, Gemv, Stencil3};

    #[test]
    fn reference_slices_match_the_runtime_planner() {
        // Mirror of the TcdmLayout daxpy test in mpsoc-offload.
        let k = Daxpy::new(2.0);
        let slices = reference_slices(&k, 128, 8).expect("fits");
        assert_eq!(slices.len(), 8);
        assert_eq!(slices[0].x_base, 0);
        assert_eq!(slices[0].y_base, 128 * 8);
        assert_eq!(slices[0].args_base, 256 * 8);
        assert_eq!(slices[2].elems, 16);
        assert_eq!(slices[2].x_base, 32 * 8);
        assert_eq!(slices[2].y_base, (128 + 32) * 8);
        assert_eq!(slices[2].out_base, slices[2].y_base);
        assert_eq!(reference_used_words(&k, 128, 8).expect("fits"), 258);
    }

    #[test]
    fn reduce_slices_get_disjoint_partial_slots() {
        let k = Dot::new();
        let slices = reference_slices(&k, 64, 8).expect("fits");
        assert_eq!(slices[3].out_base, (128 + 3) * 8);
        assert_eq!(reference_used_words(&k, 64, 8).expect("fits"), 137);
    }

    #[test]
    fn a_geometry_past_the_address_space_is_a_typed_error() {
        // DAXPY keeps x and y, 16 bytes per element: 2^60 elements end
        // at byte 2^64, and 2^59 end at 2^63.
        for (kernel, elems) in [
            (&Daxpy::new(2.0) as &dyn Kernel, 1u64 << 60),
            (&Daxpy::new(2.0), 1 << 62),
            (&Dot::new(), 1 << 62),
            (&Daxpy::new(2.0), u64::MAX),
        ] {
            let err = reference_slices(kernel, elems, 8).expect_err("overflows");
            assert!(err.report.has_errors());
            assert!(err
                .report
                .diagnostics
                .iter()
                .all(|d| d.code == DiagCode::TcdmOutOfBounds));
            assert!(reference_used_words(kernel, elems, 8).is_err());
        }
        let slices = reference_slices(&Daxpy::new(2.0), 1 << 59, 8).expect("fits");
        assert_eq!(slices[0].args_base, 1 << 63);
    }

    #[test]
    fn well_partitioned_tiles_do_not_race() {
        for (kernel, elems) in [
            (&Daxpy::new(2.0) as &dyn Kernel, 100u64),
            (&Dot::new(), 64),
            (&Gemv::new(vec![1.0, 2.0, 3.0]), 17),
            (&Stencil3::new(0.25, 0.5, 0.25), 33),
        ] {
            let slices = reference_slices(kernel, elems, 8).expect("fits");
            let diags = lint_core_tiles(kernel, &slices);
            assert!(diags.is_empty(), "{}: {diags:?}", kernel.name());
        }
    }

    #[test]
    fn overlapping_output_tiles_race() {
        let k = Daxpy::new(2.0);
        let mut slices = reference_slices(&k, 64, 4).expect("fits");
        // Misplace core 1's output on top of core 0's.
        slices[1].y_base = slices[0].y_base;
        slices[1].out_base = slices[0].out_base;
        let diags = lint_core_tiles(&k, &slices);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::TileOverlap),
            "{diags:?}"
        );
        // Both the W-W race and the R-W race (daxpy streams y in) show up.
        assert!(diags.len() >= 2, "{diags:?}");
    }

    #[test]
    fn write_into_neighbours_read_slice_races() {
        let k = Daxpy::new(2.0);
        let mut slices = reference_slices(&k, 64, 4).expect("fits");
        // Core 2's output lands in core 3's x slice.
        slices[2].out_base = slices[3].x_base;
        let diags = lint_core_tiles(&k, &slices);
        assert!(diags
            .iter()
            .any(|d| d.code == DiagCode::TileOverlap && d.message.contains("core 2 writes")));
    }

    #[test]
    fn shared_args_area_is_not_a_race() {
        // Every core reads the same scalar args — read-read sharing is
        // exactly what the layout intends.
        let k = Gemv::new(vec![1.0; 4]);
        let slices = reference_slices(&k, 8, 8).expect("fits");
        assert!(slices.windows(2).all(|w| w[0].args_base == w[1].args_base));
        assert!(lint_core_tiles(&k, &slices).is_empty());
    }

    #[test]
    fn disjoint_masks_are_clean_overlapping_masks_race() {
        let a = ClusterMask::from_bits(0b0000_1111);
        let b = ClusterMask::from_bits(0b1111_0000);
        assert!(lint_tenant_masks(&[("a", a), ("b", b)]).is_empty());

        let c = ClusterMask::from_bits(0b0001_1000);
        let diags = lint_tenant_masks(&[("a", a), ("b", b), ("c", c)]);
        assert_eq!(diags.len(), 2, "{diags:?}"); // c vs a and c vs b
        assert!(diags.iter().all(|d| d.code == DiagCode::MaskOverlap));
        assert!(diags[0].message.contains("[3]"));
    }

    #[test]
    fn deadline_feasibility_follows_eq3() {
        let model = RuntimeModel::paper();
        // Feasible: n=1024 within 650 cycles needs 13 of 32 clusters.
        assert!(lint_deadline(&model, 1024, 650.0, 32).is_empty());
        // Machine too small: needs 20, has 8.
        let diags = lint_deadline(&model, 1024, 640.0, 8);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("20 clusters"));
        // Outright infeasible: below the serial fraction.
        let diags = lint_deadline(&model, 1024, 100.0, 32);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no cluster count"));
        assert_eq!(diags[0].code, DiagCode::DeadlineInfeasible);
    }
}
