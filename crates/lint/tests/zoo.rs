//! The linter must pass the entire kernel zoo with zero findings: every
//! kernel, every per-core slice, across sizes that exercise remainder
//! handling, software-pipeline prologues and halo geometry.

use mpsoc_kernels::zoo;
use mpsoc_lint::descriptor::{lint_core_tiles, reference_slices};
use mpsoc_lint::{lint_program, LintContext};

const SIZES: [u64; 5] = [1, 7, 10, 64, 250];
const CORES: usize = 8;

#[test]
fn every_zoo_kernel_lints_clean_on_every_slice() {
    let cx = LintContext::manticore();
    for kernel in zoo() {
        for elems in SIZES {
            for slice in reference_slices(kernel.as_ref(), elems, CORES).expect("fits") {
                if slice.elems == 0 {
                    // Empty slices legitimately skip their loop; their
                    // preamble is dead by design.
                    continue;
                }
                let program = kernel.codegen(&slice).expect("codegen");
                let report = lint_program(&program, &cx);
                assert!(
                    report.is_clean(),
                    "{} (elems={elems}, core={}):\n{}",
                    kernel.name(),
                    slice.core_index,
                    report.annotate(&program)
                );
            }
        }
    }
}

#[test]
fn every_zoo_kernel_partitions_without_tile_races() {
    for kernel in zoo() {
        for elems in SIZES {
            let slices = reference_slices(kernel.as_ref(), elems, CORES).expect("fits");
            let diags = lint_core_tiles(kernel.as_ref(), &slices);
            assert!(
                diags.is_empty(),
                "{} (elems={elems}): {diags:?}",
                kernel.name()
            );
        }
    }
}
