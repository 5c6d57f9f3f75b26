//! Statically verifies the whole kernel zoo with `mpsoc-lint`: every
//! kernel, every per-core slice over a size sweep, plus the checked-in
//! JSON program fixtures and the descriptor-level tile-race check.
//!
//! Any lint finding, warning or error, fails the run (exit 1) after the
//! report is written, so the failing rows can be read.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     --only lint_kernels [--smoke] [--out <dir> | --replay <dir>]
//! ```
//!
//! `--smoke` shrinks the size sweep. The command line and the report's
//! life cycle are [`crate::study`]'s: a full run writes
//! `results/lint_kernels.json` by default, and `--replay` re-runs and
//! byte-compares.

use std::error::Error;
use std::fs;
use std::path::Path;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_isa::Program;
use mpsoc_kernels::zoo;
use mpsoc_lint::descriptor::{lint_core_tiles, reference_slices};
use mpsoc_lint::{lint_program, LintContext};
use serde::Serialize;

const SIZES: [u64; 5] = [1, 7, 64, 250, 1024];
const CORES: usize = 8;

#[derive(Debug, Serialize)]
struct LintRow {
    target: String,
    programs: usize,
    ops: usize,
    warnings: usize,
    errors: usize,
}

pub(super) fn run(run: &Run) -> Result<Output, Box<dyn Error>> {
    let sizes: &[u64] = if run.smoke { &[1, 64, 250] } else { &SIZES };
    let cx = LintContext::manticore();
    let mut rows: Vec<LintRow> = Vec::new();
    let mut failures = String::new();

    for kernel in zoo() {
        let mut row = LintRow {
            target: kernel.name().to_owned(),
            programs: 0,
            ops: 0,
            warnings: 0,
            errors: 0,
        };
        for &elems in sizes {
            let slices = reference_slices(kernel.as_ref(), elems, CORES)?;
            for diag in lint_core_tiles(kernel.as_ref(), &slices) {
                row.errors += 1;
                failures.push_str(&format!(
                    "{} (N={elems}): {}\n",
                    kernel.name(),
                    diag.message
                ));
            }
            for slice in &slices {
                if slice.elems == 0 {
                    continue;
                }
                let program = match kernel.codegen(slice) {
                    Ok(p) => p,
                    Err(e) => {
                        row.errors += 1;
                        failures.push_str(&format!(
                            "{} (N={elems}, core {}): codegen failed: {e}\n",
                            kernel.name(),
                            slice.core_index
                        ));
                        continue;
                    }
                };
                row.programs += 1;
                row.ops += program.ops().len();
                let report = lint_program(&program, &cx);
                row.warnings += report.warning_count();
                row.errors += report.error_count();
                if !report.is_clean() {
                    failures.push_str(&format!(
                        "{} (N={elems}, core {}):\n{}\n",
                        kernel.name(),
                        slice.core_index,
                        report.annotate(&program)
                    ));
                }
            }
        }
        rows.push(row);
    }

    // The checked-in fixture programs: CI tampering with these (or a
    // codegen change that invalidates them) must fail here as well.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../lint/fixtures");
    let mut paths = Vec::new();
    for entry in fs::read_dir(&fixtures)
        .map_err(|e| format!("fixture directory {}: {e}", fixtures.display()))?
    {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "json") {
            paths.push(path);
        }
    }
    paths.sort();
    for path in paths {
        let name = path.file_stem().unwrap_or_default().to_string_lossy();
        let mut row = LintRow {
            target: format!("fixture:{name}"),
            programs: 0,
            ops: 0,
            warnings: 0,
            errors: 0,
        };
        let parsed: Result<Program, _> = fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()));
        match parsed {
            Ok(program) => {
                row.programs = 1;
                row.ops = program.ops().len();
                let report = lint_program(&program, &cx);
                row.warnings += report.warning_count();
                row.errors += report.error_count();
                if !report.is_clean() {
                    failures.push_str(&format!(
                        "{}:\n{}\n",
                        path.display(),
                        report.annotate(&program)
                    ));
                }
            }
            Err(e) => {
                row.errors += 1;
                failures.push_str(&format!("{}: unreadable: {e}\n", path.display()));
            }
        }
        rows.push(row);
    }

    println!("mpsoc-lint — static verification of the kernel zoo\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.target.clone(),
                r.programs.to_string(),
                r.ops.to_string(),
                r.warnings.to_string(),
                r.errors.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["target", "programs", "ops", "warnings", "errors"], &table)
    );

    let warnings: usize = rows.iter().map(|r| r.warnings).sum();
    let errors: usize = rows.iter().map(|r| r.errors).sum();
    if !failures.is_empty() {
        println!("findings:\n{failures}");
    }
    println!("total: {warnings} warning(s), {errors} error(s)");
    Ok(Output::json(&rows)?.passed(warnings == 0 && errors == 0))
}
