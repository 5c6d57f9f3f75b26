//! JSON program fixtures: known-good programs checked into the repo that
//! must lint clean forever, plus seeded-violation checks proving the
//! linter (and therefore CI) actually fails when a protocol bug is
//! introduced.
//!
//! Regenerate the fixture files after an intentional codegen change with:
//!
//! ```text
//! cargo test -p mpsoc-lint --test fixtures -- --ignored regenerate
//! ```

use std::fs;
use std::path::PathBuf;

use mpsoc_isa::{MicroOp, Program};
use mpsoc_kernels::{Daxpy, DaxpySsr, Dot, Kernel, Stencil3};
use mpsoc_lint::descriptor::reference_slices;
use mpsoc_lint::{lint_program, DiagCode, LintContext};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// The fixture set: one representative per codegen style — plain loop,
/// SSR+FREP streaming, reduction, and halo-addressing stencil.
fn fixture_kernels() -> Vec<(&'static str, Box<dyn Kernel>)> {
    vec![
        ("daxpy", Box::new(Daxpy::new(2.0)) as Box<dyn Kernel>),
        ("daxpy_ssr", Box::new(DaxpySsr::new(2.0))),
        ("dot", Box::new(Dot::new())),
        ("stencil3", Box::new(Stencil3::new(0.25, 0.5, 0.25))),
    ]
}

fn fixture_program(kernel: &dyn Kernel) -> Program {
    // Core 0 of an 8-core cluster over 64 elements: big enough to get a
    // steady-state loop, small enough to stay readable in the JSON.
    let slices = reference_slices(kernel, 64, 8).expect("fits");
    kernel.codegen(&slices[0]).expect("codegen")
}

#[test]
fn all_fixtures_lint_clean() {
    let cx = LintContext::manticore();
    let dir = fixtures_dir();
    let mut seen = 0;
    for entry in fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        seen += 1;
        let text = fs::read_to_string(&path).expect("read fixture");
        let program: Program = serde_json::from_str(&text).expect("parse fixture");
        let report = lint_program(&program, &cx);
        assert!(
            report.is_clean(),
            "{}:\n{}",
            path.display(),
            report.annotate(&program)
        );
    }
    assert_eq!(seen, fixture_kernels().len(), "missing fixture files");
}

#[test]
fn fixtures_match_current_codegen() {
    for (name, kernel) in fixture_kernels() {
        let path = fixtures_dir().join(format!("{name}.json"));
        let text = fs::read_to_string(&path).expect("read fixture");
        let stored: Program = serde_json::from_str(&text).expect("parse fixture");
        assert_eq!(
            stored,
            fixture_program(kernel.as_ref()),
            "{name}.json is stale; regenerate with \
             `cargo test -p mpsoc-lint --test fixtures -- --ignored regenerate`"
        );
    }
}

/// The CI failure mode the issue demands: seed an `ssr.cfg` between
/// `ssr.enable` and `ssr.disable` in a known-good program and the linter
/// must reject it with L004.
#[test]
fn seeded_ssr_cfg_while_enabled_is_caught() {
    let text = fs::read_to_string(fixtures_dir().join("daxpy_ssr.json")).expect("fixture");
    let program: Program = serde_json::from_str(&text).expect("parse fixture");
    assert!(lint_program(&program, &LintContext::manticore()).is_clean());

    let mut ops = program.ops().to_vec();
    let enable = ops
        .iter()
        .position(|op| matches!(op, MicroOp::SsrEnable))
        .expect("fixture streams");
    let reconfig = ops[enable - 1]; // the last pre-enable ssr.cfg
    assert!(matches!(reconfig, MicroOp::SsrCfg { .. }));
    ops.insert(enable + 1, reconfig);

    let broken = Program::from_ops_unchecked(ops);
    let report = lint_program(&broken, &LintContext::manticore());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::SsrCfgWhileEnabled),
        "seeded violation was not caught:\n{}",
        report.annotate(&broken)
    );
    assert!(report.has_errors());
}

/// A second seeded violation at the descriptor level: shrinking TCDM out
/// from under a linted program flips bounds checks to L010.
#[test]
fn seeded_tcdm_shrink_is_caught() {
    let text = fs::read_to_string(fixtures_dir().join("daxpy.json")).expect("fixture");
    let program: Program = serde_json::from_str(&text).expect("parse fixture");
    let tiny = LintContext {
        tcdm_words: 64,
        ..LintContext::manticore()
    };
    let report = lint_program(&program, &tiny);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::TcdmOutOfBounds),
        "{}",
        report.annotate(&program)
    );
}

#[test]
#[ignore = "writes fixture files; run after intentional codegen changes"]
fn regenerate() {
    let dir = fixtures_dir();
    fs::create_dir_all(&dir).expect("create fixtures dir");
    for (name, kernel) in fixture_kernels() {
        let program = fixture_program(kernel.as_ref());
        let report = lint_program(&program, &LintContext::manticore());
        assert!(
            report.is_clean(),
            "refusing to store a dirty fixture for {name}:\n{}",
            report.annotate(&program)
        );
        let json = serde_json::to_string_pretty(&program).expect("serialize");
        fs::write(dir.join(format!("{name}.json")), json + "\n").expect("write fixture");
    }
}
