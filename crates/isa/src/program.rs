//! Programs and the label-resolving builder.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::exec::Compiled;
use crate::{FpReg, IntReg, MicroOp};

/// A forward-referenceable jump target handed out by
/// [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An error from [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A label was referenced by a branch but never bound.
    UnboundLabel {
        /// The label's internal id.
        label: usize,
    },
    /// The program has no terminating `halt` on its fall-through path.
    MissingHalt,
    /// The program is empty.
    Empty,
    /// A `frep` op asks for zero iterations.
    FrepZeroIterations {
        /// Index of the offending `frep`.
        op: usize,
    },
    /// A `frep` op has an empty body.
    FrepEmptyBody {
        /// Index of the offending `frep`.
        op: usize,
    },
    /// A `frep` body extends past the end of the program.
    FrepBodyOutOfRange {
        /// Index of the offending `frep`.
        op: usize,
        /// Index of the last body op it claims.
        body_end: usize,
        /// Program length.
        len: usize,
    },
    /// A branch targets the interior of a `frep` body (hardware loops
    /// cannot be entered sideways; branch to the `frep` op itself).
    BranchIntoFrepBody {
        /// Index of the offending branch.
        op: usize,
        /// Its resolved target.
        target: usize,
        /// Index of the `frep` whose body the target falls into.
        frep: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel { label } => {
                write!(f, "label {label} referenced but never bound")
            }
            BuildError::MissingHalt => write!(f, "program does not end in halt"),
            BuildError::Empty => write!(f, "program is empty"),
            BuildError::FrepZeroIterations { op } => {
                write!(f, "frep at op {op} has zero iterations")
            }
            BuildError::FrepEmptyBody { op } => write!(f, "frep at op {op} has an empty body"),
            BuildError::FrepBodyOutOfRange { op, body_end, len } => write!(
                f,
                "frep at op {op} claims a body ending at op {body_end}, past the program end ({len} ops)"
            ),
            BuildError::BranchIntoFrepBody { op, target, frep } => write!(
                f,
                "branch at op {op} targets op {target}, inside the body of the frep at op {frep}"
            ),
        }
    }
}

impl Error for BuildError {}

/// A validated, executable sequence of micro-ops.
///
/// Construct with [`ProgramBuilder`]; a `Program` always ends in
/// [`MicroOp::Halt`] and all branch targets are resolved in-range.
///
/// A program also holds the compiled form the
/// [`Interpreter`](crate::Interpreter) keeps after its first successful
/// run on a conflict-free port that lends its words. Clones share it,
/// so every copy of a program finds the form the first run built; a
/// newly built or parsed program starts without one. Equality, `Debug`
/// and the JSON form see the ops alone.
#[derive(Clone)]
pub struct Program {
    ops: Vec<MicroOp>,
    compiled: Arc<OnceLock<Compiled>>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program").field("ops", &self.ops).finish()
    }
}

impl Serialize for Program {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.begin_object();
        w.field("ops", &self.ops);
        w.end_object();
    }
}

impl Deserialize for Program {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        /// A program's JSON form: its ops.
        #[derive(Deserialize)]
        struct Ops {
            ops: Vec<MicroOp>,
        }
        Ok(Program::from_ops_unchecked(Ops::deserialize(r)?.ops))
    }
}

/// One annotation attached to a [`Program::listing_annotated`] listing:
/// a note rendered under the op it refers to (or at the top of the
/// listing when `op` is `None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListingNote {
    /// The op index the note refers to, if any.
    pub op: Option<usize>,
    /// The note text, e.g. `"L004 error: ssr.cfg while streaming"`.
    pub text: String,
}

impl Program {
    /// Wraps raw ops into a `Program` **without** running the builder's
    /// validation.
    ///
    /// Exists for analysis tooling and tests that need deliberately
    /// malformed programs (unterminated, invalid `frep` geometry, …);
    /// executing such a program may fail with
    /// [`ExecError`](crate::ExecError). Regular code should always go
    /// through [`ProgramBuilder`].
    pub fn from_ops_unchecked(ops: Vec<MicroOp>) -> Self {
        Program {
            ops,
            compiled: Arc::default(),
        }
    }

    /// `true` once a run has compiled the program: a later run with the
    /// same core timing, on a conflict-free port that lends as many
    /// words, executes only the compiled run's data flow (see
    /// [`Interpreter::run_from`](crate::Interpreter::run_from)).
    pub fn is_compiled(&self) -> bool {
        self.compiled.get().is_some_and(Compiled::has_plan)
    }

    /// The cell the program's clones share its compiled form in.
    pub(crate) fn compiled(&self) -> &OnceLock<Compiled> {
        &self.compiled
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[MicroOp] {
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

    /// Renders a human-readable listing.
    pub fn listing(&self) -> String {
        self.listing_annotated(&[])
    }

    /// Renders a listing with `notes` interleaved: program-level notes
    /// (`op: None`) come first, per-op notes directly under their op —
    /// the format lint reports use so CI logs stay readable.
    pub fn listing_annotated(&self, notes: &[ListingNote]) -> String {
        let mut out = String::new();
        for note in notes.iter().filter(|n| n.op.is_none()) {
            out.push_str(&format!("       ! {}\n", note.text));
        }
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("{i:>5}: {op}\n"));
            for note in notes.iter().filter(|n| n.op == Some(i)) {
                out.push_str(&format!("       ^ {}\n", note.text));
            }
        }
        out
    }
}

/// Incrementally builds a [`Program`], resolving forward branch labels.
///
/// # Example
///
/// ```
/// use mpsoc_isa::{IntReg, ProgramBuilder};
///
/// # fn main() -> Result<(), mpsoc_isa::BuildError> {
/// let mut b = ProgramBuilder::new();
/// let x1 = IntReg::new(1);
/// b.li(x1, 3);
/// let top = b.label();
/// b.bind(top);
/// b.addi(x1, x1, -1);
/// b.bnez(x1, top); // loop three times
/// b.halt();
/// let program = b.build()?;
/// assert_eq!(program.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<MicroOp>,
    /// For each label id: the op index it is bound to, if bound.
    labels: Vec<Option<usize>>,
    /// `(op_index, label_id)` pairs to patch at build time.
    fixups: Vec<(usize, usize)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Number of ops emitted so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no ops have been emitted.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next emitted op.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.ops.len());
    }

    /// Emits a raw op.
    pub fn push(&mut self, op: MicroOp) {
        self.ops.push(op);
    }

    /// Emits `li rd, imm`.
    pub fn li(&mut self, rd: IntReg, imm: i64) {
        self.push(MicroOp::Li { rd, imm });
    }

    /// Emits `addi rd, rs, imm`.
    pub fn addi(&mut self, rd: IntReg, rs: IntReg, imm: i64) {
        self.push(MicroOp::Addi { rd, rs, imm });
    }

    /// Emits `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(MicroOp::Add { rd, rs1, rs2 });
    }

    /// Emits `fld fd, offset(rs)`.
    pub fn fld(&mut self, fd: FpReg, rs: IntReg, offset: i64) {
        self.push(MicroOp::Fld { fd, rs, offset });
    }

    /// Emits `fsd fs, offset(rs)`.
    pub fn fsd(&mut self, fs: FpReg, rs: IntReg, offset: i64) {
        self.push(MicroOp::Fsd { fs, rs, offset });
    }

    /// Emits a 128-bit paired store.
    pub fn fsd_pair(&mut self, fs1: FpReg, fs2: FpReg, rs: IntReg, offset: i64) {
        self.push(MicroOp::FsdPair {
            fs1,
            fs2,
            rs,
            offset,
        });
    }

    /// Emits `fmadd fd, fa, fb, fc` (`fd = fa*fb + fc`).
    pub fn fmadd(&mut self, fd: FpReg, fa: FpReg, fb: FpReg, fc: FpReg) {
        self.push(MicroOp::Fmadd { fd, fa, fb, fc });
    }

    /// Emits `fadd fd, fa, fb`.
    pub fn fadd(&mut self, fd: FpReg, fa: FpReg, fb: FpReg) {
        self.push(MicroOp::Fadd { fd, fa, fb });
    }

    /// Emits `fmul fd, fa, fb`.
    pub fn fmul(&mut self, fd: FpReg, fa: FpReg, fb: FpReg) {
        self.push(MicroOp::Fmul { fd, fa, fb });
    }

    /// Emits `bnez rs, label` (target patched at build time).
    pub fn bnez(&mut self, rs: IntReg, label: Label) {
        self.fixups.push((self.ops.len(), label.0));
        self.push(MicroOp::Bnez { rs, target: 0 });
    }

    /// Emits an SSR stream configuration.
    ///
    /// # Panics
    ///
    /// Panics if `stream >= 3`.
    pub fn ssr_cfg(&mut self, stream: u8, base: IntReg, stride: i64, count: u64, write: bool) {
        assert!(stream < 3, "only streams 0-2 exist");
        self.push(MicroOp::SsrCfg {
            stream,
            base,
            stride,
            count,
            write,
        });
    }

    /// Emits `ssr.enable`.
    pub fn ssr_enable(&mut self) {
        self.push(MicroOp::SsrEnable);
    }

    /// Emits `ssr.disable`.
    pub fn ssr_disable(&mut self) {
        self.push(MicroOp::SsrDisable);
    }

    /// Emits `frep iterations, body` (hardware loop over the next `body`
    /// ops).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` or `body` is zero.
    pub fn frep(&mut self, iterations: u64, body: u8) {
        assert!(iterations > 0, "frep needs at least one iteration");
        assert!(body > 0, "frep body cannot be empty");
        self.push(MicroOp::Frep { iterations, body });
    }

    /// Emits `halt`.
    pub fn halt(&mut self) {
        self.push(MicroOp::Halt);
    }

    /// Validates and finalizes the program.
    ///
    /// # Errors
    ///
    /// - [`BuildError::Empty`] for an empty program,
    /// - [`BuildError::MissingHalt`] when the last op is not `halt`,
    /// - [`BuildError::UnboundLabel`] when a branch references an unbound
    ///   label,
    /// - [`BuildError::FrepZeroIterations`], [`BuildError::FrepEmptyBody`]
    ///   and [`BuildError::FrepBodyOutOfRange`] for malformed hardware
    ///   loops (possible via [`ProgramBuilder::push`], which skips the
    ///   [`ProgramBuilder::frep`] assertions),
    /// - [`BuildError::BranchIntoFrepBody`] when a branch resolves into
    ///   the interior of a `frep` body.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if self.ops.is_empty() {
            return Err(BuildError::Empty);
        }
        if !matches!(self.ops.last(), Some(MicroOp::Halt)) {
            return Err(BuildError::MissingHalt);
        }
        for &(op_index, label_id) in &self.fixups {
            let target =
                self.labels[label_id].ok_or(BuildError::UnboundLabel { label: label_id })?;
            if let MicroOp::Bnez { target: t, .. } = &mut self.ops[op_index] {
                *t = target;
            }
        }
        // Hardware-loop geometry: every frep body must be non-empty and
        // lie fully inside the program, and no branch may land in a
        // body's interior (re-entering a hardware loop sideways).
        let len = self.ops.len();
        let freps: Vec<(usize, usize)> = self
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match *op {
                MicroOp::Frep { iterations, body } => Some((i, iterations, body)),
                _ => None,
            })
            .map(|(i, iterations, body)| {
                if iterations == 0 {
                    return Err(BuildError::FrepZeroIterations { op: i });
                }
                if body == 0 {
                    return Err(BuildError::FrepEmptyBody { op: i });
                }
                let body_end = i + body as usize;
                if body_end >= len {
                    return Err(BuildError::FrepBodyOutOfRange {
                        op: i,
                        body_end,
                        len,
                    });
                }
                Ok((i, body_end))
            })
            .collect::<Result<_, _>>()?;
        for (op_index, op) in self.ops.iter().enumerate() {
            let MicroOp::Bnez { target, .. } = *op else {
                continue;
            };
            if let Some(&(frep, _)) = freps
                .iter()
                .find(|&&(i, body_end)| target > i && target <= body_end)
            {
                return Err(BuildError::BranchIntoFrepBody {
                    op: op_index,
                    target,
                    frep,
                });
            }
        }
        Ok(Program::from_ops_unchecked(self.ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let x = IntReg::new(0);
        let skip = b.label(); // forward
        b.li(x, 1);
        b.bnez(x, skip);
        b.addi(x, x, 7); // skipped
        b.bind(skip);
        b.halt();
        let p = b.build().unwrap();
        match p.ops()[1] {
            MicroOp::Bnez { target, .. } => assert_eq!(target, 3),
            ref other => panic!("expected bnez, got {other}"),
        }
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(ProgramBuilder::new().build(), Err(BuildError::Empty));
    }

    #[test]
    fn missing_halt_rejected() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::new(0), 1);
        assert_eq!(b.build(), Err(BuildError::MissingHalt));
    }

    #[test]
    fn unbound_label_rejected() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bnez(IntReg::new(0), l);
        b.halt();
        assert_eq!(b.build(), Err(BuildError::UnboundLabel { label: 0 }));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn listing_is_readable() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::new(1), 5);
        b.halt();
        let p = b.build().unwrap();
        let text = p.listing();
        assert!(text.contains("0: li x1, 5"));
        assert!(text.contains("1: halt"));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn errors_display() {
        assert!(BuildError::Empty.to_string().contains("empty"));
        assert!(BuildError::MissingHalt.to_string().contains("halt"));
        assert!(BuildError::UnboundLabel { label: 3 }
            .to_string()
            .contains("3"));
        assert!(BuildError::FrepZeroIterations { op: 2 }
            .to_string()
            .contains("zero iterations"));
        assert!(BuildError::FrepEmptyBody { op: 2 }
            .to_string()
            .contains("empty body"));
        assert!(BuildError::FrepBodyOutOfRange {
            op: 0,
            body_end: 5,
            len: 2
        }
        .to_string()
        .contains("past the program end"));
        assert!(BuildError::BranchIntoFrepBody {
            op: 4,
            target: 2,
            frep: 1
        }
        .to_string()
        .contains("inside the body"));
    }

    #[test]
    fn frep_zero_iterations_rejected() {
        let mut b = ProgramBuilder::new();
        b.push(MicroOp::Frep {
            iterations: 0,
            body: 1,
        });
        b.fadd(FpReg::new(3), FpReg::new(3), FpReg::new(3));
        b.halt();
        assert_eq!(b.build(), Err(BuildError::FrepZeroIterations { op: 0 }));
    }

    #[test]
    fn frep_empty_body_rejected() {
        let mut b = ProgramBuilder::new();
        b.push(MicroOp::Frep {
            iterations: 4,
            body: 0,
        });
        b.halt();
        assert_eq!(b.build(), Err(BuildError::FrepEmptyBody { op: 0 }));
    }

    #[test]
    fn frep_body_out_of_range_rejected() {
        let mut b = ProgramBuilder::new();
        b.frep(3, 5); // body would cover ops 1..=5, but only op 1 exists
        b.halt();
        assert_eq!(
            b.build(),
            Err(BuildError::FrepBodyOutOfRange {
                op: 0,
                body_end: 5,
                len: 2
            })
        );
    }

    #[test]
    fn branch_into_frep_body_rejected() {
        let mut b = ProgramBuilder::new();
        let x = IntReg::new(1);
        b.li(x, 3); // 0
        let mid = b.label();
        b.frep(2, 2); // 1: body = ops 2..=3
        b.bind(mid); // binds to op 2, inside the body
        b.fadd(FpReg::new(3), FpReg::new(3), FpReg::new(3)); // 2
        b.fadd(FpReg::new(4), FpReg::new(4), FpReg::new(4)); // 3
        b.bnez(x, mid); // 4
        b.halt(); // 5
        assert_eq!(
            b.build(),
            Err(BuildError::BranchIntoFrepBody {
                op: 4,
                target: 2,
                frep: 1
            })
        );
    }

    #[test]
    fn branch_to_frep_op_itself_is_fine() {
        let mut b = ProgramBuilder::new();
        let x = IntReg::new(1);
        b.li(x, 3); // 0
        let top = b.label();
        b.bind(top); // op 1: the frep itself — a legal re-entry point
        b.frep(2, 1); // 1
        b.fadd(FpReg::new(3), FpReg::new(3), FpReg::new(3)); // 2
        b.addi(x, x, -1); // 3
        b.bnez(x, top); // 4
        b.halt(); // 5
        assert!(b.build().is_ok());
    }

    #[test]
    fn listing_annotated_interleaves_notes() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::new(1), 5);
        b.halt();
        let p = b.build().unwrap();
        let notes = vec![
            ListingNote {
                op: None,
                text: "program-level note".to_string(),
            },
            ListingNote {
                op: Some(1),
                text: "L999 something about halt".to_string(),
            },
        ];
        let text = p.listing_annotated(&notes);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("! program-level note"));
        assert!(lines[1].contains("0: li x1, 5"));
        assert!(lines[2].contains("1: halt"));
        assert!(lines[3].contains("^ L999 something about halt"));
        // Un-annotated listing is unchanged.
        assert_eq!(p.listing(), p.listing_annotated(&[]));
    }
}
