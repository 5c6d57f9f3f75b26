//! Static cycle-bound analysis: sound `[best, worst]` cycle intervals
//! from micro-program to whole offload.
//!
//! Three layers, each feeding the next:
//!
//! 1. **Program bounds** ([`bound_program`]) — the interpreter's own
//!    timing model ([`OpTiming`], [`Clocks`], [`SteadyState`]), run
//!    without data over a *loop-structured* view of the program
//!    recovered by [`loop_structure`]. Counted loops (a single `li C` /
//!    `addi -d` / `bnez` countdown, or FREP geometry) run pass by pass
//!    until a pass starts in the state the one before it started in,
//!    relative to fetch; every clock then moves on by that interval
//!    times the passes left. The bounds are exact: on an ideal TCDM
//!    `best == worst ==` the interpreter's finish, and the widened worst
//!    side is its finish on a port that delays every access by the
//!    widening. Control flow the analysis cannot reduce is diagnosed as
//!    [`DiagCode::UnstructuredFlow`] (L021); loops whose trip count it
//!    cannot infer as [`DiagCode::UnboundableLoop`] (L020).
//! 2. **Offload bounds** ([`bound_offload`]) — closed-form best/worst
//!    milestones for a whole offload (dispatch, DMA-in, compute,
//!    DMA-out, sync, total) from the [`SocConfig`] event model:
//!    host marshalling and operand-prep throughput, `NoC`
//!    unicast/multicast delivery, cluster wake/descriptor/setup chain,
//!    width-bound DMA with HBM latency, credit-counter IRQ or software
//!    barrier polling, and the reduce combine tail. A
//!    [`ContentionEnvelope`] widens only the *worst* side for
//!    co-resident tenants; the best side is always the solo bound
//!    (contention can only delay).
//! 3. **Verification hooks** — [`OffloadBounds::check_phases`] replays a
//!    recorded phase breakdown against the bounds (the trace-replay
//!    sanitizer), and [`CostLint`] surfaces L020/L021 through the
//!    regular lint pipeline.

use std::collections::HashMap;

use mpsoc_isa::{BuildError, Clocks, CoreTiming, IntReg, MicroOp, OpTiming, Program, SteadyState};
use mpsoc_kernels::partition::split_even;
use mpsoc_kernels::{Kernel, KernelKind};
use mpsoc_offload::{DispatchStrategy, OffloadStrategy, RuntimeCosts, SyncStrategy};
use mpsoc_soc::{BankMode, SocConfig};
use serde::{Deserialize, Serialize};

use crate::descriptor::reference_slices;
use crate::diag::{DiagCode, Diagnostic, LintReport};
use crate::{Lint, LintContext};

/// Abstract-execution fuel: ops timed before the analysis aborts with
/// L020 (guards loops whose passes never settle into a steady state).
const FUEL: u64 = 50_000_000;

/// A sound `[best, worst]` cycle interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBounds {
    /// No execution finishes earlier than this.
    pub best: u64,
    /// No execution finishes later than this.
    pub worst: u64,
}

impl CycleBounds {
    /// The `[0, 0]` interval.
    pub const ZERO: CycleBounds = CycleBounds { best: 0, worst: 0 };

    /// The degenerate interval `[c, c]`.
    pub fn point(c: u64) -> Self {
        CycleBounds { best: c, worst: c }
    }

    /// `true` when `cycles` lies within the interval.
    pub fn contains(self, cycles: u64) -> bool {
        self.best <= cycles && cycles <= self.worst
    }

    /// Componentwise maximum (the bound on `max(a, b)` of two events).
    #[must_use]
    pub fn join_max(self, other: CycleBounds) -> Self {
        CycleBounds {
            best: self.best.max(other.best),
            worst: self.worst.max(other.worst),
        }
    }

    /// Widens only the worst side by `extra` (saturating).
    #[must_use]
    pub fn widen_worst(self, extra: u64) -> Self {
        CycleBounds {
            best: self.best,
            worst: self.worst.saturating_add(extra),
        }
    }

    /// `best <= worst` — every constructor must preserve this.
    pub fn is_well_formed(self) -> bool {
        self.best <= self.worst
    }

    /// Upper-bound tightness `worst / actual` (for reporting only).
    pub fn tightness(self, actual: u64) -> f64 {
        if actual == 0 {
            1.0
        } else {
            self.worst as f64 / actual as f64
        }
    }
}

impl std::ops::Add for CycleBounds {
    type Output = CycleBounds;

    /// Interval sum (saturating).
    fn add(self, other: CycleBounds) -> Self {
        CycleBounds {
            best: self.best.saturating_add(other.best),
            worst: self.worst.saturating_add(other.worst),
        }
    }
}

/// The cost analysis failed: the program's control flow could not be
/// bounded. Carries the L020/L021 diagnostics explaining why.
#[derive(Debug, Clone)]
pub struct CostError {
    /// Why the program is unboundable.
    pub report: LintReport,
}

impl CostError {
    fn new(diagnostics: Vec<Diagnostic>) -> Self {
        CostError {
            report: LintReport::new(diagnostics),
        }
    }

    fn fuel() -> Self {
        CostError::new(vec![Diagnostic::global(
            DiagCode::UnboundableLoop,
            "analysis fuel exhausted: loop structure too large to bound statically",
        )])
    }

    fn build(err: &BuildError) -> Self {
        CostError::new(vec![Diagnostic::global(
            DiagCode::UnstructuredFlow,
            format!("kernel codegen failed: {err}"),
        )])
    }
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cost analysis failed: {}", self.report)
    }
}

impl std::error::Error for CostError {}

/// Static cost of one micro-program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramCost {
    /// Completion-cycle bounds (interpreter `finish` semantics).
    pub cycles: CycleBounds,
    /// Dynamic micro-ops retired.
    pub retired: u64,
    /// Explicit TCDM accesses (loads + stores; a paired store is one).
    pub mem_accesses: u64,
}

// ---------------------------------------------------------------------------
// Loop structure recovery
// ---------------------------------------------------------------------------

/// One node of the reduced control-flow view: either a straight-line op
/// or a counted loop with a known trip count.
#[derive(Debug, Clone)]
pub enum Seg {
    /// A single op at this index.
    Op(usize),
    /// A counted loop.
    Loop {
        /// The `frep` op index for hardware loops.
        frep_op: Option<usize>,
        /// The back-branch op index for software loops.
        bnez_op: Option<usize>,
        /// Body segments, in program order.
        body: Vec<Seg>,
        /// Total body executions (>= 1).
        trips: u64,
    },
}

fn int_dest(op: MicroOp) -> Option<IntReg> {
    match op {
        MicroOp::Li { rd, .. } | MicroOp::Addi { rd, .. } | MicroOp::Add { rd, .. } => Some(rd),
        _ => None,
    }
}

fn seg_writes_int(seg: &Seg, ops: &[MicroOp], reg: IntReg) -> bool {
    match seg {
        Seg::Op(i) => int_dest(ops[*i]) == Some(reg),
        Seg::Loop { body, .. } => body.iter().any(|s| seg_writes_int(s, ops, reg)),
    }
}

/// Recovers the nested counted-loop structure of `ops`.
///
/// Accepted shapes are exactly what the kernel zoo's builder emits:
/// FREP bodies free of control flow, and backward `bnez` do-while loops
/// whose counter is initialized by a reaching `li C` (`C > 0`) and
/// decremented by a single top-level `addi counter, counter, -d` with
/// `d | C` (trip count `C / d`). A nested `bnez` loop's counter must be
/// set by a top-level op of the enclosing body before it, so that every
/// pass restarts the count. Anything else earns L020 (trip count not
/// inferable) or L021 (flow not reducible) and the analysis refuses to
/// produce bounds rather than guess.
///
/// # Errors
///
/// The diagnostics (`UnboundableLoop` / `UnstructuredFlow`) explaining
/// the first unsupported construct.
pub fn loop_structure(ops: &[MicroOp]) -> Result<Vec<Seg>, Vec<Diagnostic>> {
    // `emitted` holds completed top-level segments with their start pc;
    // a backward branch pops a suffix of it into a loop body.
    let mut emitted: Vec<(usize, Seg)> = Vec::new();
    let mut pc = 0usize;
    while pc < ops.len() {
        match ops[pc] {
            MicroOp::Frep { iterations, body } => {
                let body_len = body as usize;
                let end = pc + body_len;
                if body_len == 0 || end >= ops.len() {
                    return Err(vec![Diagnostic::at(
                        DiagCode::UnstructuredFlow,
                        pc,
                        format!("frep body of {body_len} ops extends past the program end"),
                    )]);
                }
                let mut body_segs = Vec::with_capacity(body_len);
                for (off, op) in ops[pc + 1..=end].iter().enumerate() {
                    let i = pc + 1 + off;
                    if matches!(
                        op,
                        MicroOp::Frep { .. } | MicroOp::Bnez { .. } | MicroOp::Halt
                    ) {
                        return Err(vec![Diagnostic::at(
                            DiagCode::UnstructuredFlow,
                            i,
                            "control-flow op inside a frep body",
                        )]);
                    }
                    body_segs.push(Seg::Op(i));
                }
                emitted.push((
                    pc,
                    Seg::Loop {
                        frep_op: Some(pc),
                        bnez_op: None,
                        body: body_segs,
                        trips: iterations.max(1),
                    },
                ));
                pc = end + 1;
            }
            MicroOp::Bnez { rs, target } => {
                if target > pc {
                    return Err(vec![Diagnostic::at(
                        DiagCode::UnstructuredFlow,
                        pc,
                        "forward branch: only backward counted loops are boundable",
                    )]);
                }
                let body_segs: Vec<Seg> = if target == pc {
                    Vec::new()
                } else {
                    let split = emitted.iter().position(|(s, _)| *s >= target);
                    match split {
                        Some(ix) if emitted[ix].0 == target => {
                            emitted.split_off(ix).into_iter().map(|(_, s)| s).collect()
                        }
                        _ => {
                            return Err(vec![Diagnostic::at(
                                DiagCode::UnstructuredFlow,
                                pc,
                                "branch targets the interior of an earlier loop body",
                            )]);
                        }
                    }
                };
                // A nested countdown restarts on every pass only when
                // this body sets its counter before it; otherwise the
                // second pass starts it where the first left it.
                for (k, seg) in body_segs.iter().enumerate() {
                    let Seg::Loop {
                        bnez_op: Some(inner),
                        ..
                    } = seg
                    else {
                        continue;
                    };
                    let MicroOp::Bnez { rs: counter, .. } = ops[*inner] else {
                        unreachable!("a bnez loop closes with its bnez");
                    };
                    let set = body_segs[..k]
                        .iter()
                        .any(|s| matches!(s, Seg::Op(i) if int_dest(ops[*i]) == Some(counter)));
                    if !set {
                        return Err(vec![Diagnostic::at(
                            DiagCode::UnboundableLoop,
                            *inner,
                            format!(
                                "nested loop counter {counter} is not set before it in each pass"
                            ),
                        )]);
                    }
                }
                // Trip-count inference: exactly one top-level countdown
                // of the branch counter inside the body.
                let mut decrement: Option<u64> = None;
                let mut writes = 0usize;
                let mut nested_write = false;
                for seg in &body_segs {
                    match seg {
                        Seg::Op(i) => {
                            if int_dest(ops[*i]) == Some(rs) {
                                writes += 1;
                                if let MicroOp::Addi { rs: src, imm, .. } = ops[*i] {
                                    if src == rs && imm < 0 {
                                        decrement = Some(imm.unsigned_abs());
                                    }
                                }
                            }
                        }
                        Seg::Loop { .. } => {
                            if seg_writes_int(seg, ops, rs) {
                                nested_write = true;
                            }
                        }
                    }
                }
                if nested_write {
                    return Err(vec![Diagnostic::at(
                        DiagCode::UnboundableLoop,
                        pc,
                        format!("loop counter {rs} is written inside a nested loop"),
                    )]);
                }
                let Some(step) = decrement.filter(|_| writes == 1) else {
                    return Err(vec![Diagnostic::at(
                        DiagCode::UnboundableLoop,
                        pc,
                        format!(
                            "loop counter {rs} is not a single `addi {rs}, {rs}, -d` countdown"
                        ),
                    )]);
                };
                // Reaching definition of the counter before the loop.
                let mut init: Option<i64> = None;
                let mut found_def = false;
                for (_, seg) in emitted.iter().rev() {
                    match seg {
                        Seg::Op(i) => {
                            if int_dest(ops[*i]) == Some(rs) {
                                found_def = true;
                                if let MicroOp::Li { imm, .. } = ops[*i] {
                                    init = Some(imm);
                                }
                                break;
                            }
                        }
                        Seg::Loop { .. } => {
                            if seg_writes_int(seg, ops, rs) {
                                found_def = true;
                                break;
                            }
                        }
                    }
                }
                let trips = match init {
                    Some(c) if c > 0 && c.unsigned_abs() % step == 0 => c.unsigned_abs() / step,
                    _ => {
                        let why = if found_def && init.is_none() {
                            "initialized by a non-`li` op"
                        } else if init.is_some() {
                            "not a positive multiple of the decrement"
                        } else {
                            "never initialized before the loop"
                        };
                        return Err(vec![Diagnostic::at(
                            DiagCode::UnboundableLoop,
                            pc,
                            format!("loop counter {rs} init is {why}"),
                        )]);
                    }
                };
                emitted.push((
                    target,
                    Seg::Loop {
                        frep_op: None,
                        bnez_op: Some(pc),
                        body: body_segs,
                        trips,
                    },
                ));
                pc += 1;
            }
            MicroOp::Halt => {
                emitted.push((pc, Seg::Op(pc)));
                // Anything after an unconditional halt is unreachable.
                break;
            }
            _ => {
                emitted.push((pc, Seg::Op(pc)));
                pc += 1;
            }
        }
    }
    Ok(emitted.into_iter().map(|(_, s)| s).collect())
}

// ---------------------------------------------------------------------------
// Abstract execution
// ---------------------------------------------------------------------------

/// Runs a loop-structured program on the interpreter's own timing model
/// ([`OpTiming`], [`Clocks`], [`SteadyState`]) without data: trip counts
/// come from [`loop_structure`], and a loop fast-forwards once a pass
/// repeats the one before it relative to fetch.
struct AbsCore<'a> {
    ops: &'a [MicroOp],
    timing: &'a CoreTiming,
    /// Extra cycles every explicit TCDM access waits for its grant: the
    /// banked-TCDM widening of the worst side, zero for the best side.
    mem_extra: u64,
    clocks: Clocks,
    /// Whether SSR streaming is enabled, and a bit per configured stream.
    ssr: (bool, u32),
    finish: Option<u64>,
    retired: u64,
    mem_accesses: u64,
    fuel: u64,
}

impl AbsCore<'_> {
    /// Times the op at `idx`; `taken` says a `bnez` branches back.
    fn exec_op(&mut self, idx: usize, taken: bool) -> Result<(), CostError> {
        self.fuel = self.fuel.checked_sub(1).ok_or_else(CostError::fuel)?;
        self.retired = self.retired.saturating_add(1);
        let op = self.ops[idx];
        let (enabled, configured) = self.ssr;
        let d = OpTiming::of(op, if enabled { configured } else { 0 }, self.timing);
        let (_, mut issue) = self.clocks.ready(&d);
        if d.access().is_some() {
            // Where the interpreter asks the TCDM arbiter for a grant.
            self.mem_accesses = self.mem_accesses.saturating_add(1);
            issue = issue.saturating_add(self.mem_extra);
        }
        match op {
            MicroOp::Halt => {
                self.finish = Some(self.clocks.finish(issue));
                return Ok(());
            }
            MicroOp::SsrCfg { stream, .. } if stream < 3 => self.ssr.1 |= 1 << stream,
            MicroOp::SsrEnable => self.ssr.0 = true,
            MicroOp::SsrDisable => self.ssr.0 = false,
            _ => {}
        }
        self.clocks.retire(&d, issue, taken);
        Ok(())
    }

    fn exec_segs(&mut self, segs: &[Seg]) -> Result<(), CostError> {
        for seg in segs {
            match seg {
                Seg::Op(i) => self.exec_op(*i, false)?,
                Seg::Loop {
                    frep_op,
                    bnez_op,
                    body,
                    trips,
                } => self.exec_loop(*frep_op, *bnez_op, body, *trips)?,
            }
        }
        Ok(())
    }

    /// One loop pass: the body, then the back branch (`taken` decides
    /// whether it pays the fetch bubble).
    fn run_pass(
        &mut self,
        body: &[Seg],
        bnez_op: Option<usize>,
        taken: bool,
    ) -> Result<(), CostError> {
        self.exec_segs(body)?;
        match bnez_op {
            Some(b) => self.exec_op(b, taken),
            None => Ok(()),
        }
    }

    fn exec_loop(
        &mut self,
        frep_op: Option<usize>,
        bnez_op: Option<usize>,
        body: &[Seg],
        trips: u64,
    ) -> Result<(), CostError> {
        if let Some(f) = frep_op {
            self.exec_op(f, false)?;
        }
        // A bnez do-while runs `trips - 1` taken passes then one final
        // not-taken pass; a frep loop runs `trips` identical passes.
        let (uniform, has_final) = match bnez_op {
            Some(_) => (trips.saturating_sub(1), true),
            None => (trips, false),
        };
        // A pass is a function of the clocks relative to fetch and of
        // the SSR state: once a pass starts in the state the one before
        // it started in, every later pass repeats it, shifted by the
        // same interval.
        let mut steady = SteadyState::default();
        let mut ssr = self.ssr;
        let mut before = (self.retired, self.mem_accesses);
        for done in 0..uniform {
            if self.ssr != ssr {
                steady.reset();
                ssr = self.ssr;
            }
            if let Some(interval) = steady.sample(&self.clocks) {
                let left = uniform - done;
                self.clocks.shift(interval.saturating_mul(left));
                let per_pass = (self.retired - before.0, self.mem_accesses - before.1);
                self.retired = self.retired.saturating_add(per_pass.0.saturating_mul(left));
                self.mem_accesses = self
                    .mem_accesses
                    .saturating_add(per_pass.1.saturating_mul(left));
                break;
            }
            before = (self.retired, self.mem_accesses);
            self.run_pass(body, bnez_op, true)?;
        }
        if has_final {
            self.run_pass(body, bnez_op, false)?;
        }
        Ok(())
    }
}

/// Times `segs` with every explicit TCDM access delayed `mem_extra`
/// cycles.
fn run_abs(
    ops: &[MicroOp],
    segs: &[Seg],
    timing: &CoreTiming,
    mem_extra: u64,
) -> Result<ProgramCost, CostError> {
    let mut core = AbsCore {
        ops,
        timing,
        mem_extra,
        clocks: Clocks::at(0),
        ssr: (false, 0),
        finish: None,
        retired: 0,
        mem_accesses: 0,
        fuel: FUEL,
    };
    core.exec_segs(segs)?;
    // A program that runs off its end without a halt finishes when its
    // last result does.
    let finish = core.finish.unwrap_or_else(|| core.clocks.finish(0));
    Ok(ProgramCost {
        cycles: CycleBounds::point(finish),
        retired: core.retired,
        mem_accesses: core.mem_accesses,
    })
}

/// Completion-cycle bounds for `program` under `timing` on an ideal
/// (conflict-free) memory port. They are exact: `best == worst ==` the
/// interpreter's `finish`, because the analyzer times every op with the
/// interpreter's own issue rule and fast-forwards a loop only once its
/// passes repeat exactly.
///
/// # Errors
///
/// [`CostError`] with L020/L021 diagnostics when the program's control
/// flow cannot be bounded.
pub fn bound_program(program: &Program, timing: &CoreTiming) -> Result<ProgramCost, CostError> {
    bound_program_widened(program, timing, 0)
}

/// Like [`bound_program`], but widens every explicit TCDM access on the
/// worst side by `mem_extra` cycles — the (coarse, sound) banked-TCDM
/// conflict allowance. The best side always uses the ideal port. The
/// worst side is exactly the interpreter's `finish` on a port that
/// delays every grant by `mem_extra`; no arbiter that delays each grant
/// by at most that finishes later (max-plus monotonicity).
///
/// # Errors
///
/// See [`bound_program`].
pub fn bound_program_widened(
    program: &Program,
    timing: &CoreTiming,
    mem_extra: u64,
) -> Result<ProgramCost, CostError> {
    let ops = program.ops();
    let segs = loop_structure(ops).map_err(CostError::new)?;
    let mut cost = run_abs(ops, &segs, timing, 0)?;
    if mem_extra > 0 {
        cost.cycles.worst = run_abs(ops, &segs, timing, mem_extra)?.cycles.worst;
    }
    Ok(cost)
}

// ---------------------------------------------------------------------------
// Offload-level bounds
// ---------------------------------------------------------------------------

/// Upper-bound allowance for co-resident tenants sharing the `SoC`.
///
/// All zeros (the [`Default`]) models solo execution. Each field is an
/// upper bound on what *other* tenants consume concurrently; the worst
/// side of every milestone absorbs it, the best side never does
/// (contention can only delay an offload, never accelerate it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionEnvelope {
    /// HBM words other tenants move while this job is in flight.
    pub hbm_words: u64,
    /// Serial host-core cycles other tenants consume (marshalling,
    /// dispatch loops, ISRs).
    pub host_cycles: u64,
    /// Atomic operations other tenants issue at the synchronization
    /// counter's AMO unit.
    pub amo_ops: u64,
    /// `NoC` messages other tenants inject that can serialize ahead of
    /// this job's at the host ingress port.
    pub noc_messages: u64,
}

impl ContentionEnvelope {
    /// A sound envelope for the traffic **one** job of this shape
    /// contributes — what a co-tenant should budget for it.
    pub fn for_job(
        kernel: &dyn Kernel,
        elems: u64,
        clusters: usize,
        strategy: OffloadStrategy,
        config: &SocConfig,
        costs: &RuntimeCosts,
    ) -> Self {
        let m = clusters as u64;
        let cores = config.cores_per_cluster;
        let total_cores = m * cores as u64;
        let prep = kernel.dma_in_words(elems) + kernel.dma_out_words(elems, total_cores);
        let mut dma = 0u64;
        for chunk in split_even(elems, clusters) {
            dma += cluster_dma_words(kernel, chunk.count, cores).0;
            dma += cluster_dma_words(kernel, chunk.count, cores).1;
        }
        let prep_cycles = prep.div_ceil(config.host_prep_words_per_cycle.max(1));
        let inject = config.noc.inject_cycles.as_u64();
        let dispatch = match strategy.dispatch {
            DispatchStrategy::Multicast => 2 * inject,
            DispatchStrategy::Sequential => (costs.dispatch_loop_cycles + 2 * inject) * m,
        };
        let host_cycles = costs.marshal_cycles
            + config.descriptor_words
            + prep_cycles
            + inject
            + dispatch
            + costs.isr_cycles
            + costs.barrier_exit_cycles
            + costs.combine_per_partial_cycles * total_cores;
        ContentionEnvelope {
            hbm_words: prep + config.descriptor_words + 1 + dma,
            host_cycles,
            amo_ops: m + 1,
            noc_messages: 4 * m + 8,
        }
    }
}

/// Best/worst milestones for one offload, all measured from submission.
///
/// Milestones are cumulative (each is the *completion* time of its
/// phase across all clusters) and non-decreasing:
/// `dispatch <= dma_in <= compute <= dma_out <= sync <= total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadBounds {
    /// Last cluster wakeup delivery.
    pub dispatch: CycleBounds,
    /// Last cluster DMA-in completion.
    pub dma_in: CycleBounds,
    /// Last cluster compute completion.
    pub compute: CycleBounds,
    /// Last cluster DMA-out completion.
    pub dout: CycleBounds,
    /// Host-observed completion (IRQ fire or barrier poll hit).
    pub sync: CycleBounds,
    /// End-to-end offload runtime (the paper's Eq. 1 left side).
    pub total: CycleBounds,
}

impl OffloadBounds {
    /// `true` when every interval is well-formed and the milestone
    /// chain is monotone on both sides.
    pub fn is_well_formed(&self) -> bool {
        let ms = [
            self.dispatch,
            self.dma_in,
            self.compute,
            self.dout,
            self.sync,
            self.total,
        ];
        ms.iter().all(|b| b.is_well_formed())
            && ms
                .windows(2)
                .all(|w| w[0].best <= w[1].best && w[0].worst <= w[1].worst)
    }

    /// Replays a recorded phase breakdown (the five durations of
    /// `mpsoc_telemetry::PhaseBreakdown`, in order: dispatch, `dma_in`,
    /// compute, `dma_out`, sync) against the bounds — the trace-replay
    /// sanitizer. Milestones are reconstructed by prefix sum.
    ///
    /// # Errors
    ///
    /// A human-readable list of every violated milestone.
    pub fn check_phases(&self, durations: [u64; 5]) -> Result<(), String> {
        let mut milestone = 0u64;
        let mut violations = Vec::new();
        let names = ["dispatch", "dma_in", "compute", "dma_out", "total"];
        let bounds = [
            self.dispatch,
            self.dma_in,
            self.compute,
            self.dout,
            self.total,
        ];
        for (i, d) in durations.iter().enumerate() {
            milestone += d;
            if !bounds[i].contains(milestone) {
                violations.push(format!(
                    "{} milestone {} outside [{}, {}]",
                    names[i], milestone, bounds[i].best, bounds[i].worst
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

/// DMA word counts `(in, out)` for one cluster working on `chunk` elems.
fn cluster_dma_words(kernel: &dyn Kernel, chunk: u64, cores: usize) -> (u64, u64) {
    let mut w_in = 0u64;
    if chunk > 0 {
        if kernel.uses_x() {
            w_in += chunk * kernel.x_words_per_elem() + 2 * kernel.x_halo();
        }
        if kernel.uses_y() {
            w_in += chunk;
        }
    }
    let w_out = match kernel.kind() {
        KernelKind::Map => chunk,
        KernelKind::Reduce => cores as u64,
    };
    (w_in, w_out)
}

/// Uncontended DMA task duration for `words` (zero-word tasks complete
/// immediately, mirroring the `SoC` model).
fn dma_cycles(words: u64, config: &SocConfig) -> u64 {
    if words == 0 {
        0
    } else {
        words.div_ceil(config.dma_words_per_cycle.max(1)) + config.mem_latency
    }
}

/// Per-cluster compute bounds: the slowest core's program bounds, with
/// the banked-TCDM widening applied when the config models conflicts.
fn cluster_compute_bounds(
    kernel: &dyn Kernel,
    chunk: u64,
    config: &SocConfig,
) -> Result<CycleBounds, CostError> {
    let cores = config.cores_per_cluster;
    let slices = reference_slices(kernel, chunk, cores);
    let mut programs = Vec::with_capacity(slices.len());
    for slice in &slices {
        programs.push(kernel.codegen(slice).map_err(|e| CostError::build(&e))?);
    }
    let mut base = Vec::with_capacity(programs.len());
    for p in &programs {
        base.push(bound_program(p, &config.core_timing)?);
    }
    let total_mem: u64 = base.iter().map(|c| c.mem_accesses).sum();
    let banked = config.bank_mode == BankMode::Banked;
    let mut out = CycleBounds::ZERO;
    for (i, cost) in base.iter().enumerate() {
        let worst = if banked && total_mem > cost.mem_accesses {
            // Coarse but sound: each access may wait behind every other
            // core's accesses in the worst interleaving.
            bound_program_widened(
                &programs[i],
                &config.core_timing,
                total_mem - cost.mem_accesses,
            )?
            .cycles
            .worst
        } else {
            cost.cycles.worst
        };
        out = out.join_max(CycleBounds {
            best: cost.cycles.best,
            worst,
        });
    }
    Ok(out)
}

/// Sound `[best, worst]` milestones for offloading `elems` elements of
/// `kernel` to `clusters` clusters under `strategy`, on a machine
/// described by `config` + `costs`, sharing the `SoC` with at most
/// `envelope` worth of co-resident traffic.
///
/// # Errors
///
/// [`CostError`] when any generated core program cannot be bounded.
///
/// # Panics
///
/// Panics if `clusters` is zero or exceeds `config.clusters`.
pub fn bound_offload(
    kernel: &dyn Kernel,
    elems: u64,
    clusters: usize,
    strategy: OffloadStrategy,
    config: &SocConfig,
    costs: &RuntimeCosts,
    envelope: &ContentionEnvelope,
) -> Result<OffloadBounds, CostError> {
    assert!(
        clusters >= 1 && clusters <= config.clusters,
        "cluster count {clusters} outside 1..={}",
        config.clusters
    );
    let m = clusters as u64;
    let cores = config.cores_per_cluster;
    let noc = &config.noc;
    let one_way = noc.one_way(config.clusters).as_u64();
    let levels = u64::from(noc.levels(config.clusters));
    let inject = noc.inject_cycles.as_u64();
    let ingress = noc.ingress_cycles.as_u64();
    let replicate = noc.replicate_cycles.as_u64();

    // --- Host issue: marshal, descriptor write, operand prep, arm. ---
    let prep_words = kernel.dma_in_words(elems) + kernel.dma_out_words(elems, m * cores as u64);
    let prep_cycles = prep_words.div_ceil(config.host_prep_words_per_cycle.max(1));
    let p_host = costs.marshal_cycles + config.descriptor_words + prep_cycles + inject;

    // --- Wakeup delivery per cluster + host-ready time. ---
    let (deliveries, host_ready): (Vec<u64>, u64) = match strategy.dispatch {
        DispatchStrategy::Multicast => {
            let injected = p_host + 2 * inject;
            let delivered = injected + one_way + replicate * levels + ingress;
            (vec![delivered; clusters], injected)
        }
        DispatchStrategy::Sequential => {
            let block = costs.dispatch_loop_cycles + 2 * inject;
            let deliveries = (1..=m)
                .map(|i| p_host + block * i + one_way + ingress)
                .collect();
            (deliveries, p_host + block * m)
        }
    };

    // --- Contention widenings (worst side only). ---
    let chunks = split_even(elems, clusters);
    let mut job_hbm = prep_words + config.descriptor_words + 1;
    for chunk in &chunks {
        let (w_in, w_out) = cluster_dma_words(kernel, chunk.count, cores);
        job_hbm += w_in + w_out;
    }
    let hbm_allow = job_hbm
        .saturating_add(envelope.hbm_words)
        .div_ceil(config.mem_words_per_cycle.max(1));
    let host_extra = envelope.host_cycles;
    let noc_extra = envelope.noc_messages.saturating_mul(ingress);
    let amo_extra = envelope.amo_ops.saturating_mul(config.amo_service);

    // --- Per-cluster chains: wake → descriptor → setup → DMA-in →
    //     compute → DMA-out, folded with max across clusters. ---
    let desc_fetch = 2 * one_way
        + config.mem_latency
        + config
            .descriptor_words
            .div_ceil(config.mem_words_per_cycle.max(1));
    let chain_lead = config.cluster_wake_cycles + desc_fetch + config.cluster_setup_cycles;
    let mut compute_memo: HashMap<u64, CycleBounds> = HashMap::new();
    let mut dispatch = CycleBounds::ZERO;
    let mut dma_in = CycleBounds::ZERO;
    let mut compute = CycleBounds::ZERO;
    let mut dout = CycleBounds::ZERO;
    for (i, chunk) in chunks.iter().enumerate() {
        let (w_in, w_out) = cluster_dma_words(kernel, chunk.count, cores);
        let prog = if let Some(b) = compute_memo.get(&chunk.count) {
            *b
        } else {
            let b = cluster_compute_bounds(kernel, chunk.count, config)?;
            compute_memo.insert(chunk.count, b);
            b
        };
        let del = deliveries[i];
        let del_hi = del + host_extra + noc_extra;
        let start_lo = del + chain_lead;
        let start_hi = del_hi + chain_lead + hbm_allow; // descriptor fetch shares HBM
        let din_lo = start_lo + dma_cycles(w_in, config);
        let din_hi = start_hi + dma_cycles(w_in, config) + hbm_allow;
        let comp_lo = din_lo + config.core_start_cycles + prog.best;
        let comp_hi = din_hi + config.core_start_cycles + prog.worst;
        let dout_lo = comp_lo + dma_cycles(w_out, config);
        let dout_hi = comp_hi + dma_cycles(w_out, config) + hbm_allow;
        dispatch = dispatch.join_max(CycleBounds {
            best: del,
            worst: del_hi,
        });
        dma_in = dma_in.join_max(CycleBounds {
            best: din_lo,
            worst: din_hi,
        });
        compute = compute.join_max(CycleBounds {
            best: comp_lo,
            worst: comp_hi,
        });
        dout = dout.join_max(CycleBounds {
            best: dout_lo,
            worst: dout_hi,
        });
    }

    // --- Synchronization + host tail. ---
    let reduce_tail = match kernel.kind() {
        KernelKind::Reduce => costs.combine_per_partial_cycles * m * cores as u64,
        KernelKind::Map => 0,
    };
    let (sync, total) = match strategy.sync {
        SyncStrategy::CreditCounter => {
            let arrive_lo = dout.best + one_way + ingress;
            let arrive_hi = dout.worst + one_way + ingress + amo_extra;
            let sync_lo = arrive_lo + config.irq_latency;
            let sync_hi = arrive_hi + config.irq_latency;
            let resume_lo = sync_lo.max(host_ready);
            let resume_hi = sync_hi.max(host_ready + host_extra);
            let sync = CycleBounds {
                best: sync_lo,
                worst: sync_hi,
            };
            let total = CycleBounds {
                best: resume_lo + costs.isr_cycles + reduce_tail,
                worst: resume_hi + costs.isr_cycles + reduce_tail,
            };
            (sync, total)
        }
        SyncStrategy::SoftwareBarrier => {
            // Barrier arrivals serialize at the host ingress: the last
            // counter update lands within [+0, +(m-1)] of the last
            // arrival, plus the AMO allowance under contention.
            let visible_lo = dout.best + one_way + ingress;
            let visible_hi = dout.worst + one_way + ingress + (m - 1) + amo_extra;
            let read_latency = 2 * one_way + config.mem_latency;
            let period = read_latency + costs.spin_cycles;
            // The host polls on a grid anchored at its ready time; the
            // hit can land up to one full period after visibility.
            let sync_lo = host_ready.max(visible_lo) + read_latency;
            let sync_hi = (host_ready + host_extra).max(visible_hi + period - 1) + read_latency;
            let sync = CycleBounds {
                best: sync_lo,
                worst: sync_hi,
            };
            let total = CycleBounds {
                best: sync_lo + costs.barrier_exit_cycles + reduce_tail,
                worst: sync_hi + costs.barrier_exit_cycles + reduce_tail,
            };
            (sync, total)
        }
    };

    // Normalize the milestone chain to be monotone on both sides.
    let dma_in = dma_in.join_max(dispatch);
    let compute = compute.join_max(dma_in);
    let dout = dout.join_max(compute);
    let sync = sync.join_max(dout);
    let total = total.join_max(sync);
    Ok(OffloadBounds {
        dispatch,
        dma_in,
        compute,
        dout,
        sync,
        total,
    })
}

/// Bounds for running `elems` elements of `kernel` entirely on the host
/// core (the scheduler's fallback path): the single-slice program under
/// the host's `cva6` timing.
///
/// # Errors
///
/// See [`bound_program`].
pub fn bound_host_run(kernel: &dyn Kernel, elems: u64) -> Result<ProgramCost, CostError> {
    let slices = reference_slices(kernel, elems, 1);
    let program = kernel
        .codegen(&slices[0])
        .map_err(|e| CostError::build(&e))?;
    bound_program(&program, &CoreTiming::cva6())
}

// ---------------------------------------------------------------------------
// Lint pass
// ---------------------------------------------------------------------------

/// Lint pass: is the program's control flow statically boundable?
///
/// Emits [`DiagCode::UnboundableLoop`] / [`DiagCode::UnstructuredFlow`]
/// warnings (the program may still be *correct* — it just cannot pass a
/// cost gate).
#[derive(Debug, Default)]
pub struct CostLint;

impl Lint for CostLint {
    fn name(&self) -> &'static str {
        "cost"
    }

    fn run(&self, program: &Program, _cx: &LintContext, out: &mut Vec<Diagnostic>) {
        if let Err(diags) = loop_structure(program.ops()) {
            out.extend(diags);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_isa::{FpReg, Interpreter, ProgramBuilder, VecPort};
    use mpsoc_kernels::{Axpby, Daxpy, DaxpySsr, Dot, Gemv, Memset, Scale, Stencil3, Sum, VecAdd};
    use mpsoc_offload::Offloader;
    use proptest::prelude::*;

    fn x(i: u8) -> IntReg {
        IntReg::new(i)
    }
    fn f(i: u8) -> FpReg {
        FpReg::new(i)
    }

    fn zoo() -> Vec<Box<dyn Kernel>> {
        vec![
            Box::new(Daxpy::new(2.0)),
            Box::new(DaxpySsr::new(2.0)),
            Box::new(Axpby::new(1.5, -0.5)),
            Box::new(Scale::new(3.0)),
            Box::new(VecAdd::new()),
            Box::new(Memset::new(7.0)),
            Box::new(Dot::new()),
            Box::new(Sum::new()),
            Box::new(Gemv::new(vec![0.5, -1.0, 2.0, 0.25])),
            Box::new(Stencil3::new(0.25, 0.5, 0.25)),
        ]
    }

    fn measure(program: &Program, timing: &CoreTiming) -> u64 {
        let mut port = VecPort::new(vec![0.0; 1 << 16]);
        Interpreter::with_timing(*timing)
            .run(program, &mut port)
            .expect("program executes")
            .finish
            .as_u64()
    }

    #[test]
    fn empty_and_halt_only_have_zero_bounds() {
        let empty = Program::from_ops_unchecked(vec![]);
        let cost = bound_program(&empty, &CoreTiming::snitch()).expect("boundable");
        assert_eq!(cost.cycles, CycleBounds::ZERO);
        assert_eq!(cost.retired, 0);
        let halt = Program::from_ops_unchecked(vec![MicroOp::Halt]);
        let cost = bound_program(&halt, &CoreTiming::snitch()).expect("boundable");
        assert_eq!(cost.cycles, CycleBounds::ZERO);
        assert_eq!(cost.retired, 1);
    }

    #[test]
    fn straight_line_bounds_are_exact() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 64);
        b.fld(f(4), x(1), 0);
        b.fld(f(5), x(1), 8);
        b.fmadd(f(6), f(4), f(5), f(6));
        b.fsd(f(6), x(1), 16);
        b.halt();
        let program = b.build().expect("valid");
        for timing in [CoreTiming::snitch(), CoreTiming::cva6()] {
            let cost = bound_program(&program, &timing).expect("boundable");
            let actual = measure(&program, &timing);
            assert_eq!(cost.cycles.best, cost.cycles.worst, "exact on ideal TCDM");
            assert_eq!(cost.cycles.best, actual, "matches the interpreter");
        }
    }

    #[test]
    fn counted_loop_bounds_are_exact_and_sound() {
        // A software countdown loop long enough to extrapolate.
        for trips in [1u64, 3, 17, 64, 65, 200, 5_000] {
            let mut b = ProgramBuilder::new();
            b.li(x(1), 0);
            b.li(x(2), i64::try_from(trips).expect("fits"));
            let top = b.label();
            b.bind(top);
            b.fld(f(4), x(1), 0);
            b.fmadd(f(6), f(4), f(4), f(6));
            b.addi(x(1), x(1), 8);
            b.addi(x(2), x(2), -1);
            b.bnez(x(2), top);
            b.halt();
            let program = b.build().expect("valid");
            let timing = CoreTiming::snitch();
            let cost = bound_program(&program, &timing).expect("boundable");
            let actual = measure(&program, &timing);
            assert_eq!(
                cost.cycles,
                CycleBounds::point(actual),
                "trips={trips}: exact at every trip count"
            );
        }
    }

    #[test]
    fn op_counters_saturate_past_an_extrapolated_loop() {
        // 2^63 - 1 trips of three loads: the clocks and both op counts
        // run past u64::MAX.
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.li(x(2), i64::MAX);
        let top = b.label();
        b.bind(top);
        for k in 0..3 {
            b.fld(f(4 + k), x(1), 8 * i64::from(k));
        }
        b.addi(x(2), x(2), -1);
        b.bnez(x(2), top);
        b.halt();
        let program = b.build().expect("valid");
        let cost = bound_program(&program, &CoreTiming::snitch()).expect("boundable");
        assert_eq!(cost.cycles, CycleBounds::point(u64::MAX));
        assert_eq!(cost.retired, u64::MAX);
        assert_eq!(cost.mem_accesses, u64::MAX);
    }

    #[test]
    fn frep_loop_bounds_are_sound() {
        for iterations in [1u64, 4, 64, 300, 10_000] {
            let mut b = ProgramBuilder::new();
            b.li(x(1), 0);
            b.ssr_cfg(0, x(1), 8, iterations, false);
            b.ssr_cfg(1, x(1), 8, iterations, false);
            b.ssr_enable();
            b.frep(iterations, 1);
            b.fmadd(f(3), f(0), f(1), f(3));
            b.ssr_disable();
            b.halt();
            let program = b.build().expect("valid");
            let timing = CoreTiming::snitch();
            let cost = bound_program(&program, &timing).expect("boundable");
            let actual = measure(&program, &timing);
            assert!(
                cost.cycles.contains(actual),
                "iterations={iterations}: {actual} outside [{}, {}]",
                cost.cycles.best,
                cost.cycles.worst
            );
        }
    }

    #[test]
    fn zoo_program_bounds_contain_interpreter_cycles() {
        for kernel in zoo() {
            for elems in [0u64, 1, 7, 33, 64, 257, 1024] {
                for cores in [1usize, 8] {
                    for slice in reference_slices(kernel.as_ref(), elems, cores) {
                        let program = kernel.codegen(&slice).expect("zoo codegen");
                        for timing in [CoreTiming::snitch(), CoreTiming::cva6()] {
                            let cost = bound_program(&program, &timing)
                                .expect("zoo programs are boundable");
                            assert!(cost.cycles.is_well_formed());
                            let actual = measure(&program, &timing);
                            assert!(
                                cost.cycles.contains(actual),
                                "{} elems={elems} cores={cores}: {actual} outside [{}, {}]",
                                kernel.name(),
                                cost.cycles.best,
                                cost.cycles.worst
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unstructured_flow_is_diagnosed() {
        // Forward branch.
        let fwd = Program::from_ops_unchecked(vec![
            MicroOp::Li { rd: x(1), imm: 1 },
            MicroOp::Bnez {
                rs: x(1),
                target: 3,
            },
            MicroOp::Li { rd: x(2), imm: 2 },
            MicroOp::Halt,
        ]);
        let err = bound_program(&fwd, &CoreTiming::snitch()).expect_err("forward branch");
        assert_eq!(err.report.diagnostics[0].code, DiagCode::UnstructuredFlow);
        // Non-countdown loop.
        let inf = Program::from_ops_unchecked(vec![
            MicroOp::Li { rd: x(1), imm: 5 },
            MicroOp::Addi {
                rd: x(1),
                rs: x(1),
                imm: 1,
            },
            MicroOp::Bnez {
                rs: x(1),
                target: 1,
            },
            MicroOp::Halt,
        ]);
        let err = bound_program(&inf, &CoreTiming::snitch()).expect_err("counting up");
        assert_eq!(err.report.diagnostics[0].code, DiagCode::UnboundableLoop);
        // Self-loop with no countdown at all.
        let spin = Program::from_ops_unchecked(vec![
            MicroOp::Li { rd: x(1), imm: 1 },
            MicroOp::Bnez {
                rs: x(1),
                target: 1,
            },
            MicroOp::Halt,
        ]);
        let err = bound_program(&spin, &CoreTiming::snitch()).expect_err("spin");
        assert_eq!(err.report.diagnostics[0].code, DiagCode::UnboundableLoop);
        // A nested countdown whose counter is set only before the outer
        // loop: its second outer pass starts the count at zero, so the
        // program never ends.
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.li(x(10), 4);
        b.li(x(11), 3);
        let top = b.label();
        b.bind(top);
        b.fld(f(4), x(1), 0);
        b.addi(x(10), x(10), -1);
        b.bnez(x(10), top);
        b.addi(x(11), x(11), -1);
        b.bnez(x(11), top);
        b.halt();
        let stale = b.build().expect("valid");
        let err = bound_program(&stale, &CoreTiming::snitch()).expect_err("stale counter");
        let diag = &err.report.diagnostics[0];
        assert_eq!(diag.code, DiagCode::UnboundableLoop);
        assert_eq!(diag.op, Some(5), "reported at the nested branch");
    }

    #[test]
    fn offload_bounds_contain_simulated_runs() {
        let config = SocConfig::manticore();
        let costs = RuntimeCosts::default();
        let envelope = ContentionEnvelope::default();
        let cases: Vec<(Box<dyn Kernel>, u64)> = vec![
            (Box::new(Daxpy::new(2.0)), 96),
            (Box::new(Daxpy::new(2.0)), 4_096),
            (Box::new(Memset::new(1.0)), 64),
            (Box::new(Dot::new()), 512),
            (Box::new(Sum::new()), 33),
        ];
        for (kernel, n) in &cases {
            let x_len = (n * kernel.x_words_per_elem() + 2 * kernel.x_halo()) as usize;
            let xs = vec![1.0; x_len];
            let ys = vec![0.5; *n as usize];
            for m in [1usize, 2, 5] {
                for strategy in OffloadStrategy::all() {
                    let bounds =
                        bound_offload(kernel.as_ref(), *n, m, strategy, &config, &costs, &envelope)
                            .expect("zoo offloads are boundable");
                    assert!(bounds.is_well_formed(), "{} n={n} m={m}", kernel.name());
                    let mut off = Offloader::new(config.clone()).expect("offloader");
                    let run = off
                        .offload(kernel.as_ref(), &xs, &ys, m, strategy)
                        .expect("offload runs");
                    let total = run.outcome.total.as_u64();
                    assert!(
                        bounds.total.contains(total),
                        "{} n={n} m={m} {strategy:?}: total {total} outside [{}, {}]",
                        kernel.name(),
                        bounds.total.best,
                        bounds.total.worst
                    );
                    let ph = &run.outcome.phases;
                    for (name, milestone, b) in [
                        ("dispatch", ph.last_dispatch.as_u64(), bounds.dispatch),
                        ("dma_in", ph.last_dma_in.as_u64(), bounds.dma_in),
                        ("compute", ph.last_compute.as_u64(), bounds.compute),
                        ("dma_out", ph.last_dma_out.as_u64(), bounds.dout),
                        ("sync", ph.sync_done.as_u64(), bounds.sync),
                    ] {
                        assert!(
                            b.contains(milestone),
                            "{} n={n} m={m} {strategy:?}: {name} {milestone} outside [{}, {}]",
                            kernel.name(),
                            b.best,
                            b.worst
                        );
                    }
                    let bd = &run.outcome.phase_breakdown;
                    bounds
                        .check_phases([bd.dispatch, bd.dma_in, bd.compute, bd.dma_out, bd.sync])
                        .expect("phase sanitizer accepts the recorded breakdown");
                }
            }
        }
    }

    #[test]
    fn host_run_bounds_are_sound() {
        for kernel in zoo() {
            for elems in [1u64, 64, 500] {
                let cost = bound_host_run(kernel.as_ref(), elems).expect("boundable");
                let slices = reference_slices(kernel.as_ref(), elems, 1);
                let program = kernel.codegen(&slices[0]).expect("codegen");
                let actual = measure(&program, &CoreTiming::cva6());
                assert!(
                    cost.cycles.contains(actual),
                    "{} elems={elems}: {actual} outside [{}, {}]",
                    kernel.name(),
                    cost.cycles.best,
                    cost.cycles.worst
                );
            }
        }
    }

    proptest! {
        #[test]
        fn bounds_well_formed_and_monotone_in_n(
            kernel_ix in 0usize..10,
            n in 1u64..1500,
            delta in 1u64..700,
            cores_ix in 0usize..3,
        ) {
            let cores = [1usize, 4, 8][cores_ix];
            let kernel = &zoo()[kernel_ix];
            let timing = CoreTiming::snitch();
            let lo_slices = reference_slices(kernel.as_ref(), n, cores);
            let hi_slices = reference_slices(kernel.as_ref(), n + delta, cores);
            let a = bound_program(
                &kernel.codegen(&lo_slices[0]).expect("codegen"),
                &timing,
            ).expect("boundable");
            let b = bound_program(
                &kernel.codegen(&hi_slices[0]).expect("codegen"),
                &timing,
            ).expect("boundable");
            prop_assert!(a.cycles.is_well_formed());
            prop_assert!(b.cycles.is_well_formed());
            // Core 0 always gets at least as many elements at n+delta.
            prop_assert!(b.cycles.worst >= a.cycles.best,
                "worst({}) < best({}) when n grew", b.cycles.worst, a.cycles.best);
            prop_assert!(b.cycles.best >= a.cycles.best,
                "best bound shrank when n grew: {} -> {}", a.cycles.best, b.cycles.best);
        }

        #[test]
        fn offload_bounds_monotone_in_n(
            kernel_ix in 0usize..10,
            n in 1u64..2000,
            delta in 1u64..1000,
            m in 1usize..6,
            strategy_ix in 0usize..4,
        ) {
            let kernel = &zoo()[kernel_ix];
            let config = SocConfig::manticore();
            let costs = RuntimeCosts::default();
            let envelope = ContentionEnvelope::default();
            let strategy = OffloadStrategy::all()[strategy_ix];
            let a = bound_offload(kernel.as_ref(), n, m, strategy, &config, &costs, &envelope)
                .expect("boundable");
            let b = bound_offload(kernel.as_ref(), n + delta, m, strategy, &config, &costs, &envelope)
                .expect("boundable");
            prop_assert!(a.is_well_formed());
            prop_assert!(b.is_well_formed());
            prop_assert!(b.total.best >= a.total.best,
                "total best shrank when n grew: {} -> {}", a.total.best, b.total.best);
            prop_assert!(b.total.worst >= a.total.worst,
                "total worst shrank when n grew: {} -> {}", a.total.worst, b.total.worst);
        }
    }
}
