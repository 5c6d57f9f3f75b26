//! Compiled programs: what a program's first successful run on a
//! conflict-free port that lends its words did, kept so that later runs
//! execute only its data flow.
//!
//! No op moves memory or FP data into an integer register or the pc. So
//! on a conflict-free port a run's control flow, addresses, faults, op
//! counts and issue times depend only on the program, the core timing,
//! the number of words the port lends and the start cycle, and the issue
//! times move one for one with the start while no clock saturates. The
//! first run records its loads, stores and FP ops at their word indices
//! (integer ops hold no data and drop out), and each loop it replays in
//! closed form as one segment of cursors and a trip count. A later run
//! under the same key executes that plan on the lent words and returns
//! the first run's report shifted to its start.

use std::cell::RefCell;

use mpsoc_sim::Cycle;

use super::{Core, CoreTiming, Cursor, ExecError, ExecReport, Fp, MemoryPort, Step, Word, Words};
use crate::{IntReg, MicroOp, Program, FP_REGS};

/// Ops a plan may hold, a loop in closed form counted once: a run whose
/// plan would pass it does not compile. Loops that are not in closed
/// form unroll into the plan, so this bounds a plan's memory.
const PLAN_CAP: usize = 1 << 14;

/// Trips an op-major loop runs each op over before the next op starts.
const CHUNK: u64 = 64;

const FP: usize = FP_REGS as usize;

/// A program's compiled form, keyed by the core timing and the number of
/// lent words of the run that built it.
#[derive(Debug)]
pub(crate) struct Compiled {
    timing: CoreTiming,
    words: usize,
    /// `None` when that run did not compile: the program uses SSR
    /// streams or `frep`, its plan passed [`PLAN_CAP`], or it ran within
    /// its reach of the end of time.
    form: Option<Form>,
}

impl Compiled {
    pub(super) fn new(timing: CoreTiming, words: usize, form: Option<Form>) -> Self {
        Compiled {
            timing,
            words,
            form,
        }
    }

    /// `true` when a later run can execute the plan.
    pub(crate) fn has_plan(&self) -> bool {
        self.form.is_some()
    }

    /// Runs the plan from `start` on the conflict-free `port` and returns
    /// the report, or `None`, leaving the run to the timed path, unless
    /// the program compiled under `timing` and the number of words the
    /// port lends, and no clock of a run from `start` can saturate.
    ///
    /// # Errors
    ///
    /// None in practice: a plan holds no stream operand, the only source
    /// of an error on lent words.
    pub(super) fn run<P: MemoryPort>(
        &self,
        timing: &CoreTiming,
        start: Cycle,
        port: &mut P,
    ) -> Result<Option<ExecReport>, ExecError> {
        let Some(form) = &self.form else {
            return Ok(None);
        };
        if *timing != self.timing || start.as_u64().checked_add(form.reach).is_none() {
            return Ok(None);
        }
        match port.words() {
            Some(Words::F64(words)) if words.len() == self.words => form.plan.run(words)?,
            Some(Words::Bits(words)) if words.len() == self.words => form.plan.run(words)?,
            _ => return Ok(None),
        }
        Ok(Some(ExecReport {
            finish: start + form.report.finish,
            ..form.report
        }))
    }

    /// The closed-form loops of the plan, and how many of them run
    /// op-major.
    #[cfg(test)]
    pub(crate) fn loops(&self) -> (usize, usize) {
        let segments = self.form.iter().flat_map(|form| &form.plan.segments);
        segments.fold((0, 0), |(loops, major), segment| match segment {
            Segment::Straight(_) => (loops, major),
            Segment::Trips { .. } => (loops + 1, major),
            Segment::Major { .. } => (loops + 1, major + 1),
        })
    }
}

/// What a compiled run returns and does.
#[derive(Debug)]
pub(super) struct Form {
    /// The first run's report, its `finish` counted from its start.
    report: ExecReport,
    /// How far past its start a clock of the run may get: no clock
    /// passes the finish by more than the load latency or one cycle.
    reach: u64,
    plan: Plan,
}

thread_local! {
    /// The values op-major loops keep, one buffer per thread that every
    /// compiled run reuses, so a run neither allocates nor clears one.
    /// Nothing carries over from run to run: a loop copies the registers
    /// in at its start, and reads a buffered value only after writing it
    /// in the same chunk.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A run's data flow over the lent words, in program order.
#[derive(Debug)]
struct Plan {
    segments: Vec<Segment>,
    /// The values the op-major loop with the most buffered registers
    /// keeps: every FP register, then each buffered register's values
    /// for one chunk of trips.
    scratch: usize,
}

impl Plan {
    /// Runs the plan on `words` from a core at reset.
    fn run<W: Word>(&self, words: &mut [W]) -> Result<(), ExecError> {
        SCRATCH.with_borrow_mut(|vals| {
            if vals.len() < self.scratch {
                vals.resize(self.scratch, 0.0);
            }
            let mut core = Core::default();
            for segment in &self.segments {
                match segment {
                    Segment::Straight(ops) => core.run_lent(ops, words, 1)?,
                    Segment::Trips { ops, trips } => core.run_lent(ops, words, *trips)?,
                    Segment::Major { major, trips } => core.run_major(major, words, *trips, vals),
                }
            }
            Ok(())
        })
    }
}

/// A stretch of a plan.
#[derive(Debug)]
enum Segment {
    /// Data ops that ran one at a time, each load and store at its word
    /// (its cursor's stride is unused): those of the timed path, and of
    /// loops replayed trip by trip.
    Straight(Vec<(Step, Cursor)>),
    /// A closed-form loop on lent words, as [`Body::lend`] checked it,
    /// that runs trip by trip.
    ///
    /// [`Body::lend`]: super::Body::lend
    Trips {
        ops: Vec<(Step, Cursor)>,
        trips: u64,
    },
    /// A closed-form loop that runs op by op over chunks of trips.
    Major { major: OpMajor, trips: u64 },
}

/// Records a first run's data flow into a plan.
#[derive(Debug, Default)]
pub(super) struct Recorder {
    segments: Vec<Segment>,
    /// Ops recorded so far, a closed-form loop's body counted once.
    ops: usize,
    /// The run did something a plan does not hold.
    failed: bool,
}

impl Recorder {
    /// A recorder for a run of `program`, or `None` when the program uses
    /// SSR streams or `frep`, which a plan does not model.
    pub(super) fn of(program: &Program) -> Option<Recorder> {
        let plain = program.ops().iter().all(|op| {
            !matches!(
                op,
                MicroOp::SsrCfg { .. }
                    | MicroOp::SsrEnable
                    | MicroOp::SsrDisable
                    | MicroOp::Frep { .. }
            )
        });
        plain.then(Recorder::default)
    }

    /// Records the data op `step` that `core` is about to run one at a
    /// time. The match names every data op: one that moved FP or memory
    /// data into an integer register would make control flow and
    /// addresses depend on data, and must end compilation here.
    pub(super) fn step(&mut self, step: Step, core: &Core) {
        let word = |rs: IntReg, offset: i64| Cursor {
            word: (core.addr(rs, offset) / 8) as usize,
            stride: 0,
        };
        let at = match step {
            // An integer op's effect on data is in the words of the
            // accesses after it.
            Step::Li { .. } | Step::Addi { .. } | Step::Add { .. } => return,
            Step::Fld { rs, offset, .. }
            | Step::Fsd { rs, offset, .. }
            | Step::FsdPair { rs, offset, .. } => word(rs, offset),
            Step::Fmadd { .. } | Step::Fadd { .. } | Step::Fmul { .. } => Cursor::default(),
        };
        if !self.fits(1) {
            return;
        }
        match self.segments.last_mut() {
            Some(Segment::Straight(ops)) => ops.push((step, at)),
            _ => self.segments.push(Segment::Straight(vec![(step, at)])),
        }
    }

    /// Records a closed-form loop of `trips` trips that runs on lent
    /// words with the cursors in `ops`. The trips the timed path ran
    /// just before it, which the straight ops recorded last repeat op for
    /// op at the cursors' earlier words, join the loop: the same ops on
    /// the same words in the same order.
    pub(super) fn lent(&mut self, ops: &[(Step, Cursor)], mut trips: u64) {
        if !self.fits(ops.len()) {
            return;
        }
        let mut ops = ops.to_vec();
        if let Some(Segment::Straight(straight)) = self.segments.last_mut() {
            while let Some(earlier) = trip_before(&ops, straight) {
                straight.truncate(straight.len() - ops.len());
                ops = earlier;
                trips += 1;
            }
            if straight.is_empty() {
                self.segments.pop();
            }
        }
        self.segments.push(match OpMajor::plan(&ops, trips) {
            Some(major) => Segment::Major { major, trips },
            None => Segment::Trips { ops, trips },
        });
    }

    /// Gives up: the run did something a plan does not hold.
    pub(super) fn fail(&mut self) {
        self.failed = true;
        self.segments = Vec::new();
    }

    /// Counts `ops` more ops; `false` once the plan is given up.
    fn fits(&mut self, ops: usize) -> bool {
        self.ops += ops;
        if self.ops > PLAN_CAP {
            self.fail();
        }
        !self.failed
    }

    /// The compiled form of a successful run from `start` that returned
    /// `report`, unless the plan was given up or a clock of the run may
    /// have come within its reach of `u64::MAX`.
    ///
    /// Every clock is an issue time plus at most the op's latency, its
    /// completion or a branch's refetch, and no op issues after the
    /// `halt`. A refetch is no later than the next issue, and an op
    /// other than a load completes by the finish; a load completes a
    /// cycle after it issues, so its result is ready at most its latency
    /// past the finish, and a pipe is free at most a cycle past it.
    pub(super) fn compile(
        self,
        report: &ExecReport,
        start: Cycle,
        timing: &CoreTiming,
    ) -> Option<Form> {
        if self.failed {
            return None;
        }
        let past = timing.load_latency.max(1);
        let finish = report.finish.as_u64();
        finish.checked_add(past)?;
        let span = finish - start.as_u64();
        let scratch = self
            .segments
            .iter()
            .map(|segment| match segment {
                Segment::Major { major, .. } => major.scratch,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        Some(Form {
            report: ExecReport {
                finish: Cycle::new(span),
                ..*report
            },
            reach: span + past,
            plan: Plan {
                segments: self.segments,
                scratch,
            },
        })
    }
}

/// The cursors of the trip before the first of the loop `ops`, when the
/// last ops of `straight` are that trip: op for op the same data op, each
/// load and store one stride before its cursor.
fn trip_before(ops: &[(Step, Cursor)], straight: &[(Step, Cursor)]) -> Option<Vec<(Step, Cursor)>> {
    if ops.is_empty() {
        return None;
    }
    let tail = straight.get(straight.len().checked_sub(ops.len())?..)?;
    ops.iter()
        .zip(tail)
        .map(|(&(step, at), &(done, word))| {
            let earlier = Cursor {
                word: at.word.checked_add_signed(at.stride.checked_neg()?)?,
                stride: at.stride,
            };
            let same = match (step, done) {
                (Step::Fld { fd, .. }, Step::Fld { fd: d, .. }) => fd == d,
                (Step::Fsd { fs, .. }, Step::Fsd { fs: d, .. }) => fs == d,
                (
                    Step::FsdPair { fs1, fs2, .. },
                    Step::FsdPair {
                        fs1: d1, fs2: d2, ..
                    },
                ) => fs1 == d1 && fs2 == d2,
                // An FP op has no address: the op itself must match.
                _ => return (step == done).then_some((step, at)),
            };
            (same && word.word == earlier.word).then_some((step, earlier))
        })
        .collect()
}

/// Where an op-major loop keeps a register's value at trip `t` of a
/// chunk: `vals[base + step·t]`. A buffered register has `step` 1; a
/// register the body never writes, or writes as a one-op recurrence,
/// stays in the register file (`vals[..FP]`) with `step` 0.
#[derive(Debug, Clone, Copy)]
struct Val {
    base: usize,
    step: usize,
}

impl Val {
    #[inline(always)]
    fn at(self, t: usize) -> usize {
        self.base + self.step * t
    }
}

/// One op of an op-major loop.
#[derive(Debug, Clone, Copy)]
enum Major {
    Load { fd: Val, at: Cursor },
    Store { fs: Val, at: Cursor },
    Pair { fs1: Val, fs2: Val, at: Cursor },
    Fmadd { fd: Val, fa: Val, fb: Val, fc: Val },
    Fadd { fd: Val, fa: Val, fb: Val },
    Fmul { fd: Val, fa: Val, fb: Val },
}

/// A closed-form loop whose trips are independent, planned to run op by
/// op: each op covers a chunk of trips before the next op starts.
///
/// Three conditions make that exact. No FP operand streams. No word a
/// store touches on one trip is touched by a load or a store on another
/// trip, so moving an access past another trip's accesses changes no
/// value. And every FP register the body reads before writing it is
/// either never written by the body, or written by exactly one op that
/// is also its only reader: a one-op recurrence such as `fmadd acc, x,
/// y, acc`, which runs serially inside its op. Every other register the
/// body reads was written earlier in the same trip, and keeps one value
/// per trip of the chunk. So every op gets the operands it gets in trip
/// order, and computes bitwise the same results; each register ends with
/// its value from the last trip.
#[derive(Debug)]
struct OpMajor {
    ops: Vec<Major>,
    /// Each buffered register, and where its values start.
    buffered: Vec<(usize, usize)>,
    /// Trips per chunk: [`CHUNK`], or fewer when the loop has fewer.
    chunk: usize,
    /// The values the loop keeps: every FP register, then each buffered
    /// register's values for one chunk.
    scratch: usize,
}

impl OpMajor {
    /// The op-major plan of a closed-form loop of `trips` trips on lent
    /// words with the cursors in `ops`, or `None` when its trips are not
    /// independent.
    fn plan(ops: &[(Step, Cursor)], trips: u64) -> Option<OpMajor> {
        let flows = ops
            .iter()
            .map(|&(step, _)| fp_flow(step))
            .collect::<Option<Vec<_>>>()?;
        if !trips_apart(ops, trips) {
            return None;
        }
        // Per register: written by the body, read before the body writes
        // it, read by its writer; and how many ops write and read it.
        let (mut written, mut early, mut self_read) = (0u32, 0u32, 0u32);
        let (mut writers, mut readers) = ([0u32; FP], [0u32; FP]);
        for &(reads, write) in &flows {
            early |= reads & !written;
            for (r, count) in readers.iter_mut().enumerate() {
                *count += reads >> r & 1;
            }
            if let Some(w) = write {
                writers[w] += 1;
                written |= 1 << w;
                self_read |= reads & 1 << w;
            }
        }
        let recurrence = |r: usize| writers[r] == 1 && self_read >> r & 1 == 1 && readers[r] == 1;
        if (0..FP).any(|r| early >> r & 1 == 1 && writers[r] > 0 && !recurrence(r)) {
            return None;
        }
        let chunk = trips.min(CHUNK) as usize;
        let mut val = [Val { base: 0, step: 0 }; FP];
        let mut buffered = Vec::new();
        for (r, val) in val.iter_mut().enumerate() {
            *val = if (written & !early) >> r & 1 == 1 {
                let base = FP + buffered.len() * chunk;
                buffered.push((r, base));
                Val { base, step: 1 }
            } else {
                Val { base: r, step: 0 }
            };
        }
        let reg = |r: Fp| match r {
            Fp::Reg(i) => val[usize::from(i)],
            Fp::Stream(_) => unreachable!("fp_flow refuses streams"),
        };
        let ops = ops
            .iter()
            .map(|&(step, at)| match step {
                Step::Fld { fd, .. } => Major::Load {
                    fd: val[fd.index()],
                    at,
                },
                Step::Fsd { fs, .. } => Major::Store {
                    fs: val[fs.index()],
                    at,
                },
                Step::FsdPair { fs1, fs2, .. } => Major::Pair {
                    fs1: val[fs1.index()],
                    fs2: val[fs2.index()],
                    at,
                },
                Step::Fmadd { fd, fa, fb, fc } => Major::Fmadd {
                    fd: reg(fd),
                    fa: reg(fa),
                    fb: reg(fb),
                    fc: reg(fc),
                },
                Step::Fadd { fd, fa, fb } => Major::Fadd {
                    fd: reg(fd),
                    fa: reg(fa),
                    fb: reg(fb),
                },
                Step::Fmul { fd, fa, fb } => Major::Fmul {
                    fd: reg(fd),
                    fa: reg(fa),
                    fb: reg(fb),
                },
                Step::Li { .. } | Step::Addi { .. } | Step::Add { .. } => {
                    unreachable!("fp_flow refuses integer ops")
                }
            })
            .collect();
        let scratch = FP + buffered.len() * chunk;
        Some(OpMajor {
            ops,
            buffered,
            chunk,
            scratch,
        })
    }
}

/// The FP registers a closed-form body op reads, as a mask, and the one
/// it writes; `None` for an op that streams or an integer op, which a
/// closed-form body does not hold.
fn fp_flow(step: Step) -> Option<(u32, Option<usize>)> {
    let reg = |r: Fp| match r {
        Fp::Reg(i) => Some(usize::from(i)),
        Fp::Stream(_) => None,
    };
    let bit = |r: usize| 1u32 << r;
    Some(match step {
        Step::Li { .. } | Step::Addi { .. } | Step::Add { .. } => return None,
        Step::Fld { fd, .. } => (0, Some(fd.index())),
        Step::Fsd { fs, .. } => (bit(fs.index()), None),
        Step::FsdPair { fs1, fs2, .. } => (bit(fs1.index()) | bit(fs2.index()), None),
        Step::Fmadd { fd, fa, fb, fc } => (
            bit(reg(fa)?) | bit(reg(fb)?) | bit(reg(fc)?),
            Some(reg(fd)?),
        ),
        Step::Fadd { fd, fa, fb } | Step::Fmul { fd, fa, fb } => {
            (bit(reg(fa)?) | bit(reg(fb)?), Some(reg(fd)?))
        }
    })
}

/// `true` when no word a store of `ops` touches on one of `trips` trips
/// is touched by a load or a store on another trip, as decided from the
/// cursors.
fn trips_apart(ops: &[(Step, Cursor)], trips: u64) -> bool {
    let accesses: Vec<(Cursor, i128, bool)> = ops
        .iter()
        .filter_map(|&(step, at)| match step {
            Step::Fld { .. } => Some((at, 1, false)),
            Step::Fsd { .. } => Some((at, 1, true)),
            Step::FsdPair { .. } => Some((at, 2, true)),
            _ => None,
        })
        .collect();
    accesses.iter().enumerate().all(|(i, a)| {
        accesses[i..]
            .iter()
            .all(|b| !(a.2 || b.2) || apart((a.0, a.1), (b.0, b.1), trips))
    })
}

/// `true` when two accesses, each a cursor and a width in words, never
/// touch one word on different trips of `trips`: their word ranges over
/// the whole loop are disjoint, or they move by the same nonzero stride
/// and one stride-wide window holds both on every trip (the accesses
/// keep their distance, so the first trip decides). Anything else counts
/// as dependent.
fn apart((a, a_width): (Cursor, i128), (b, b_width): (Cursor, i128), trips: u64) -> bool {
    let span = |at: Cursor, width: i128| {
        let first = at.word as i128;
        let last = (at.stride as i128)
            .checked_mul(i128::from(trips - 1))?
            .checked_add(first)?;
        Some((first.min(last), first.max(last) + width))
    };
    let (Some((a_lo, a_hi)), Some((b_lo, b_hi))) = (span(a, a_width), span(b, b_width)) else {
        return false;
    };
    if a_hi <= b_lo || b_hi <= a_lo {
        return true;
    }
    let (a_first, b_first) = (a.word as i128, b.word as i128);
    let window = (a_first + a_width).max(b_first + b_width) - a_first.min(b_first);
    a.stride == b.stride && a.stride != 0 && window <= (a.stride as i128).abs()
}

impl Core {
    /// Runs `trips` trips of the op-major loop `major` on lent words,
    /// with `vals` holding at least its scratch values: each op over a
    /// chunk of trips, then the next op.
    fn run_major<W: Word>(
        &mut self,
        major: &OpMajor,
        words: &mut [W],
        trips: u64,
        vals: &mut [f64],
    ) {
        vals[..FP].copy_from_slice(&self.fp);
        let mut first = 0;
        let mut last = 0;
        while first < trips {
            let n = (trips - first).min(major.chunk as u64) as usize;
            for op in &major.ops {
                match *op {
                    Major::Load { fd, at } => {
                        let mut word = at.at(first);
                        for t in 0..n {
                            vals[fd.at(t)] = words[word].get();
                            word = word.wrapping_add_signed(at.stride);
                        }
                    }
                    Major::Store { fs, at } => {
                        let mut word = at.at(first);
                        for t in 0..n {
                            words[word] = W::of(vals[fs.at(t)]);
                            word = word.wrapping_add_signed(at.stride);
                        }
                    }
                    Major::Pair { fs1, fs2, at } => {
                        let mut word = at.at(first);
                        for t in 0..n {
                            words[word] = W::of(vals[fs1.at(t)]);
                            words[word + 1] = W::of(vals[fs2.at(t)]);
                            word = word.wrapping_add_signed(at.stride);
                        }
                    }
                    Major::Fmadd { fd, fa, fb, fc } => {
                        for t in 0..n {
                            vals[fd.at(t)] = vals[fa.at(t)].mul_add(vals[fb.at(t)], vals[fc.at(t)]);
                        }
                    }
                    Major::Fadd { fd, fa, fb } => {
                        for t in 0..n {
                            vals[fd.at(t)] = vals[fa.at(t)] + vals[fb.at(t)];
                        }
                    }
                    Major::Fmul { fd, fa, fb } => {
                        for t in 0..n {
                            vals[fd.at(t)] = vals[fa.at(t)] * vals[fb.at(t)];
                        }
                    }
                }
            }
            first += n as u64;
            last = n - 1;
        }
        for &(r, base) in &major.buffered {
            vals[r] = vals[base + last];
        }
        self.fp.copy_from_slice(&vals[..FP]);
    }
}
