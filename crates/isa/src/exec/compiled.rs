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
//! the first run's report shifted to its start. A loop whose trips are
//! independent runs op by op over chunks of trips, each op as a slice
//! kernel whose shape the plan fixed.

use std::cell::RefCell;
use std::cmp::Ordering;

use mpsoc_sim::Cycle;

use super::{Core, CoreTiming, Cursor, ExecError, ExecReport, Fp, MemoryPort, Step, Word, Words};
use crate::{IntReg, MicroOp, Program, FP_REGS};

/// Ops a plan may hold, a loop in closed form counted once: a run whose
/// plan would pass it does not compile. Loops that are not in closed
/// form unroll into the plan, so this bounds a plan's memory.
const PLAN_CAP: usize = 1 << 14;

/// Trips an op-major loop runs each op over before the next op starts.
const CHUNK: u64 = 256;

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

    /// The shape of every op of the plan's op-major loops, in plan order.
    #[cfg(test)]
    pub(crate) fn shapes(&self) -> Vec<Shape> {
        let segments = self.form.iter().flat_map(|form| &form.plan.segments);
        let majors = segments.filter_map(|segment| match segment {
            Segment::Major { major, .. } => Some(major),
            _ => None,
        });
        majors
            .flat_map(|major| &major.ops)
            .map(|op| match *op {
                Major::Load { .. } => Shape::Load,
                Major::Store { .. } => Shape::Store,
                Major::Fill { .. } => Shape::Fill,
                Major::Map { fd, args, .. } if args.contains(&fd) => Shape::InPlace,
                Major::Map { .. } => Shape::Map,
                Major::Fold { .. } => Shape::Fold,
                Major::Each(_) => Shape::Each,
            })
            .collect()
    }
}

/// How an op of an op-major loop runs.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// A contiguous load.
    Load,
    /// A contiguous store of a buffered register.
    Store,
    /// A contiguous store of a register the body never writes.
    Fill,
    /// An FP op into a buffer that none of its operands is.
    Map,
    /// An FP op into a buffer that one of its operands is.
    InPlace,
    /// A one-op recurrence.
    Fold,
    /// A strided, descending, still or paired access, one trip at a time.
    Each,
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

/// One op of an op-major loop, in the shape of the slice kernel that
/// runs it over a chunk of trips. The plan fixes the shape.
#[derive(Debug, Clone, Copy)]
enum Major {
    /// A load whose cursor moves one word up per trip: the chunk's words
    /// copied into the buffer at `fd`.
    Load { fd: usize, at: Cursor },
    /// A store of the buffer at `fs` whose cursor moves one word up per
    /// trip.
    Store { fs: usize, at: Cursor },
    /// A store of register `fs`, which the body never writes, one word
    /// up per trip: a fill.
    Fill { fs: usize, at: Cursor },
    /// An FP op with a buffered result: `kernel` walks the buffer at
    /// `fd` against the operands at `args`, in place where `fd` is one
    /// of them.
    Map {
        kernel: Kernel,
        fd: usize,
        args: [usize; 3],
    },
    /// A one-op recurrence: `kernel` folds register `fd` over the
    /// operands at `args` in trip order.
    Fold {
        kernel: Kernel,
        fd: usize,
        args: [usize; 3],
    },
    /// Any other load or store, one trip at a time: a strided,
    /// descending or still cursor, or a pair.
    Each(Access),
}

/// A load or store of an op-major loop that runs one trip at a time.
#[derive(Debug, Clone, Copy)]
enum Access {
    Load { fd: Val, at: Cursor },
    Store { fs: Val, at: Cursor },
    Pair { fs1: Val, fs2: Val, at: Cursor },
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
        // An FP op's result is buffered, or it is a recurrence's register
        // (step 0). An operand at the result's place is the result
        // itself; one in the register file holds for the whole loop,
        // since only its writer reads a recurrence's register; any other
        // is buffered.
        let fp_op = |fd: Fp, op: FpOp, operands: [Fp; 3]| {
            let fd = reg(fd);
            let args = operands.map(|r| reg(r).base);
            let kinds = args.map(|at| match at {
                _ if at == fd.base => Kind::Own,
                _ if at < FP => Kind::Splat,
                _ => Kind::Slice,
            });
            match fd.step {
                1 => Major::Map {
                    kernel: kernel::<Map>(op, kinds),
                    fd: fd.base,
                    args,
                },
                _ => Major::Fold {
                    kernel: kernel::<Fold>(op, kinds),
                    fd: fd.base,
                    args,
                },
            }
        };
        let ops = ops
            .iter()
            .map(|&(step, at)| match step {
                // A loaded register is buffered: a load does not read its
                // register, so the load is no recurrence.
                Step::Fld { fd, .. } => match (val[fd.index()], at.stride) {
                    (fd, 1) => Major::Load { fd: fd.base, at },
                    (fd, _) => Major::Each(Access::Load { fd, at }),
                },
                Step::Fsd { fs, .. } => match (val[fs.index()], at.stride) {
                    (Val { base, step: 1 }, 1) => Major::Store { fs: base, at },
                    (Val { base, .. }, 1) => Major::Fill { fs: base, at },
                    (fs, _) => Major::Each(Access::Store { fs, at }),
                },
                Step::FsdPair { fs1, fs2, .. } => Major::Each(Access::Pair {
                    fs1: val[fs1.index()],
                    fs2: val[fs2.index()],
                    at,
                }),
                Step::Fmadd { fd, fa, fb, fc } => fp_op(fd, FpOp::Fmadd, [fa, fb, fc]),
                // A binary op's third operand repeats its second; its
                // kernel never reads it.
                Step::Fadd { fd, fa, fb } => fp_op(fd, FpOp::Fadd, [fa, fb, fb]),
                Step::Fmul { fd, fa, fb } => fp_op(fd, FpOp::Fmul, [fa, fb, fb]),
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
    /// chunk of trips, then the next op. A buffered register's values for
    /// a chunk are one slice, so every op but an [`Major::Each`] runs as
    /// a slice kernel, its bounds checked once per chunk.
    fn run_major<W: Word>(
        &mut self,
        major: &OpMajor,
        words: &mut [W],
        trips: u64,
        vals: &mut [f64],
    ) {
        vals[..FP].copy_from_slice(&self.fp);
        let mut first = 0;
        let mut n = 0;
        while first < trips {
            n = (trips - first).min(major.chunk as u64) as usize;
            for op in &major.ops {
                match *op {
                    Major::Load { fd, at } => {
                        let from = &words[at.at(first)..][..n];
                        for (value, word) in vals[fd..][..n].iter_mut().zip(from) {
                            *value = word.get();
                        }
                    }
                    Major::Store { fs, at } => {
                        let to = &mut words[at.at(first)..][..n];
                        for (word, value) in to.iter_mut().zip(&vals[fs..][..n]) {
                            *word = W::of(*value);
                        }
                    }
                    Major::Fill { fs, at } => words[at.at(first)..][..n].fill(W::of(vals[fs])),
                    Major::Map { kernel, fd, args } => fp_kernel(kernel, vals, fd, n, args, n),
                    Major::Fold { kernel, fd, args } => fp_kernel(kernel, vals, fd, 1, args, n),
                    Major::Each(Access::Load { fd, at }) => {
                        let mut word = at.at(first);
                        for t in 0..n {
                            vals[fd.at(t)] = words[word].get();
                            word = word.wrapping_add_signed(at.stride);
                        }
                    }
                    Major::Each(Access::Store { fs, at }) => {
                        let mut word = at.at(first);
                        for t in 0..n {
                            words[word] = W::of(vals[fs.at(t)]);
                            word = word.wrapping_add_signed(at.stride);
                        }
                    }
                    Major::Each(Access::Pair { fs1, fs2, at }) => {
                        let mut word = at.at(first);
                        for t in 0..n {
                            words[word] = W::of(vals[fs1.at(t)]);
                            words[word + 1] = W::of(vals[fs2.at(t)]);
                            word = word.wrapping_add_signed(at.stride);
                        }
                    }
                }
            }
            first += n as u64;
        }
        for &(r, base) in &major.buffered {
            vals[r] = vals[base + n - 1];
        }
        self.fp.copy_from_slice(&vals[..FP]);
    }
}

/// Runs an FP op's `kernel` over a chunk of `n` trips: its destination
/// is the `width` values at `fd` (the chunk's, or a recurrence's one
/// register), and each operand the values from its index in `args` on.
/// The destination is cut out of `vals`, so no operand can alias it; an
/// operand at `fd` itself is the destination, which the kernel reads in
/// place.
#[inline(always)]
fn fp_kernel(
    kernel: Kernel,
    vals: &mut [f64],
    fd: usize,
    width: usize,
    args: [usize; 3],
    n: usize,
) {
    let (below, rest) = vals.split_at_mut(fd);
    let (own, above) = rest.split_at_mut(width);
    let (below, above): (&[f64], &[f64]) = (below, above);
    let arg = move |at: usize| match at.cmp(&fd) {
        Ordering::Less => &below[at..],
        Ordering::Equal => &[],
        Ordering::Greater => &above[at - fd - width..],
    };
    kernel(own, n, [arg(args[0]), arg(args[1]), arg(args[2])]);
}

/// A slice kernel: one FP op over a chunk of `n` trips, given its
/// destination and its three operands' values.
type Kernel = fn(&mut [f64], usize, [&[f64]; 3]);

/// What an operand of an FP op is to its kernel.
#[derive(Clone, Copy)]
enum Kind {
    /// The destination itself: an op in place, or a recurrence's
    /// carried value.
    Own,
    /// A register that holds for the whole loop, broadcast to every
    /// trip.
    Splat,
    /// A buffered register: one value per trip.
    Slice,
}

/// An operand kind as a type, so that each combination of kinds runs its
/// own loop, with no per-trip branch or index arithmetic.
trait Operand {
    /// The operand's values for a chunk of `n` trips, cut from the values
    /// from its index on: a slice's one bounds check.
    fn cut(vals: &[f64], n: usize) -> &[f64];
    /// The operand at trip `t`, from its cut values, where the
    /// destination holds `own`.
    fn at(vals: &[f64], own: f64, t: usize) -> f64;
}

struct Own;
struct Splat;
struct Slice;

impl Operand for Own {
    #[inline(always)]
    fn cut(vals: &[f64], _: usize) -> &[f64] {
        vals
    }

    #[inline(always)]
    fn at(_: &[f64], own: f64, _: usize) -> f64 {
        own
    }
}

impl Operand for Splat {
    #[inline(always)]
    fn cut(vals: &[f64], _: usize) -> &[f64] {
        &vals[..1]
    }

    #[inline(always)]
    fn at(vals: &[f64], _: f64, _: usize) -> f64 {
        vals[0]
    }
}

impl Operand for Slice {
    #[inline(always)]
    fn cut(vals: &[f64], n: usize) -> &[f64] {
        &vals[..n]
    }

    #[inline(always)]
    fn at(vals: &[f64], _: f64, t: usize) -> f64 {
        vals[t]
    }
}

/// The operation of an FP op.
#[derive(Clone, Copy)]
enum FpOp {
    Fadd,
    Fmul,
    Fmadd,
}

/// An FP operation as a type. A binary op ignores its third operand.
trait Math {
    fn apply(a: f64, b: f64, c: f64) -> f64;
}

struct Add;
struct Mul;
struct MulAdd;

impl Math for Add {
    #[inline(always)]
    fn apply(a: f64, b: f64, _: f64) -> f64 {
        a + b
    }
}

impl Math for Mul {
    #[inline(always)]
    fn apply(a: f64, b: f64, _: f64) -> f64 {
        a * b
    }
}

impl Math for MulAdd {
    /// One `f64::mul_add`, as the per-op interpreter runs `fmadd`.
    #[inline(always)]
    fn apply(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }
}

/// How a kernel walks its destination.
trait Walk {
    fn run<M: Math, A: Operand, B: Operand, C: Operand>(
        own: &mut [f64],
        n: usize,
        args: [&[f64]; 3],
    );
}

/// A buffered result: each trip's value computed on its own. IEEE basic
/// operations round every result on its own, so a vectorized lane
/// equals the scalar result.
struct Map;

/// A recurrence: the carried value folded over the trips in order.
struct Fold;

impl Walk for Map {
    // Indexing `own` with the operands keeps the loop free of bounds
    // checks: `n` bounds every slice. Walking `own` with `enumerate`
    // left a check on each slice operand in the loop.
    #[allow(clippy::needless_range_loop)]
    fn run<M: Math, A: Operand, B: Operand, C: Operand>(
        own: &mut [f64],
        n: usize,
        args: [&[f64]; 3],
    ) {
        let own = &mut own[..n];
        let (a, b, c) = (A::cut(args[0], n), B::cut(args[1], n), C::cut(args[2], n));
        for t in 0..n {
            let v = own[t];
            own[t] = M::apply(A::at(a, v, t), B::at(b, v, t), C::at(c, v, t));
        }
    }
}

impl Walk for Fold {
    fn run<M: Math, A: Operand, B: Operand, C: Operand>(
        own: &mut [f64],
        n: usize,
        args: [&[f64]; 3],
    ) {
        let (a, b, c) = (A::cut(args[0], n), B::cut(args[1], n), C::cut(args[2], n));
        let mut acc = own[0];
        for t in 0..n {
            acc = M::apply(A::at(a, acc, t), B::at(b, acc, t), C::at(c, acc, t));
        }
        own[0] = acc;
    }
}

/// Binds the type `$T` to the operand kind `$kind` in `$body`.
macro_rules! kind {
    ($kind:expr, $T:ident => $body:expr) => {
        match $kind {
            Kind::Own => {
                type $T = Own;
                $body
            }
            Kind::Splat => {
                type $T = Splat;
                $body
            }
            Kind::Slice => {
                type $T = Slice;
                $body
            }
        }
    };
}

/// The kernel that walks a destination as `W` does for the operation
/// `op` on operands of the kinds `kinds`.
fn kernel<W: Walk>(op: FpOp, [a, b, c]: [Kind; 3]) -> Kernel {
    match op {
        FpOp::Fadd => kind!(a, A => kind!(b, B => W::run::<Add, A, B, Own>)),
        FpOp::Fmul => kind!(a, A => kind!(b, B => W::run::<Mul, A, B, Own>)),
        FpOp::Fmadd => kind!(a, A => kind!(b, B => kind!(c, C => W::run::<MulAdd, A, B, C>))),
    }
}
