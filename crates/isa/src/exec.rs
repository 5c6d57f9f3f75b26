//! The micro-op interpreter: functional semantics + issue timing.

use std::error::Error;
use std::fmt;

use mpsoc_sim::Cycle;
use serde::{Deserialize, Serialize};

use crate::{FpReg, IntReg, MicroOp, PipeClass, Program, FP_REGS, INT_REGS};

mod compiled;

pub(crate) use compiled::Compiled;
use compiled::Recorder;
#[cfg(test)]
pub(crate) use compiled::Shape;

/// A memory access fault raised by a [`MemoryPort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortError {
    /// The faulting local byte address.
    pub addr: u64,
}

impl fmt::Display for PortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory port fault at local address {:#x}", self.addr)
    }
}

impl Error for PortError {}

/// The data/timing interface between a core and its cluster TCDM.
///
/// Addresses are byte offsets local to the cluster. [`MemoryPort::grant`]
/// is the bank-arbitration hook: given the cycle an access *wants* to
/// issue, it returns the cycle the access is *granted* (possibly later on
/// a bank conflict). The default grants immediately.
///
/// A port that never delays an access should say so through
/// [`MemoryPort::conflict_free`]: the interpreter then fast-forwards
/// counted loops whose timing has reached a steady state. A port whose
/// loads and stores are plain word accesses should also lend its words
/// through [`MemoryPort::words`], so fast-forwarded trips run on them
/// directly.
pub trait MemoryPort {
    /// Reads the 64-bit word at `addr` as a double.
    ///
    /// # Errors
    ///
    /// Returns [`PortError`] on an out-of-range or misaligned address.
    fn load(&mut self, addr: u64) -> Result<f64, PortError>;

    /// Writes a double to the 64-bit word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PortError`] on an out-of-range or misaligned address.
    fn store(&mut self, addr: u64, value: f64) -> Result<(), PortError>;

    /// Arbitration hook: earliest grant for an access to `addr` proposed
    /// at cycle `at`.
    fn grant(&mut self, _addr: u64, at: Cycle) -> Cycle {
        at
    }

    /// `true` when [`MemoryPort::grant`] always returns `at` unchanged
    /// and has no side effect, so an access's timing never depends on
    /// its address or on earlier accesses. Defaults to `false`, which
    /// keeps every op of a run on the per-op issue model.
    fn conflict_free(&self) -> bool {
        false
    }

    /// Lends the port's backing words. Only a
    /// [conflict-free](MemoryPort::conflict_free) port whose loads and
    /// stores are plain word accesses may lend: at an address `a` with
    /// `a % 8 == 0` and `a / 8` below the number of words, they read or
    /// write word `a / 8` and nothing else, and at every other address
    /// they fail with `PortError { addr: a }`. The interpreter checks a
    /// fast-forwarded loop's loads and stores once, against the words,
    /// and then runs the loop's trips on them. Defaults to `None`, which
    /// keeps every access on [`MemoryPort::load`] and
    /// [`MemoryPort::store`].
    fn words(&mut self) -> Option<Words<'_>> {
        None
    }
}

/// The backing words a [`MemoryPort`] lends: word `i` holds the double
/// at local byte address `8·i`.
#[derive(Debug)]
pub enum Words<'a> {
    /// The doubles themselves.
    F64(&'a mut [f64]),
    /// The doubles' raw bits.
    Bits(&'a mut [u64]),
}

impl Words<'_> {
    fn len(&self) -> usize {
        match self {
            Words::F64(words) => words.len(),
            Words::Bits(words) => words.len(),
        }
    }
}

/// The word at local byte address `addr` among `len` words, or the
/// fault an unaligned or out-of-range address raises.
fn word_index(addr: u64, len: usize) -> Result<usize, PortError> {
    if addr % 8 != 0 || addr / 8 >= len as u64 {
        return Err(PortError { addr });
    }
    Ok((addr / 8) as usize)
}

/// A plain `Vec<f64>`-backed [`MemoryPort`] with no contention; handy for
/// tests and for running kernels outside the full SoC.
#[derive(Debug, Clone, Default)]
pub struct VecPort {
    data: Vec<f64>,
}

impl VecPort {
    /// Wraps a vector; element `i` lives at byte address `8·i`.
    pub fn new(data: Vec<f64>) -> Self {
        VecPort { data }
    }

    /// The backing data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl MemoryPort for VecPort {
    fn load(&mut self, addr: u64) -> Result<f64, PortError> {
        Ok(self.data[word_index(addr, self.data.len())?])
    }

    fn store(&mut self, addr: u64, value: f64) -> Result<(), PortError> {
        let i = word_index(addr, self.data.len())?;
        self.data[i] = value;
        Ok(())
    }

    fn conflict_free(&self) -> bool {
        true
    }

    fn words(&mut self) -> Option<Words<'_>> {
        Some(Words::F64(&mut self.data))
    }
}

/// A lent word: a double, or its raw bits.
trait Word: Copy {
    fn get(self) -> f64;
    fn of(value: f64) -> Self;
}

impl Word for f64 {
    #[inline(always)]
    fn get(self) -> f64 {
        self
    }

    #[inline(always)]
    fn of(value: f64) -> Self {
        value
    }
}

impl Word for u64 {
    #[inline(always)]
    fn get(self) -> f64 {
        f64::from_bits(self)
    }

    #[inline(always)]
    fn of(value: f64) -> Self {
        value.to_bits()
    }
}

/// Lent words as a port that checks every access as the lending port
/// does: what the FP ops of a loop run on lent words stream through.
struct Lent<'a, W>(&'a mut [W]);

impl<W: Word> MemoryPort for Lent<'_, W> {
    fn load(&mut self, addr: u64) -> Result<f64, PortError> {
        Ok(self.0[word_index(addr, self.0.len())?].get())
    }

    fn store(&mut self, addr: u64, value: f64) -> Result<(), PortError> {
        let i = word_index(addr, self.0.len())?;
        self.0[i] = W::of(value);
        Ok(())
    }
}

/// Latency parameters of the modeled in-order core.
///
/// The defaults are the calibrated Snitch-class values: with them, the
/// software-pipelined DAXPY kernel of `mpsoc-kernels` sustains 26 cycles
/// per 10 elements (2.6 cycles/element), the compute coefficient of the
/// paper's Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreTiming {
    /// Cycles from load issue to destination availability.
    pub load_latency: u64,
    /// Cycles from FP op issue to destination availability (pipelined).
    pub fp_latency: u64,
    /// Cycles from integer op issue to destination availability.
    pub int_latency: u64,
    /// Extra fetch bubble after a taken branch.
    pub branch_taken_penalty: u64,
    /// Execution fuel: maximum retired ops before aborting.
    pub max_steps: u64,
    /// When `true`, all ops contend for one issue slot per cycle (a
    /// scalar in-order core like the CVA6-class host); when `false`,
    /// the four pipes (LSU/FPU/ALU/branch) issue independently.
    pub single_issue: bool,
}

impl CoreTiming {
    /// The calibrated Snitch-class configuration.
    pub fn snitch() -> Self {
        CoreTiming {
            load_latency: 2,
            fp_latency: 3,
            int_latency: 1,
            branch_taken_penalty: 1,
            max_steps: 100_000_000,
            single_issue: false,
        }
    }

    /// A CVA6-class application core: scalar single-issue, longer FP and
    /// load latencies, costlier taken branches. Used to model executing
    /// a kernel on the host instead of offloading it.
    pub fn cva6() -> Self {
        CoreTiming {
            load_latency: 3,
            fp_latency: 5,
            int_latency: 1,
            branch_taken_penalty: 2,
            max_steps: 100_000_000,
            single_issue: true,
        }
    }
}

impl Default for CoreTiming {
    fn default() -> Self {
        CoreTiming::snitch()
    }
}

/// What happened during one program execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExecReport {
    /// Completion time: when the last op's result is architecturally done.
    pub finish: Cycle,
    /// Total retired micro-ops.
    pub retired: u64,
    /// Retired loads/stores.
    pub mem_ops: u64,
    /// Retired FP ops.
    pub fp_ops: u64,
    /// Retired integer ops.
    pub int_ops: u64,
    /// Retired branches (taken or not).
    pub branches: u64,
    /// Cycles lost to operand/bank hazards beyond in-order flow.
    pub stall_cycles: u64,
}

/// An execution failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// A memory access faulted.
    Port(PortError),
    /// The fuel limit was reached (runaway loop guard).
    FuelExhausted {
        /// Ops retired before giving up.
        steps: u64,
    },
    /// A branch target or fall-through left the program.
    PcOutOfRange {
        /// The offending op index.
        pc: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Port(e) => write!(f, "{e}"),
            ExecError::FuelExhausted { steps } => {
                write!(f, "execution fuel exhausted after {steps} ops")
            }
            ExecError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Port(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PortError> for ExecError {
    fn from(e: PortError) -> Self {
        ExecError::Port(e)
    }
}

/// Executes [`Program`]s with cycle-accurate issue timing.
///
/// The modeled core is a decoupled in-order design with four pipes
/// ([`PipeClass`]): per cycle, at most one op issues on each pipe, in
/// program order (issue times never decrease). Operand hazards stall
/// issue; a taken branch inserts a fetch bubble; loads/stores consult the
/// [`MemoryPort::grant`] hook so TCDM bank conflicts delay the LSU.
///
/// On a [conflict-free](MemoryPort::conflict_free) port, counted loops
/// are fast-forwarded: once two consecutive iterations of a straight-line
/// loop body leave the same timing state relative to fetch, the remaining
/// iterations run functionally and their timing is extrapolated. The
/// result is exact to the cycle; every other loop runs op by op.
///
/// On such a port that also lends its [words](MemoryPort::words), a
/// program's first successful run compiles it, and later runs execute
/// only its data flow (see [`Interpreter::run_from`]).
///
/// See the crate-level example for usage.
#[derive(Debug, Clone, Default)]
pub struct Interpreter {
    timing: CoreTiming,
}

impl Interpreter {
    /// Creates an interpreter with [`CoreTiming::snitch`] timing.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Creates an interpreter with explicit timing.
    pub fn with_timing(timing: CoreTiming) -> Self {
        Interpreter { timing }
    }

    /// The timing parameters in effect.
    pub fn timing(&self) -> &CoreTiming {
        &self.timing
    }

    /// Runs `program` to completion starting at cycle 0.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run(
        &self,
        program: &Program,
        port: &mut impl MemoryPort,
    ) -> Result<ExecReport, ExecError> {
        self.run_from(program, Cycle::ZERO, port)
    }

    /// Runs `program` to completion, with the first op eligible to issue
    /// at `start` (the cluster controller's go signal).
    ///
    /// No op moves memory or FP data into an integer register or the pc,
    /// so on a [conflict-free](MemoryPort::conflict_free) port a run's
    /// control flow, addresses, faults, op counts and timing depend only
    /// on the program, the timing, the number of words the port lends and
    /// the start, and its timing moves one for one with the start. The
    /// first successful run of a program on a port that lends its
    /// [words](MemoryPort::words) therefore keeps a compiled form of it,
    /// which the program's clones share: the run's report relative to
    /// its start, and a plan of its loads, stores and FP ops over the
    /// lent words. A later run with the same timing, on a conflict-free
    /// port that lends as many words, from a start at which no clock can
    /// saturate, executes only the plan and returns the report shifted to
    /// its start. Its result is the same to the bit and to the cycle.
    /// Programs that use SSR streams or `frep`, and plans past a size
    /// cap, are not compiled; every other run takes the timed path.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_from<P: MemoryPort>(
        &self,
        program: &Program,
        start: Cycle,
        port: &mut P,
    ) -> Result<ExecReport, ExecError> {
        let _prof = mpsoc_sim::profile::scope("isa.interpret");
        if !port.conflict_free() {
            return self.timed(program, start, port, None);
        }
        let cell = program.compiled();
        if let Some(compiled) = cell.get() {
            if let Some(report) = compiled.run(&self.timing, start, port)? {
                return Ok(report);
            }
            return self.timed(program, start, port, None);
        }
        let Some(words) = port.words().map(|words| words.len()) else {
            return self.timed(program, start, port, None);
        };
        let mut recorder = Recorder::of(program);
        let report = self.timed(program, start, port, recorder.as_mut())?;
        let form = recorder.and_then(|recorder| recorder.compile(&report, start, &self.timing));
        // Another clone may have compiled the program meanwhile; its form
        // is as good as this one.
        let _ = cell.set(Compiled::new(self.timing, words, form));
        Ok(report)
    }

    /// Runs `program` op by op through the issue model, fast-forwarding
    /// steady-state loops, and records its data flow into `rec`.
    fn timed<P: MemoryPort>(
        &self,
        program: &Program,
        start: Cycle,
        port: &mut P,
        mut rec: Option<&mut Recorder>,
    ) -> Result<ExecReport, ExecError> {
        let t = &self.timing;
        let ops = program.ops();
        let fast_forward = port.conflict_free();
        let mut core = Core::default();
        let mut clocks = Clocks::at(start.as_u64());
        let mut watch = LoopWatch::default();
        let mut report = ExecReport::default();
        let mut pc = 0usize;

        loop {
            fuel(&report, t)?;
            let Some(&op) = ops.get(pc) else {
                return Err(ExecError::PcOutOfRange { pc });
            };
            if let MicroOp::Bnez { rs, target } = op {
                let loops_back = fast_forward
                    && core.int[rs.index()] != 0
                    && target <= pc
                    && core.frep.is_none();
                let steady = if loops_back {
                    watch.visit(ops, pc, target, &clocks, report.stall_cycles)
                } else {
                    None
                };
                if let Some(trip) = steady {
                    // The clocks still hold this iteration's state before
                    // the branch; every replayed trip shifts it by one
                    // initiation interval. The branch now falls through:
                    // go round again to retire it on the timed path.
                    let trips = core.replay(ops, pc, t, port, &mut report, rec.as_deref_mut())?;
                    clocks.shift(trips.saturating_mul(trip.interval));
                    report.stall_cycles = report
                        .stall_cycles
                        .saturating_add(trips.saturating_mul(trip.stall));
                    continue;
                }
            }

            let d = OpTiming::of(op, core.streaming, t);
            // In-order multi-issue: an op may share a cycle with the
            // previous op (different pipe) but never issue earlier.
            let (base, mut issue) = clocks.ready(&d);
            if let Some((rs, offset)) = d.access() {
                let granted = port
                    .grant(core.addr(rs, offset), Cycle::new(issue))
                    .as_u64();
                debug_assert!(
                    !fast_forward || granted == issue,
                    "a conflict-free port delayed an access"
                );
                issue = granted;
            }
            report.stall_cycles += issue - base;

            let flow = core.execute(ops, pc, port, &mut report, rec.as_deref_mut())?;
            report.retired += 1;
            let next = match flow {
                Flow::Halt => {
                    report.finish = Cycle::new(clocks.finish(issue));
                    return Ok(report);
                }
                Flow::Next => pc + 1,
                Flow::Taken(target) => target,
            };
            clocks.retire(&d, issue, matches!(flow, Flow::Taken(_)));
            pc = core.wrap(pc, next);
        }
    }
}

/// Fails once `report` has retired the fuel limit's worth of ops.
fn fuel(report: &ExecReport, timing: &CoreTiming) -> Result<(), ExecError> {
    if report.retired >= timing.max_steps {
        return Err(ExecError::FuelExhausted {
            steps: report.retired,
        });
    }
    Ok(())
}

// The timing state is one array of clocks, so a loop's state can be
// sampled, compared and shifted as a whole: the fetch clock, the
// completion high-water mark, the four pipe-free times and the ready
// time of every register.
const FETCH: usize = 0;
const HIGH_WATER: usize = 1;
const PIPE_FREE: usize = 2;
const INT_READY: usize = PIPE_FREE + 4;
const FP_READY: usize = INT_READY + INT_REGS as usize;
const CLOCKS: usize = FP_READY + FP_REGS as usize;

/// The timing state of a core: when the next op may be fetched, when
/// each pipe and each register is next free, and when the last result
/// completes. The issue rule reads it through [`Clocks::ready`] and
/// advances it through [`Clocks::retire`].
///
/// Clock arithmetic saturates at `u64::MAX`, so a state shifted past
/// the end of time stays there instead of wrapping.
#[derive(Debug, Clone)]
pub struct Clocks([u64; CLOCKS]);

impl Clocks {
    /// The state of a core whose first op may issue at `start`.
    pub fn at(start: u64) -> Self {
        Clocks([start; CLOCKS])
    }

    /// When the op `d` may issue on a port that grants at once, as
    /// `(base, ready)`: `base` is when fetch and its pipe let it issue,
    /// `ready` also waits for its operands. `ready - base` cycles are
    /// operand stalls.
    #[inline]
    pub fn ready(&self, d: &OpTiming) -> (u64, u64) {
        let base = self.0[FETCH].max(self.0[d.pipe]);
        let ready = d.srcs.iter().fold(base, |at, &s| at.max(self.0[s]));
        (base, ready)
    }

    /// Retires the op `d` issued at `issue`: its pipe is busy for that
    /// cycle, its result is ready its latency later, the high-water mark
    /// covers its completion, and the next op is fetched no earlier than
    /// `issue`, or, past a `taken` branch, after the branch bubble.
    #[inline]
    pub fn retire(&mut self, d: &OpTiming, issue: u64, taken: bool) {
        let c = &mut self.0;
        c[FETCH] = if taken {
            issue.saturating_add(d.refetch)
        } else {
            c[FETCH].max(issue)
        };
        if let Some((slot, latency)) = d.dst {
            c[slot] = issue.saturating_add(latency);
        }
        c[HIGH_WATER] = c[HIGH_WATER].max(issue.saturating_add(d.done));
        c[d.pipe] = issue.saturating_add(1);
    }

    /// When a program whose `halt` issues at `issue` finishes: at the
    /// later of the halt and the last result's completion.
    pub fn finish(&self, issue: u64) -> u64 {
        self.0[HIGH_WATER].max(issue)
    }

    /// Moves every clock `cycles` on: what a run of loop trips in a
    /// steady state does to the state (see [`SteadyState`]).
    pub fn shift(&mut self, cycles: u64) {
        for clock in &mut self.0 {
            *clock = clock.saturating_add(cycles);
        }
    }
}

/// The issue rule's view of one op: the pipe it issues on, the clocks
/// its operands wait on, the clock its result makes ready, and when it
/// completes. [`Clocks`] applies it; the interpreter and the static
/// bound analyzer both time every op through it.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    /// The clock slot of the pipe the op issues on.
    pipe: usize,
    /// Clock slots the operands wait on. Unused entries name `FETCH`,
    /// which never delays issue.
    srcs: [usize; 3],
    /// The clock slot the result makes ready, and its latency.
    dst: Option<(usize, u64)>,
    /// Cycles from issue until the op completes.
    done: u64,
    /// Cycles from issue until the next fetch, if the op is a taken
    /// branch.
    refetch: u64,
    /// The base register and offset of a load's or store's address.
    access: Option<(IntReg, i64)>,
}

impl OpTiming {
    /// The timing of `op` on a core with `timing`, while the FP registers
    /// set in `streaming` (bit `i` for `f{i}`) alias SSR streams.
    #[inline]
    pub fn of(op: MicroOp, streaming: u32, timing: &CoreTiming) -> Self {
        let is_stream = |r: FpReg| streaming & (1 << r.index()) != 0;
        let int = |r: IntReg| INT_READY + r.index();
        // Enabled streams are prefetched by dedicated SSR ports: no
        // register-file dependency, and stream writes free no register.
        let fp = |r: FpReg| {
            if is_stream(r) {
                FETCH
            } else {
                FP_READY + r.index()
            }
        };
        let fp_result = |r: FpReg| (!is_stream(r)).then_some((fp(r), timing.fp_latency));
        // Stores complete one cycle after issue; results at their latency.
        let (pipe, done) = match op.pipe() {
            PipeClass::Mem => (0, 1),
            PipeClass::Fp => (1, timing.fp_latency),
            PipeClass::Int => (2, timing.int_latency),
            PipeClass::Ctrl => (3, 1),
        };
        let mut d = OpTiming {
            pipe: PIPE_FREE + if timing.single_issue { 0 } else { pipe },
            srcs: [FETCH; 3],
            dst: None,
            done,
            refetch: timing.branch_taken_penalty.saturating_add(1),
            access: None,
        };
        match op {
            MicroOp::Li { rd, .. } => d.dst = Some((int(rd), timing.int_latency)),
            MicroOp::Addi { rd, rs, .. } => {
                d.srcs[0] = int(rs);
                d.dst = Some((int(rd), timing.int_latency));
            }
            MicroOp::Add { rd, rs1, rs2 } => {
                d.srcs = [int(rs1), int(rs2), FETCH];
                d.dst = Some((int(rd), timing.int_latency));
            }
            MicroOp::Fld { fd, rs, offset } => {
                d.srcs[0] = int(rs);
                d.dst = Some((FP_READY + fd.index(), timing.load_latency));
                d.access = Some((rs, offset));
            }
            MicroOp::Fsd { fs, rs, offset } => {
                d.srcs = [fp(fs), int(rs), FETCH];
                d.access = Some((rs, offset));
            }
            MicroOp::FsdPair {
                fs1,
                fs2,
                rs,
                offset,
            } => {
                d.srcs = [fp(fs1), fp(fs2), int(rs)];
                d.access = Some((rs, offset));
            }
            MicroOp::Fmadd { fd, fa, fb, fc } => {
                d.srcs = [fp(fa), fp(fb), fp(fc)];
                d.dst = fp_result(fd);
            }
            MicroOp::Fadd { fd, fa, fb } | MicroOp::Fmul { fd, fa, fb } => {
                d.srcs = [fp(fa), fp(fb), FETCH];
                d.dst = fp_result(fd);
            }
            MicroOp::Bnez { rs, .. } | MicroOp::SsrCfg { base: rs, .. } => d.srcs[0] = int(rs),
            MicroOp::SsrEnable | MicroOp::SsrDisable | MicroOp::Frep { .. } | MicroOp::Halt => {}
        }
        d
    }

    /// The base register and offset a load or store addresses the TCDM
    /// through, which the port arbitrates; `None` for every other op,
    /// stream accesses included.
    pub fn access(&self) -> Option<(IntReg, i64)> {
        self.access
    }
}

/// Where control goes after an op.
enum Flow {
    Next,
    Taken(usize),
    Halt,
}

/// One SSR stream's cursor.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    addr: u64,
    stride: i64,
    remaining: u64,
}

/// The architectural state of a core: what a program computes, as
/// opposed to when. Every data op changes it through [`Core::step`], on
/// the timed path and in the loop replay alike, so the two cannot
/// disagree on what an op does.
#[derive(Debug, Default)]
struct Core {
    int: [i64; INT_REGS as usize],
    fp: [f64; FP_REGS as usize],
    /// Streams 0-2, aliasing `f0`-`f2` while streaming is enabled.
    streams: [Stream; 3],
    /// Bit `i` is set once stream `i` has been configured.
    configured: u32,
    ssr_enabled: bool,
    /// Bit `i` is set while reads and writes of `f{i}` are stream
    /// accesses.
    streaming: u32,
    /// Active hardware loop: (first body pc, last body pc, iterations
    /// left).
    frep: Option<(usize, usize, u64)>,
}

impl Core {
    fn is_stream(&self, r: FpReg) -> bool {
        self.streaming & (1 << r.index()) != 0
    }

    fn addr(&self, rs: IntReg, offset: i64) -> u64 {
        self.int[rs.index()].wrapping_add(offset) as u64
    }

    /// Moves stream `idx` one element on, returning the element's
    /// address; an exhausted stream faults.
    fn next_element(&mut self, idx: usize) -> Result<u64, ExecError> {
        let st = &mut self.streams[idx];
        if st.remaining == 0 {
            return Err(ExecError::Port(PortError { addr: st.addr }));
        }
        let addr = st.addr;
        st.addr = st.addr.wrapping_add_signed(st.stride);
        st.remaining -= 1;
        Ok(addr)
    }

    /// Where reads and writes of `r` go right now.
    fn operand(&self, r: FpReg) -> Fp {
        if self.is_stream(r) {
            Fp::Stream(r.index() as u8)
        } else {
            Fp::Reg(r.index() as u8)
        }
    }

    #[inline(always)]
    fn get(&mut self, r: Fp, port: &mut impl MemoryPort) -> Result<f64, ExecError> {
        match r {
            Fp::Reg(i) => Ok(self.fp[i as usize]),
            Fp::Stream(i) => {
                let addr = self.next_element(i as usize)?;
                Ok(port.load(addr)?)
            }
        }
    }

    #[inline(always)]
    fn put(&mut self, r: Fp, value: f64, port: &mut impl MemoryPort) -> Result<(), ExecError> {
        match r {
            Fp::Reg(i) => self.fp[i as usize] = value,
            Fp::Stream(i) => {
                let addr = self.next_element(i as usize)?;
                port.store(addr, value)?;
            }
        }
        Ok(())
    }

    /// Applies the op at `pc` on the timed path: its data op through
    /// [`Core::step`], recorded into `rec`, or its control op (branch,
    /// SSR setup, hardware loop, halt), and `report`'s op counters.
    fn execute<P: MemoryPort>(
        &mut self,
        ops: &[MicroOp],
        pc: usize,
        port: &mut P,
        report: &mut ExecReport,
        rec: Option<&mut Recorder>,
    ) -> Result<Flow, ExecError> {
        let op = ops[pc];
        match op {
            MicroOp::Bnez { rs, target } => {
                report.branches += 1;
                if self.int[rs.index()] != 0 {
                    return Ok(Flow::Taken(target));
                }
            }
            MicroOp::SsrCfg {
                stream,
                base,
                stride,
                count,
                ..
            } => {
                self.streams[stream as usize] = Stream {
                    addr: self.int[base.index()] as u64,
                    stride,
                    remaining: count,
                };
                self.configured |= 1 << stream;
                self.set_streaming(self.ssr_enabled);
                report.int_ops += 1;
            }
            MicroOp::SsrEnable | MicroOp::SsrDisable => {
                self.set_streaming(op == MicroOp::SsrEnable);
                report.int_ops += 1;
            }
            MicroOp::Frep { iterations, body } => {
                let end = pc + body as usize;
                if end >= ops.len() {
                    return Err(ExecError::PcOutOfRange { pc: end });
                }
                if iterations > 1 {
                    self.frep = Some((pc + 1, end, iterations - 1));
                }
                report.branches += 1;
            }
            MicroOp::Halt => return Ok(Flow::Halt),
            _ => {
                let step = Step::of(op, self).expect("every other op is a data op");
                if let Some(rec) = rec {
                    rec.step(step, self);
                }
                self.step(step, port)?;
                count_data_op(report, op);
            }
        }
        Ok(Flow::Next)
    }

    fn set_streaming(&mut self, enabled: bool) {
        self.ssr_enabled = enabled;
        self.streaming = if enabled { self.configured } else { 0 };
    }

    /// The pc after `pc` retires toward `next`. When the last op of a
    /// hardware-loop body retires and iterations remain, control jumps
    /// back to the body's first op with zero overhead.
    fn wrap(&mut self, pc: usize, next: usize) -> usize {
        match self.frep {
            Some((start, end, remaining)) if pc == end && next == pc + 1 => {
                if remaining > 0 {
                    self.frep = Some((start, end, remaining - 1));
                    return start;
                }
                self.frep = None;
                next
            }
            _ => next,
        }
    }

    /// Applies one data op: registers, SSR streams and memory. The one
    /// executor of data ops, on the timed path and in the loop replay;
    /// the op counters are left to the caller.
    ///
    /// Always inlined: as an out-of-line call, every replayed op pays
    /// the call and a round trip of its `Result` through memory.
    #[inline(always)]
    fn step<P: MemoryPort>(&mut self, step: Step, port: &mut P) -> Result<(), ExecError> {
        match step {
            Step::Li { rd, imm } => self.int[rd.index()] = imm,
            Step::Addi { rd, rs, imm } => {
                self.int[rd.index()] = self.int[rs.index()].wrapping_add(imm);
            }
            Step::Add { rd, rs1, rs2 } => {
                self.int[rd.index()] = self.int[rs1.index()].wrapping_add(self.int[rs2.index()]);
            }
            Step::Fld { fd, rs, offset } => {
                self.fp[fd.index()] = port.load(self.addr(rs, offset))?;
            }
            // Plain stores read the register file even while `fs`
            // streams.
            Step::Fsd { fs, rs, offset } => {
                port.store(self.addr(rs, offset), self.fp[fs.index()])?;
            }
            Step::FsdPair {
                fs1,
                fs2,
                rs,
                offset,
            } => {
                let addr = self.addr(rs, offset);
                port.store(addr, self.fp[fs1.index()])?;
                port.store(addr + 8, self.fp[fs2.index()])?;
            }
            Step::Fmadd { fd, fa, fb, fc } => {
                let a = self.get(fa, port)?;
                let b = self.get(fb, port)?;
                let c = self.get(fc, port)?;
                self.put(fd, a.mul_add(b, c), port)?;
            }
            Step::Fadd { fd, fa, fb } => {
                let a = self.get(fa, port)?;
                let b = self.get(fb, port)?;
                self.put(fd, a + b, port)?;
            }
            Step::Fmul { fd, fa, fb } => {
                let a = self.get(fa, port)?;
                let b = self.get(fb, port)?;
                self.put(fd, a * b, port)?;
            }
        }
        Ok(())
    }

    /// Runs the loop closed by the taken branch at `branch` functionally,
    /// without timing, until that branch falls through, and returns the
    /// trips run. Fuel, port faults and stream exhaustion surface at the
    /// same op as on the timed path.
    ///
    /// The body is decoded once. When it has a closed form that reaches
    /// the loop's end within the fuel, only its memory and FP ops run
    /// per trip, on the port's lent words when every load and store of
    /// every trip lies inside them; otherwise every decoded op does.
    /// `rec` records the closed form's cursors, or every data op run.
    fn replay<P: MemoryPort>(
        &mut self,
        ops: &[MicroOp],
        branch: usize,
        timing: &CoreTiming,
        port: &mut P,
        report: &mut ExecReport,
        mut rec: Option<&mut Recorder>,
    ) -> Result<u64, ExecError> {
        let MicroOp::Bnez { rs, target } = ops[branch] else {
            unreachable!("a replay starts at its loop's closing branch");
        };
        let counter = rs.index();
        let mut body = Body::decode(&ops[target..branch], self);
        let len = body.steps.len() as u64;
        let closed = body
            .increments()
            .and_then(|sums| Some((sums, trips_to_zero(self.int[counter], sums[counter])?)));
        if let Some((sums, trips)) = closed {
            let fits = trips
                .checked_mul(1 + len)
                .and_then(|ops| ops.checked_add(report.retired))
                .is_some_and(|retired| retired <= timing.max_steps);
            if fits {
                body.close();
                let lent = port.words().and_then(|words| {
                    let ops = body.lend(&self.int, &sums, trips, words.len())?;
                    Some((ops, words))
                });
                match lent {
                    Some((ops, words)) => {
                        if let Some(rec) = rec {
                            rec.lent(&ops, trips);
                        }
                        match words {
                            Words::F64(words) => self.run_lent(&ops, words, trips)?,
                            Words::Bits(words) => self.run_lent(&ops, words, trips)?,
                        }
                        // Adding `sum × trips` once wraps to the same value
                        // as adding `sum` once per trip.
                        for (value, sum) in self.int.iter_mut().zip(sums) {
                            *value = value.wrapping_add(sum.wrapping_mul(trips as i64));
                        }
                    }
                    None => {
                        if let Some(rec) = rec {
                            rec.fail();
                        }
                        for _ in 0..trips {
                            for &step in &body.steps {
                                self.step(step, port)?;
                            }
                            for (value, sum) in self.int.iter_mut().zip(sums) {
                                *value = value.wrapping_add(sum);
                            }
                        }
                    }
                }
                report.retired += trips * (1 + len);
                body.count(trips, report);
                // The counter is zero: the branch falls through.
                fuel(report, timing)?;
                return Ok(trips);
            }
        }
        let mut trips = 0;
        loop {
            fuel(report, timing)?;
            if self.int[counter] == 0 {
                return Ok(trips);
            }
            // The branch is taken: retire it, then run one trip of the
            // body, checking fuel per op only when it may run out.
            report.retired += 1;
            if report.retired + len > timing.max_steps {
                for &step in &body.steps {
                    fuel(report, timing)?;
                    if let Some(rec) = rec.as_deref_mut() {
                        rec.step(step, self);
                    }
                    self.step(step, port)?;
                    report.retired += 1;
                }
            } else {
                for &step in &body.steps {
                    if let Some(rec) = rec.as_deref_mut() {
                        rec.step(step, self);
                    }
                    self.step(step, port)?;
                }
                report.retired += len;
            }
            body.count(1, report);
            trips += 1;
        }
    }

    /// Runs `trips` trips of `ops` on lent words, trip by trip: each
    /// load and store at its cursor, every other op through
    /// [`Core::step`], in order. A closed-form body leaves its integer
    /// registers for the caller to move.
    fn run_lent<W: Word>(
        &mut self,
        ops: &[(Step, Cursor)],
        words: &mut [W],
        trips: u64,
    ) -> Result<(), ExecError> {
        let mut port = Lent(words);
        for trip in 0..trips {
            for &(step, at) in ops {
                match step {
                    Step::Fld { fd, .. } => self.fp[fd.index()] = port.0[at.at(trip)].get(),
                    Step::Fsd { fs, .. } => port.0[at.at(trip)] = W::of(self.fp[fs.index()]),
                    Step::FsdPair { fs1, fs2, .. } => {
                        let word = at.at(trip);
                        port.0[word] = W::of(self.fp[fs1.index()]);
                        port.0[word + 1] = W::of(self.fp[fs2.index()]);
                    }
                    step => self.step(step, &mut port)?,
                }
            }
        }
        Ok(())
    }
}

/// An FP operand of a data op: a register, or the stream it aliases.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fp {
    Reg(u8),
    Stream(u8),
}

/// A data op, as [`Core::step`] runs it: FP operands resolved to
/// registers or streams. Resolved once, it holds for a whole loop
/// replay, because a straight-line body holds no SSR op that could
/// change which registers stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Li {
        rd: IntReg,
        imm: i64,
    },
    Addi {
        rd: IntReg,
        rs: IntReg,
        imm: i64,
    },
    Add {
        rd: IntReg,
        rs1: IntReg,
        rs2: IntReg,
    },
    Fld {
        fd: FpReg,
        rs: IntReg,
        offset: i64,
    },
    Fsd {
        fs: FpReg,
        rs: IntReg,
        offset: i64,
    },
    FsdPair {
        fs1: FpReg,
        fs2: FpReg,
        rs: IntReg,
        offset: i64,
    },
    Fmadd {
        fd: Fp,
        fa: Fp,
        fb: Fp,
        fc: Fp,
    },
    Fadd {
        fd: Fp,
        fa: Fp,
        fb: Fp,
    },
    Fmul {
        fd: Fp,
        fa: Fp,
        fb: Fp,
    },
}

impl Step {
    /// `op` as a data op of `core`; `None` for a control op.
    fn of(op: MicroOp, core: &Core) -> Option<Step> {
        let fp = |r: FpReg| core.operand(r);
        Some(match op {
            MicroOp::Li { rd, imm } => Step::Li { rd, imm },
            MicroOp::Addi { rd, rs, imm } => Step::Addi { rd, rs, imm },
            MicroOp::Add { rd, rs1, rs2 } => Step::Add { rd, rs1, rs2 },
            MicroOp::Fld { fd, rs, offset } => Step::Fld { fd, rs, offset },
            MicroOp::Fsd { fs, rs, offset } => Step::Fsd { fs, rs, offset },
            MicroOp::FsdPair {
                fs1,
                fs2,
                rs,
                offset,
            } => Step::FsdPair {
                fs1,
                fs2,
                rs,
                offset,
            },
            MicroOp::Fmadd { fd, fa, fb, fc } => Step::Fmadd {
                fd: fp(fd),
                fa: fp(fa),
                fb: fp(fb),
                fc: fp(fc),
            },
            MicroOp::Fadd { fd, fa, fb } => Step::Fadd {
                fd: fp(fd),
                fa: fp(fa),
                fb: fp(fb),
            },
            MicroOp::Fmul { fd, fa, fb } => Step::Fmul {
                fd: fp(fd),
                fa: fp(fa),
                fb: fp(fb),
            },
            MicroOp::Bnez { .. }
            | MicroOp::Frep { .. }
            | MicroOp::Halt
            | MicroOp::SsrCfg { .. }
            | MicroOp::SsrEnable
            | MicroOp::SsrDisable => return None,
        })
    }
}

/// Counts the retired data op `op` in `report`.
fn count_data_op(report: &mut ExecReport, op: MicroOp) {
    match op.pipe() {
        PipeClass::Int => report.int_ops += 1,
        PipeClass::Mem => report.mem_ops += 1,
        PipeClass::Fp => report.fp_ops += 1,
        PipeClass::Ctrl => unreachable!("a data op issues on a data pipe"),
    }
}

/// A straight-line loop body decoded for replay, with its per-trip op
/// counts.
struct Body {
    steps: Vec<Step>,
    /// Op counts of one trip, closing branch included.
    trip: ExecReport,
}

impl Body {
    /// Decodes `ops`, which the loop watch found straight-line, against
    /// `core`'s streaming state.
    fn decode(ops: &[MicroOp], core: &Core) -> Body {
        let mut trip = ExecReport {
            branches: 1,
            ..ExecReport::default()
        };
        let steps = ops
            .iter()
            .map(|&op| {
                let step = Step::of(op, core).expect("a replayed body is straight-line");
                count_data_op(&mut trip, op);
                step
            })
            .collect();
        Body { steps, trip }
    }

    /// Adds `trips` trips' op counts to `report`, all but `retired`,
    /// which fuel checks need per op.
    fn count(&self, trips: u64, report: &mut ExecReport) {
        report.branches += trips * self.trip.branches;
        report.int_ops += trips * self.trip.int_ops;
        report.mem_ops += trips * self.trip.mem_ops;
        report.fp_ops += trips * self.trip.fp_ops;
    }

    /// Each register's increment per trip, when every integer op of the
    /// body adds an immediate to its own register; `None` otherwise.
    fn increments(&self) -> Option<[i64; INT_REGS as usize]> {
        let mut sums = [0i64; INT_REGS as usize];
        for &step in &self.steps {
            match step {
                Step::Addi { rd, rs, imm } if rd == rs => {
                    sums[rd.index()] = sums[rd.index()].wrapping_add(imm);
                }
                Step::Li { .. } | Step::Addi { .. } | Step::Add { .. } => return None,
                _ => {}
            }
        }
        Some(sums)
    }

    /// Turns a body of [`Body::increments`] into its closed form: only
    /// the memory and FP ops stay, and each memory op's offset absorbs
    /// the increments its base register took before it in the body. One
    /// trip of the result, followed by adding the per-trip increments to
    /// the registers, does what one trip of the body did.
    fn close(&mut self) {
        let mut sums = [0i64; INT_REGS as usize];
        self.steps.retain_mut(|step| {
            let (rs, offset) = match step {
                Step::Addi { rd, imm, .. } => {
                    sums[rd.index()] = sums[rd.index()].wrapping_add(*imm);
                    return false;
                }
                Step::Fld { rs, offset, .. }
                | Step::Fsd { rs, offset, .. }
                | Step::FsdPair { rs, offset, .. } => (*rs, offset),
                _ => return true,
            };
            *offset = offset.wrapping_add(sums[rs.index()]);
            true
        });
    }

    /// The closed body's ops on `len` lent words for `trips` trips that
    /// start from the registers `int` and move them by `sums` per trip,
    /// each load and store with its cursor (every other op's is unused):
    /// `None` unless every load and store of every trip is aligned and
    /// inside the words.
    fn lend(
        &self,
        int: &[i64; INT_REGS as usize],
        sums: &[i64; INT_REGS as usize],
        trips: u64,
        len: usize,
    ) -> Option<Vec<(Step, Cursor)>> {
        let at = |rs: IntReg, offset: i64, width: i128| {
            let first = i128::from(int[rs.index()]) + i128::from(offset);
            Cursor::of(first, i128::from(sums[rs.index()]), trips, width, len)
        };
        let mut ops = Vec::with_capacity(self.steps.len());
        for &step in &self.steps {
            let cursor = match step {
                Step::Fld { rs, offset, .. } | Step::Fsd { rs, offset, .. } => at(rs, offset, 1)?,
                Step::FsdPair { rs, offset, .. } => at(rs, offset, 2)?,
                _ => Cursor::default(),
            };
            ops.push((step, cursor));
        }
        Some(ops)
    }
}

/// Where a load or store of a closed-form body is in the lent words:
/// the word its first trip accesses, and the words it moves per trip.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    word: usize,
    stride: isize,
}

impl Cursor {
    /// The cursor of an access `width` words wide at byte address
    /// `first` on its first trip that moves `stride` bytes per trip, when
    /// the accesses of all `trips` trips are aligned and inside `len`
    /// words; `None` otherwise. The address is affine in the trip, so the
    /// first and the last trip bound every trip between them. The
    /// arithmetic is exact, so an address that wraps on the way fails.
    fn of(first: i128, stride: i128, trips: u64, width: i128, len: usize) -> Option<Cursor> {
        if first % 8 != 0 || stride % 8 != 0 {
            return None;
        }
        let last = stride
            .checked_mul(i128::from(trips - 1))?
            .checked_add(first)?;
        let end = 8 * i128::try_from(len).ok()?;
        if first.min(last) < 0 || first.max(last) > end - 8 * width {
            return None;
        }
        Some(Cursor {
            word: usize::try_from(first / 8).ok()?,
            stride: isize::try_from(stride / 8).ok()?,
        })
    }

    /// The word trip `trip` accesses.
    #[inline(always)]
    fn at(self, trip: u64) -> usize {
        self.word
            .wrapping_add_signed(self.stride.wrapping_mul(trip as isize))
    }
}

/// Trips until a counter at `value`, moved by `step` per trip, reads zero
/// at a trip's end: `−value / step` when that is a whole positive
/// number. The counter then moves monotonically to zero and never wraps,
/// so no earlier trip ends the loop.
fn trips_to_zero(value: i64, step: i64) -> Option<u64> {
    if value.checked_rem(step)? != 0 {
        return None;
    }
    let trips = value.checked_div(step)?.checked_neg()?;
    u64::try_from(trips).ok().filter(|&trips| trips > 0)
}

/// What one more trip of a steady-state loop adds.
struct Trip {
    /// The initiation interval: cycles every clock advances.
    interval: u64,
    /// Stall cycles.
    stall: u64,
}

/// Watches a loop's timing state for a steady state. Each sample takes
/// the clocks relative to fetch, each as `max(c - fetch, 0)`: no op
/// issues before fetch, and fetch never moves back, so a clock behind
/// fetch cannot affect the future. The timing of a stretch of ops with
/// fixed control flow is a function of that relative state and of the
/// SSR state (streaming on or off, the streams configured). So when two
/// consecutive samples, one loop trip apart and with the same SSR state,
/// are equal, every later trip repeats the last one, shifted by the
/// cycles fetch moved between them.
#[derive(Debug, Clone, Default)]
pub struct SteadyState {
    /// The kept sample: the clocks relative to fetch, and fetch.
    last: Option<([u64; CLOCKS], u64)>,
}

impl SteadyState {
    /// Forgets the last sample: the next one cannot repeat it.
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Samples `clocks`. When the sample equals the previous one
    /// relative to fetch, returns the initiation interval, the cycles
    /// fetch moved between the two, and keeps the previous sample;
    /// otherwise keeps this one and returns `None`.
    pub fn sample(&mut self, clocks: &Clocks) -> Option<u64> {
        let fetch = clocks.0[FETCH];
        let relative = clocks.0.map(|c| c.saturating_sub(fetch));
        if let Some((last, at)) = &self.last {
            if *last == relative {
                return Some(fetch - at);
            }
        }
        self.last = Some((relative, fetch));
        None
    }
}

/// Loop iterations sampled for a repeating timing state before the
/// interpreter stops watching that loop.
const WATCH_LIMIT: u32 = 8;

/// Watches the innermost loop for a steady state, sampling the clocks
/// before each taken closing branch.
///
/// Two consecutive samples at one branch are always exactly one trip
/// apart: after the branch falls through, control can only come back
/// through a taken backward branch elsewhere, which moves the watch, or
/// while a hardware loop is active, which the caller never samples.
#[derive(Default)]
struct LoopWatch {
    /// The closing branch watched, `None` before the first.
    branch: Option<usize>,
    /// Samples taken; at [`WATCH_LIMIT`] the loop is no longer watched.
    samples: u32,
    steady: SteadyState,
    /// The stall count at the kept sample.
    stall: u64,
}

impl LoopWatch {
    /// Samples `clocks` before the taken branch at `branch` back to
    /// `target`, and returns the per-trip deltas once the sample repeats.
    fn visit(
        &mut self,
        ops: &[MicroOp],
        branch: usize,
        target: usize,
        clocks: &Clocks,
        stall: u64,
    ) -> Option<Trip> {
        if self.branch != Some(branch) {
            // Only a straight-line body repeats one timing pattern: none
            // of its ops may redirect control or change which registers
            // stream.
            let straight = ops[target..branch].iter().all(|op| {
                !matches!(
                    op,
                    MicroOp::Bnez { .. }
                        | MicroOp::Frep { .. }
                        | MicroOp::Halt
                        | MicroOp::SsrCfg { .. }
                        | MicroOp::SsrEnable
                        | MicroOp::SsrDisable
                )
            });
            self.branch = Some(branch);
            self.samples = if straight { 0 } else { WATCH_LIMIT };
            self.steady.reset();
        }
        if self.samples >= WATCH_LIMIT {
            return None;
        }
        if let Some(interval) = self.steady.sample(clocks) {
            return Some(Trip {
                interval,
                stall: stall - self.stall,
            });
        }
        self.samples += 1;
        self.stall = stall;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FpReg, IntReg, ProgramBuilder};

    fn x(i: u8) -> IntReg {
        IntReg::new(i)
    }
    fn f(i: u8) -> FpReg {
        FpReg::new(i)
    }

    #[test]
    fn functional_daxpy_one_element() {
        // y = a*x + y with a=2, x=3, y=10 -> 16.
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.fld(f(0), x(1), 0); // x
        b.fld(f(1), x(1), 8); // y
        b.fld(f(2), x(1), 16); // a
        b.fmadd(f(1), f(2), f(0), f(1));
        b.fsd(f(1), x(1), 8);
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![3.0, 10.0, 2.0]);
        let report = Interpreter::new().run(&p, &mut port).unwrap();
        assert_eq!(port.data()[1], 16.0);
        assert_eq!(report.retired, 7);
        assert_eq!(report.mem_ops, 4);
        assert_eq!(report.fp_ops, 1);
    }

    #[test]
    fn load_use_hazard_stalls() {
        // fld then an immediately dependent fmadd: the fmadd waits
        // load_latency cycles.
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.fld(f(0), x(1), 0);
        b.fmadd(f(1), f(0), f(0), f(0));
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![2.0]);
        let report = Interpreter::new().run(&p, &mut port).unwrap();
        // li@0, fld@1 (waits x1 ready at 1), fmadd: f0 ready at 1+2=3.
        // stall = 3 - 2(base after fld at same cycle min) => recorded.
        assert!(report.stall_cycles >= 1, "expected a load-use stall");
    }

    #[test]
    fn independent_ops_dual_issue() {
        // An fld and an independent fadd should share a cycle.
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.fadd(f(2), f(1), f(1)); // fp pipe
        b.fld(f(0), x(1), 0); // mem pipe, independent
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![1.0]);
        let report = Interpreter::new().run(&p, &mut port).unwrap();
        // li@0; fadd@0? (x-indep, fp pipe, fetch_avail 0) -> fadd@0;
        // fld needs x1 ready at 1 -> @1. halt@1. finish >= fadd compl. 3.
        assert_eq!(report.finish, Cycle::new(3));
    }

    #[test]
    fn loop_executes_correct_trip_count() {
        // Sum 1.0 five times via a counted loop.
        let mut b = ProgramBuilder::new();
        b.li(x(1), 5); // counter
        b.li(x(2), 0); // base
        b.fld(f(1), x(2), 0); // increment = 1.0
        let top = b.label();
        b.bind(top);
        b.fadd(f(0), f(0), f(1));
        b.addi(x(1), x(1), -1);
        b.bnez(x(1), top);
        b.fsd(f(0), x(2), 8);
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![1.0, 0.0]);
        let report = Interpreter::new().run(&p, &mut port).unwrap();
        assert_eq!(port.data()[1], 5.0);
        assert_eq!(report.branches, 5);
    }

    #[test]
    fn taken_branch_costs_a_bubble() {
        // Loop of pure int ops: steady-state II is limited by the branch.
        let mut b = ProgramBuilder::new();
        b.li(x(1), 10);
        let top = b.label();
        b.bind(top);
        b.addi(x(1), x(1), -1);
        b.bnez(x(1), top);
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![]);
        let r10 = Interpreter::new().run(&p, &mut port).unwrap();

        let mut b = ProgramBuilder::new();
        b.li(x(1), 20);
        let top = b.label();
        b.bind(top);
        b.addi(x(1), x(1), -1);
        b.bnez(x(1), top);
        b.halt();
        let p20 = b.build().unwrap();
        let r20 = Interpreter::new().run(&p20, &mut port).unwrap();

        // addi waits on its own previous result (int_latency 1), bnez
        // dual-issues, taken branch adds 2 to the next fetch: II = 3.
        let delta = r20.finish - r10.finish;
        assert_eq!(delta, Cycle::new(30), "10 extra iterations at II=3");
    }

    #[test]
    fn grant_hook_delays_memory_ops() {
        struct SlowPort {
            inner: VecPort,
            extra: u64,
        }
        impl MemoryPort for SlowPort {
            fn load(&mut self, addr: u64) -> Result<f64, PortError> {
                self.inner.load(addr)
            }
            fn store(&mut self, addr: u64, value: f64) -> Result<(), PortError> {
                self.inner.store(addr, value)
            }
            fn grant(&mut self, _addr: u64, at: Cycle) -> Cycle {
                at + Cycle::new(self.extra)
            }
        }
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.fld(f(0), x(1), 0);
        b.fsd(f(0), x(1), 8);
        b.halt();
        let p = b.build().unwrap();

        let mut fast = VecPort::new(vec![1.0, 0.0]);
        let fast_finish = Interpreter::new().run(&p, &mut fast).unwrap().finish;

        let mut slow = SlowPort {
            inner: VecPort::new(vec![1.0, 0.0]),
            extra: 5,
        };
        let slow_finish = Interpreter::new().run(&p, &mut slow).unwrap().finish;
        assert!(slow_finish > fast_finish);
        assert_eq!(slow.inner.data()[1], 1.0);
    }

    #[test]
    fn paired_store_writes_both_words_in_one_access() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.fld(f(0), x(1), 0);
        b.fld(f(1), x(1), 8);
        b.fsd_pair(f(0), f(1), x(1), 16);
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![7.0, 8.0, 0.0, 0.0]);
        let report = Interpreter::new().run(&p, &mut port).unwrap();
        assert_eq!(&port.data()[2..4], &[7.0, 8.0]);
        assert_eq!(report.mem_ops, 3); // two loads + one paired store
    }

    #[test]
    fn fuel_guard_stops_runaway_loops() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 1);
        let top = b.label();
        b.bind(top);
        b.bnez(x(1), top); // infinite
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![]);
        let mut timing = CoreTiming::snitch();
        timing.max_steps = 1000;
        let err = Interpreter::with_timing(timing)
            .run(&p, &mut port)
            .unwrap_err();
        assert!(matches!(err, ExecError::FuelExhausted { .. }));
        assert!(err.to_string().contains("fuel"));
    }

    #[test]
    fn port_fault_propagates() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 800); // out of range
        b.fld(f(0), x(1), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![0.0; 4]);
        let err = Interpreter::new().run(&p, &mut port).unwrap_err();
        assert!(matches!(err, ExecError::Port(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn run_from_offsets_all_timing() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.fld(f(0), x(1), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![1.0]);
        let base = Interpreter::new().run(&p, &mut port).unwrap().finish;
        let shifted = Interpreter::new()
            .run_from(&p, Cycle::new(100), &mut port)
            .unwrap()
            .finish;
        assert_eq!(shifted, base + Cycle::new(100));
    }

    #[test]
    fn ssr_streams_feed_fp_ops_without_explicit_loads() {
        // y[i] = a*x[i] + y[i] for 4 elements, entirely via streams:
        // stream 0 reads x, stream 1 reads y, stream 2 writes y.
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0); // x base
        b.li(x(2), 32); // y base
        b.ssr_cfg(0, x(1), 8, 4, false);
        b.ssr_cfg(1, x(2), 8, 4, false);
        b.ssr_cfg(2, x(2), 8, 4, true);
        b.fld(f(31), x(1), 64); // a at word 8
        b.ssr_enable();
        b.frep(4, 1);
        b.fmadd(f(2), f(31), f(0), f(1));
        b.ssr_disable();
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![
            1.0, 2.0, 3.0, 4.0, // x
            10.0, 20.0, 30.0, 40.0, // y
            2.0,  // a
        ]);
        let report = Interpreter::new().run(&p, &mut port).unwrap();
        assert_eq!(&port.data()[4..8], &[12.0, 24.0, 36.0, 48.0]);
        assert_eq!(report.fp_ops, 4, "one fmadd per frep iteration");
        assert_eq!(report.mem_ops, 1, "only the scalar load uses the LSU");
    }

    #[test]
    fn frep_fmadd_sustains_one_element_per_cycle() {
        let run_n = |n: u64| {
            let mut b = ProgramBuilder::new();
            b.li(x(1), 0);
            b.li(x(2), (n * 8) as i64);
            b.ssr_cfg(0, x(1), 8, n, false);
            b.ssr_cfg(1, x(2), 8, n, false);
            b.ssr_cfg(2, x(2), 8, n, true);
            b.fld(f(31), x(1), (2 * n * 8) as i64);
            b.ssr_enable();
            b.frep(n, 1);
            b.fmadd(f(2), f(31), f(0), f(1));
            b.ssr_disable();
            b.halt();
            let p = b.build().unwrap();
            let mut port = VecPort::new(vec![1.0; (2 * n + 1) as usize]);
            Interpreter::new()
                .run(&p, &mut port)
                .unwrap()
                .finish
                .as_u64()
        };
        let t100 = run_n(100);
        let t200 = run_n(200);
        assert_eq!(t200 - t100, 100, "streaming FMA must sustain II=1");
    }

    #[test]
    fn exhausted_stream_faults() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.ssr_cfg(0, x(1), 8, 1, false);
        b.ssr_enable();
        b.fadd(f(5), f(0), f(0)); // two pops from a 1-element stream
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![1.0; 4]);
        let err = Interpreter::new().run(&p, &mut port).unwrap_err();
        assert!(matches!(err, ExecError::Port(_)));
    }

    #[test]
    fn disabled_streams_are_plain_registers() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 0);
        b.ssr_cfg(0, x(1), 8, 4, false);
        // Not enabled: f0 is just a register (0.0).
        b.fadd(f(3), f(0), f(0));
        b.fsd(f(3), x(1), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut port = VecPort::new(vec![9.0; 2]);
        Interpreter::new().run(&p, &mut port).unwrap();
        assert_eq!(port.data()[0], 0.0);
    }

    #[test]
    fn frep_body_past_end_is_an_error() {
        // The builder now rejects this shape, so construct it raw: the
        // interpreter must still fault rather than run off the end.
        let p = Program::from_ops_unchecked(vec![
            MicroOp::Frep {
                iterations: 3,
                body: 5,
            },
            MicroOp::Halt,
        ]);
        let mut port = VecPort::new(vec![]);
        let err = Interpreter::new().run(&p, &mut port).unwrap_err();
        assert!(matches!(err, ExecError::PcOutOfRange { .. }));
    }

    /// A fast-forwarded loop's clock shift and stall sum saturate: 2^26
    /// trips of a 2^40-cycle taken-branch bubble end past `u64::MAX`,
    /// where the clocks stay.
    #[test]
    fn fast_forwarded_clocks_saturate() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 1 << 26);
        let top = b.label();
        b.bind(top);
        b.addi(x(1), x(1), -1);
        b.bnez(x(1), top);
        b.halt();
        let p = b.build().unwrap();
        let timing = CoreTiming {
            branch_taken_penalty: 1 << 40,
            max_steps: u64::MAX,
            ..CoreTiming::snitch()
        };
        let report = Interpreter::with_timing(timing)
            .run(&p, &mut VecPort::new(vec![]))
            .unwrap();
        assert_eq!(report.finish, Cycle::new(u64::MAX));
        assert_eq!(report.branches, 1 << 26);
        assert!(!p.is_compiled(), "a run that reaches the end of time");
    }

    /// The lent-words check passes an access only when every trip's
    /// words lie inside the lent ones: here 4 trips over 8 words.
    #[test]
    fn cursors_cover_only_accesses_inside_the_lent_words() {
        let at = |first, stride, width| {
            Cursor::of(first, stride, 4, width, 8).map(|c| (c.word, c.stride))
        };
        assert_eq!(at(0, 16, 1), Some((0, 2)), "words 0, 2, 4, 6");
        assert_eq!(at(56, -16, 1), Some((7, -2)), "words 7, 5, 3, 1");
        assert_eq!(at(32, 8, 1), Some((4, 1)), "words 4 to 7");
        assert_eq!(at(24, 8, 2), Some((3, 1)), "pairs 3-4 to 6-7");
        assert_eq!(at(64, -8, 1), None, "the first trip is past the end");
        assert_eq!(at(-8, 8, 1), None, "the first trip is below the words");
        assert_eq!(at(40, 8, 1), None, "only the last trip is past the end");
        assert_eq!(at(16, -8, 1), None, "only the last trip is below the words");
        assert_eq!(at(0, 4, 1), None, "a stride that is not a multiple of 8");
        assert_eq!(at(4, 8, 1), None, "a misaligned first address");
        assert_eq!(
            at(32, 8, 2),
            None,
            "the last pair's second word is past the end"
        );
        // One trip needs no stride; exact arithmetic fails what would wrap.
        assert_eq!(
            Cursor::of(8, i128::from(i64::MIN), 1, 1, 8).map(|c| c.word),
            Some(1)
        );
        assert!(Cursor::of(0, i128::from(i64::MIN), u64::MAX, 1, 8).is_none());
    }

    #[test]
    fn vec_port_misaligned_and_oob() {
        let mut p = VecPort::new(vec![0.0; 2]);
        assert!(p.load(4).is_err());
        assert!(p.load(16).is_err());
        assert!(p.store(16, 1.0).is_err());
        p.data_mut()[0] = 9.0;
        assert_eq!(p.load(0).unwrap(), 9.0);
    }
}
