//! The static bound analyzer against the interpreter: on random programs
//! that `loop_structure` accepts, a program's bounds are the
//! interpreter's own cycle count. On an ideal port `best == worst ==`
//! the measured finish; widened by `e` cycles per TCDM access, the worst
//! side is the finish on a port that delays every grant by `e`.

use mpsoc_isa::{
    CoreTiming, ExecReport, FpReg, IntReg, Interpreter, MemoryPort, PortError, Program,
    ProgramBuilder, VecPort,
};
use mpsoc_lint::{bound_program, bound_program_widened, loop_structure, CycleBounds};
use mpsoc_sim::Cycle;
use proptest::prelude::*;

/// Words of memory the programs address, all through `x1 = 0`.
const WORDS: usize = 64;

/// Passes of the innermost loops, summed over the enclosing trips, that
/// one program may run: it keeps the per-op runs on the delaying port
/// short.
const PASS_BUDGET: u64 = 5_000;

/// A port that grants every access `delay` cycles after it asks.
struct Delayed {
    inner: VecPort,
    delay: u64,
}

impl MemoryPort for Delayed {
    fn load(&mut self, addr: u64) -> Result<f64, PortError> {
        self.inner.load(addr)
    }

    fn store(&mut self, addr: u64, value: f64) -> Result<(), PortError> {
        self.inner.store(addr, value)
    }

    fn grant(&mut self, _addr: u64, at: Cycle) -> Cycle {
        at + Cycle::new(self.delay)
    }
}

/// Bounded draws from a seed (SplitMix64).
struct Draw(u64);

impl Draw {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    fn fp(&mut self) -> FpReg {
        match self.below(9) {
            8 => FpReg::new(31),
            r => FpReg::new(r as u8),
        }
    }

    fn scratch(&mut self) -> IntReg {
        IntReg::new(5 + self.below(3) as u8)
    }

    fn offset(&mut self) -> i64 {
        8 * self.below(WORDS as u64 - 1) as i64
    }

    /// A trip count in 1..=300, cut so that `outer` enclosing trips
    /// times it stays within [`PASS_BUDGET`]. Half the loops that may
    /// run past 64 trips do.
    fn trips(&mut self, outer: u64) -> u64 {
        let most = (PASS_BUDGET / outer).clamp(1, 300);
        if most > 64 && self.below(2) == 0 {
            65 + self.below(most - 64)
        } else {
            1 + self.below(most)
        }
    }
}

/// A core with random latencies, some longer than a loop pass, and
/// sometimes a single issue slot.
fn random_timing(g: &mut Draw) -> CoreTiming {
    match g.below(4) {
        0 => CoreTiming::snitch(),
        1 => CoreTiming::cva6(),
        _ => CoreTiming {
            load_latency: 1 + g.below(12),
            fp_latency: 1 + g.below(12),
            int_latency: 1 + g.below(4),
            branch_taken_penalty: g.below(4),
            max_steps: CoreTiming::snitch().max_steps,
            single_issue: g.below(2) == 0,
        },
    }
}

/// One random op without control flow: a load or store off `x1`, an FP
/// op (registers `f0`-`f2` stream while SSR is on), or an integer op on
/// the scratch registers, which may read a loop counter.
fn straight_op(b: &mut ProgramBuilder, g: &mut Draw) {
    let x1 = IntReg::new(1);
    match g.below(10) {
        0 | 1 => b.fld(g.fp(), x1, g.offset()),
        2 => b.fsd(g.fp(), x1, g.offset()),
        3 => b.fsd_pair(g.fp(), g.fp(), x1, g.offset()),
        4 => b.fmadd(g.fp(), g.fp(), g.fp(), g.fp()),
        5 => b.fadd(g.fp(), g.fp(), g.fp()),
        6 => b.fmul(g.fp(), g.fp(), g.fp()),
        7 => b.li(g.scratch(), 8),
        8 => {
            let r = g.scratch();
            b.addi(r, g.scratch(), 8);
        }
        _ => {
            let counter = IntReg::new(10 + g.below(3) as u8);
            b.add(g.scratch(), counter, g.scratch());
        }
    }
}

/// An SSR op: streaming on or off, or (re)configuring a stream. Streams
/// stride 0 over word 0 and never run dry.
fn ssr_op(b: &mut ProgramBuilder, g: &mut Draw) {
    match g.below(3) {
        0 => b.ssr_enable(),
        1 => b.ssr_disable(),
        _ => {
            let stream = g.below(3) as u8;
            b.ssr_cfg(stream, IntReg::new(1), 0, u64::MAX, stream == 2);
        }
    }
}

/// A block of 1-5 items at loop depth `depth` inside `outer` enclosing
/// trips: straight ops, SSR ops, `frep` loops and, two levels deep at
/// most, countdown loops. A countdown loop sets its counter right before
/// it, so a nested one restarts on every pass of its parent.
fn block(b: &mut ProgramBuilder, g: &mut Draw, depth: u8, outer: u64) {
    for _ in 0..1 + g.below(5) {
        match g.below(20) {
            0..=10 => straight_op(b, g),
            11..=12 => ssr_op(b, g),
            13..=15 => {
                let len = 1 + g.below(3) as u8;
                b.frep(g.trips(outer), len);
                for _ in 0..len {
                    if g.below(8) == 0 {
                        ssr_op(b, g);
                    } else {
                        straight_op(b, g);
                    }
                }
            }
            _ if depth < 2 => countdown(b, g, depth, outer),
            _ => straight_op(b, g),
        }
    }
}

/// A `li`/`addi -step`/`bnez` countdown loop of 1-300 trips whose body
/// is a random block, with the countdown at a random place in it.
fn countdown(b: &mut ProgramBuilder, g: &mut Draw, depth: u8, outer: u64) {
    let counter = IntReg::new(10 + depth);
    let trips = g.trips(outer);
    let step = 1 + g.below(3);
    b.li(counter, (trips * step) as i64);
    let top = b.label();
    b.bind(top);
    let before = g.below(2) == 0;
    if before {
        b.addi(counter, counter, -(step as i64));
    }
    block(b, g, depth + 1, outer * trips);
    if !before {
        b.addi(counter, counter, -(step as i64));
    }
    b.bnez(counter, top);
}

/// A random program: `x1 = 0`, up to three streams configured, then 1-3
/// countdown loops or blocks, and a halt.
fn random_program(g: &mut Draw) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::new(1), 0);
    for stream in 0..g.below(4) as u8 {
        b.ssr_cfg(stream, IntReg::new(1), 0, u64::MAX, stream == 2);
    }
    for _ in 0..1 + g.below(3) {
        if g.below(2) == 0 {
            countdown(&mut b, g, 0, 1);
        } else {
            block(&mut b, g, 1, 1);
        }
    }
    b.halt();
    b.build().expect("well-formed by construction")
}

/// Runs `program` on a port that delays every grant by `delay` cycles;
/// with no delay, on the conflict-free `VecPort`.
fn run(program: &Program, timing: &CoreTiming, delay: u64) -> ExecReport {
    let interpreter = Interpreter::with_timing(*timing);
    let mut port = VecPort::new(vec![1.0; WORDS]);
    let run = if delay == 0 {
        interpreter.run(program, &mut port)
    } else {
        interpreter.run(program, &mut Delayed { inner: port, delay })
    };
    run.expect("random programs run to their halt")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Exact on an ideal port, and exact per side when widened: the
    /// analyzer times every op with the interpreter's issue rule, and a
    /// loop fast-forwards only once its passes repeat.
    #[test]
    fn analyzer_matches_the_interpreter(seed in any::<u64>()) {
        let mut g = Draw(seed);
        let program = random_program(&mut g);
        let timing = random_timing(&mut g);
        let delay = 1 + g.below(8);
        prop_assert!(loop_structure(program.ops()).is_ok(), "{}", program.listing());

        let ideal = run(&program, &timing, 0);
        let cost = bound_program(&program, &timing).expect("accepted programs are boundable");
        prop_assert_eq!(
            cost.cycles,
            CycleBounds::point(ideal.finish.as_u64()),
            "{:?}\n{}",
            timing,
            program.listing()
        );
        prop_assert_eq!(cost.retired, ideal.retired);
        prop_assert_eq!(cost.mem_accesses, ideal.mem_ops);

        let slow = run(&program, &timing, delay);
        let widened = bound_program_widened(&program, &timing, delay).expect("boundable");
        prop_assert_eq!(
            widened.cycles,
            CycleBounds {
                best: ideal.finish.as_u64(),
                worst: slow.finish.as_u64(),
            },
            "delay {} {:?}\n{}",
            delay,
            timing,
            program.listing()
        );
    }
}
