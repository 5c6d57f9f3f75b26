//! The interpreter before loop fast-forward: every op, every iteration,
//! through the issue model. It is the oracle the equivalence tests hold
//! [`Interpreter::run_from`](crate::Interpreter::run_from) to.

use mpsoc_sim::Cycle;

use crate::{
    CoreTiming, ExecError, ExecReport, MemoryPort, MicroOp, PipeClass, PortError, Program,
};

/// Runs `program` from `start` exactly as the per-op interpreter did.
pub(crate) fn run_from<P: MemoryPort>(
    timing: &CoreTiming,
    program: &Program,
    start: Cycle,
    port: &mut P,
) -> Result<ExecReport, ExecError> {
    let t = timing;
    let ops = program.ops();
    let mut int_regs = [0i64; 16];
    let mut fp_regs = [0f64; 32];
    let mut int_ready = [start; 16];
    let mut fp_ready = [start; 32];
    // Indexed by PipeClass order: Mem, Fp, Int, Ctrl.
    let mut pipe_free = [start; 4];
    let mut fetch_avail = start;
    let mut high_water = start;
    let mut report = ExecReport::default();
    let mut pc = 0usize;

    let single_issue = t.single_issue;
    let pipe_index = move |class: PipeClass| -> usize {
        if single_issue {
            return 0;
        }
        match class {
            PipeClass::Mem => 0,
            PipeClass::Fp => 1,
            PipeClass::Int => 2,
            PipeClass::Ctrl => 3,
        }
    };

    // SSR stream state (streams 0-2 alias f0-f2 while enabled).
    #[derive(Clone, Copy)]
    struct StreamState {
        addr: u64,
        stride: i64,
        remaining: u64,
    }
    let mut streams: [Option<StreamState>; 3] = [None, None, None];
    let mut ssr_enabled = false;
    // Active hardware loop: (first body pc, last body pc, iterations left).
    let mut frep: Option<(usize, usize, u64)> = None;

    fn stream_pop<P: MemoryPort>(
        streams: &mut [Option<StreamState>; 3],
        port: &mut P,
        idx: usize,
    ) -> Result<f64, ExecError> {
        let st = streams[idx]
            .as_mut()
            .ok_or(ExecError::Port(PortError { addr: u64::MAX }))?;
        if st.remaining == 0 {
            return Err(ExecError::Port(PortError { addr: st.addr }));
        }
        let value = port.load(st.addr)?;
        st.addr = st.addr.wrapping_add_signed(st.stride);
        st.remaining -= 1;
        Ok(value)
    }

    fn stream_push<P: MemoryPort>(
        streams: &mut [Option<StreamState>; 3],
        port: &mut P,
        idx: usize,
        value: f64,
    ) -> Result<(), ExecError> {
        let st = streams[idx]
            .as_mut()
            .ok_or(ExecError::Port(PortError { addr: u64::MAX }))?;
        if st.remaining == 0 {
            return Err(ExecError::Port(PortError { addr: st.addr }));
        }
        port.store(st.addr, value)?;
        st.addr = st.addr.wrapping_add_signed(st.stride);
        st.remaining -= 1;
        Ok(())
    }

    loop {
        if report.retired >= t.max_steps {
            return Err(ExecError::FuelExhausted {
                steps: report.retired,
            });
        }
        let Some(&op) = ops.get(pc) else {
            return Err(ExecError::PcOutOfRange { pc });
        };
        let pipe = pipe_index(op.pipe());
        // In-order multi-issue: an op may share a cycle with the
        // previous op (different pipe) but never issue earlier.
        let base = fetch_avail.max(pipe_free[pipe]);

        let mut operand_ready = base;
        let ready_int = |r: crate::IntReg, operand_ready: &mut Cycle| {
            *operand_ready = (*operand_ready).max(int_ready[r.index()]);
        };
        let ready_fp = |r: crate::FpReg, operand_ready: &mut Cycle| {
            // Enabled streams are prefetched by dedicated SSR ports:
            // no register-file dependency.
            if ssr_enabled && r.index() < 3 && streams[r.index()].is_some() {
                return;
            }
            *operand_ready = (*operand_ready).max(fp_ready[r.index()]);
        };

        match op {
            MicroOp::Li { .. } => {}
            MicroOp::Addi { rs, .. } => ready_int(rs, &mut operand_ready),
            MicroOp::Add { rs1, rs2, .. } => {
                ready_int(rs1, &mut operand_ready);
                ready_int(rs2, &mut operand_ready);
            }
            MicroOp::Fld { rs, .. } => ready_int(rs, &mut operand_ready),
            MicroOp::Fsd { fs, rs, .. } => {
                ready_fp(fs, &mut operand_ready);
                ready_int(rs, &mut operand_ready);
            }
            MicroOp::FsdPair { fs1, fs2, rs, .. } => {
                ready_fp(fs1, &mut operand_ready);
                ready_fp(fs2, &mut operand_ready);
                ready_int(rs, &mut operand_ready);
            }
            MicroOp::Fmadd { fa, fb, fc, .. } => {
                ready_fp(fa, &mut operand_ready);
                ready_fp(fb, &mut operand_ready);
                ready_fp(fc, &mut operand_ready);
            }
            MicroOp::Fadd { fa, fb, .. } | MicroOp::Fmul { fa, fb, .. } => {
                ready_fp(fa, &mut operand_ready);
                ready_fp(fb, &mut operand_ready);
            }
            MicroOp::Bnez { rs, .. } => ready_int(rs, &mut operand_ready),
            MicroOp::SsrCfg { base, .. } => ready_int(base, &mut operand_ready),
            MicroOp::SsrEnable | MicroOp::SsrDisable | MicroOp::Frep { .. } => {}
            MicroOp::Halt => {}
        }

        let mut issue = operand_ready;

        // Bank arbitration for memory ops.
        if op.is_mem() {
            let addr = match op {
                MicroOp::Fld { rs, offset, .. }
                | MicroOp::Fsd { rs, offset, .. }
                | MicroOp::FsdPair { rs, offset, .. } => {
                    int_regs[rs.index()].wrapping_add(offset) as u64
                }
                _ => unreachable!("is_mem covers exactly the three mem ops"),
            };
            issue = port.grant(addr, issue);
        }

        report.stall_cycles += (issue - base).as_u64();

        // Execute (functional semantics) and set destination latency.
        let mut next_pc = pc + 1;
        match op {
            MicroOp::Li { rd, imm } => {
                int_regs[rd.index()] = imm;
                int_ready[rd.index()] = issue + Cycle::new(t.int_latency);
                report.int_ops += 1;
            }
            MicroOp::Addi { rd, rs, imm } => {
                int_regs[rd.index()] = int_regs[rs.index()].wrapping_add(imm);
                int_ready[rd.index()] = issue + Cycle::new(t.int_latency);
                report.int_ops += 1;
            }
            MicroOp::Add { rd, rs1, rs2 } => {
                int_regs[rd.index()] = int_regs[rs1.index()].wrapping_add(int_regs[rs2.index()]);
                int_ready[rd.index()] = issue + Cycle::new(t.int_latency);
                report.int_ops += 1;
            }
            MicroOp::Fld { fd, rs, offset } => {
                let addr = int_regs[rs.index()].wrapping_add(offset) as u64;
                fp_regs[fd.index()] = port.load(addr)?;
                fp_ready[fd.index()] = issue + Cycle::new(t.load_latency);
                report.mem_ops += 1;
            }
            MicroOp::Fsd { fs, rs, offset } => {
                let addr = int_regs[rs.index()].wrapping_add(offset) as u64;
                port.store(addr, fp_regs[fs.index()])?;
                report.mem_ops += 1;
            }
            MicroOp::FsdPair {
                fs1,
                fs2,
                rs,
                offset,
            } => {
                let addr = int_regs[rs.index()].wrapping_add(offset) as u64;
                port.store(addr, fp_regs[fs1.index()])?;
                port.store(addr + 8, fp_regs[fs2.index()])?;
                report.mem_ops += 1;
            }
            MicroOp::Fmadd { fd, fa, fb, fc } => {
                let fd_is_stream = ssr_enabled && fd.index() < 3 && streams[fd.index()].is_some();
                let read = |streams: &mut [Option<StreamState>; 3],
                            port: &mut P,
                            fp_regs: &[f64; 32],
                            r: crate::FpReg|
                 -> Result<f64, ExecError> {
                    if ssr_enabled && r.index() < 3 && streams[r.index()].is_some() {
                        stream_pop(streams, port, r.index())
                    } else {
                        Ok(fp_regs[r.index()])
                    }
                };
                let va = read(&mut streams, port, &fp_regs, fa)?;
                let vb = read(&mut streams, port, &fp_regs, fb)?;
                let vc = read(&mut streams, port, &fp_regs, fc)?;
                let result = va.mul_add(vb, vc);
                if fd_is_stream {
                    stream_push(&mut streams, port, fd.index(), result)?;
                } else {
                    fp_regs[fd.index()] = result;
                    fp_ready[fd.index()] = issue + Cycle::new(t.fp_latency);
                }
                report.fp_ops += 1;
            }
            MicroOp::Fadd { fd, fa, fb } | MicroOp::Fmul { fd, fa, fb } => {
                let is_mul = matches!(op, MicroOp::Fmul { .. });
                let fd_is_stream = ssr_enabled && fd.index() < 3 && streams[fd.index()].is_some();
                let read = |streams: &mut [Option<StreamState>; 3],
                            port: &mut P,
                            fp_regs: &[f64; 32],
                            r: crate::FpReg|
                 -> Result<f64, ExecError> {
                    if ssr_enabled && r.index() < 3 && streams[r.index()].is_some() {
                        stream_pop(streams, port, r.index())
                    } else {
                        Ok(fp_regs[r.index()])
                    }
                };
                let va = read(&mut streams, port, &fp_regs, fa)?;
                let vb = read(&mut streams, port, &fp_regs, fb)?;
                let result = if is_mul { va * vb } else { va + vb };
                if fd_is_stream {
                    stream_push(&mut streams, port, fd.index(), result)?;
                } else {
                    fp_regs[fd.index()] = result;
                    fp_ready[fd.index()] = issue + Cycle::new(t.fp_latency);
                }
                report.fp_ops += 1;
            }
            MicroOp::Bnez { rs, target } => {
                report.branches += 1;
                if int_regs[rs.index()] != 0 {
                    next_pc = target;
                    // Taken branch: fetch bubble.
                    fetch_avail = issue + Cycle::new(1 + t.branch_taken_penalty);
                }
            }
            MicroOp::SsrCfg {
                stream,
                base,
                stride,
                count,
                ..
            } => {
                streams[stream as usize] = Some(StreamState {
                    addr: int_regs[base.index()] as u64,
                    stride,
                    remaining: count,
                });
                report.int_ops += 1;
            }
            MicroOp::SsrEnable => {
                ssr_enabled = true;
                report.int_ops += 1;
            }
            MicroOp::SsrDisable => {
                ssr_enabled = false;
                report.int_ops += 1;
            }
            MicroOp::Frep { iterations, body } => {
                let start = pc + 1;
                let end = pc + body as usize;
                if end >= ops.len() {
                    return Err(ExecError::PcOutOfRange { pc: end });
                }
                if iterations > 1 {
                    frep = Some((start, end, iterations - 1));
                }
                report.branches += 1;
            }
            MicroOp::Halt => {
                report.retired += 1;
                report.finish = high_water.max(issue);
                return Ok(report);
            }
        }

        // Completion high-water mark (stores complete one cycle after
        // issue; results at their latency).
        let completion = match op.pipe() {
            PipeClass::Mem => issue + Cycle::new(1),
            PipeClass::Fp => issue + Cycle::new(t.fp_latency),
            PipeClass::Int => issue + Cycle::new(t.int_latency),
            PipeClass::Ctrl => issue + Cycle::new(1),
        };
        high_water = high_water.max(completion);

        pipe_free[pipe] = issue + Cycle::new(1);
        if !matches!(op, MicroOp::Bnez { rs, .. } if int_regs[rs.index()] != 0) {
            fetch_avail = fetch_avail.max(issue);
        }
        report.retired += 1;
        // Hardware-loop wraparound: when the body's last op retires
        // and iterations remain, jump back with zero overhead.
        if let Some((start, end, remaining)) = frep {
            if pc == end && next_pc == pc + 1 {
                if remaining > 0 {
                    frep = Some((start, end, remaining - 1));
                    next_pc = start;
                } else {
                    frep = None;
                }
            }
        }
        pc = next_pc;
    }
}

mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;

    use mpsoc_kernels::{
        Axpby, CoreSlice, Daxpy, DaxpySsr, Dot, Gemv, Kernel, KernelKind, Memset, Scale, Stencil3,
        Sum, VecAdd,
    };

    use crate::exec::Shape;
    use crate::{
        CoreTiming, ExecReport, FpReg, IntReg, Interpreter, MemoryPort, PortError, Program,
        ProgramBuilder, VecPort, Words,
    };
    use mpsoc_sim::Cycle;

    /// A test memory that counts grants. With `delay: 0` it is
    /// conflict-free; otherwise each access is granted up to `delay`
    /// cycles late, depending on its word, so every op stays on the
    /// per-op path.
    #[derive(Debug, Clone)]
    struct Port {
        words: Vec<f64>,
        delay: u64,
        grants: u64,
    }

    impl MemoryPort for Port {
        fn load(&mut self, addr: u64) -> Result<f64, PortError> {
            let i = word(addr, self.words.len())?;
            Ok(self.words[i])
        }

        fn store(&mut self, addr: u64, value: f64) -> Result<(), PortError> {
            let i = word(addr, self.words.len())?;
            self.words[i] = value;
            Ok(())
        }

        fn grant(&mut self, addr: u64, at: Cycle) -> Cycle {
            self.grants += 1;
            at + Cycle::new(addr / 8 % (self.delay + 1))
        }

        fn conflict_free(&self) -> bool {
            self.delay == 0
        }
    }

    /// A conflict-free memory that lends its words as raw bits, as the
    /// SoC's ideal TCDM does.
    #[derive(Debug, Clone)]
    struct BitsPort(Vec<u64>);

    impl MemoryPort for BitsPort {
        fn load(&mut self, addr: u64) -> Result<f64, PortError> {
            Ok(f64::from_bits(self.0[word(addr, self.0.len())?]))
        }

        fn store(&mut self, addr: u64, value: f64) -> Result<(), PortError> {
            let i = word(addr, self.0.len())?;
            self.0[i] = value.to_bits();
            Ok(())
        }

        fn conflict_free(&self) -> bool {
            true
        }

        fn words(&mut self) -> Option<Words<'_>> {
            Some(Words::Bits(&mut self.0))
        }
    }

    fn word(addr: u64, words: usize) -> Result<usize, PortError> {
        let i = (addr / 8) as usize;
        if addr % 8 != 0 || i >= words {
            return Err(PortError { addr });
        }
        Ok(i)
    }

    fn bits(words: &[f64]) -> Vec<u64> {
        words.iter().map(|v| v.to_bits()).collect()
    }

    /// Random words, an eighth of them edge values: signed zeros,
    /// infinities, subnormals and magnitudes near `f64::MAX`. None is a
    /// NaN; the NaNs ops make (`∞ − ∞`, `0 · ∞`) are compared by their
    /// bits like every other word.
    fn memory(words: usize, rng: &mut TestRng) -> Vec<f64> {
        const EDGES: [f64; 10] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -5e-324,
            f64::MAX,
            -f64::MAX,
            f64::MAX / 3.0,
            -f64::MAX / 1.5,
        ];
        (0..words)
            .map(|_| match rng.below(8) {
                0 => EDGES[rng.below(EDGES.len() as u64) as usize],
                _ => rng.unit_f64() * 8.0 - 4.0,
            })
            .collect()
    }

    /// A core with latencies drawn from `rng`, some longer than a loop
    /// iteration, so a timing state can take several iterations to
    /// settle.
    fn random_timing(rng: &mut TestRng) -> CoreTiming {
        CoreTiming {
            load_latency: 1 + rng.below(12),
            fp_latency: 1 + rng.below(12),
            int_latency: 1 + rng.below(4),
            branch_taken_penalty: rng.below(4),
            max_steps: 0,
            single_issue: rng.below(2) == 0,
        }
    }

    /// Runs `program` from `start` through both interpreters, each on
    /// its own copy of `port`: they must return the same result and
    /// leave memory bit-identical. Returns the report of a run that
    /// succeeded.
    fn same<P: MemoryPort + Clone>(
        program: &Program,
        timing: &CoreTiming,
        start: u64,
        port: P,
        memory: impl Fn(&P) -> Vec<u64>,
    ) -> Result<Option<ExecReport>, TestCaseError> {
        let (mut fast, mut slow) = (port.clone(), port);
        let start = Cycle::new(start);
        let got = Interpreter::with_timing(*timing).run_from(program, start, &mut fast);
        let want = super::run_from(timing, program, start, &mut slow);
        prop_assert_eq!(got, want, "{timing:?} from {start}\n{}", program.listing());
        prop_assert!(
            memory(&fast) == memory(&slow),
            "memory differs\n{}",
            program.listing()
        );
        Ok(got.ok())
    }

    /// What [`check`] compared.
    #[derive(Debug, Default, Clone, Copy)]
    struct Tally {
        /// Runs compared.
        runs: u64,
        /// Second runs of a program on a port that lends its words.
        second: u64,
        /// Those that ran the program's compiled form.
        compiled: u64,
        /// Closed-form loops in the compiled plans, and those of them
        /// that run op-major.
        loops: usize,
        major: usize,
        /// The ops of those op-major loops, by [`Shape`].
        shapes: [usize; 7],
    }

    /// Compares the two interpreters with each core timing, on a copy of
    /// `program` that no run has compiled: on a conflict-free `VecPort`,
    /// which lends its words, so a successful run compiles the copy; on
    /// a conflict-free port that lends none, so closed-form trips take
    /// the checked path; and on a port that delays grants. Then runs the
    /// copy again on fresh memory, on a `VecPort` and on a port that
    /// lends bits, from a later start, where a compiled form runs, and
    /// from a start within the first run's reach of the end of time,
    /// where it must not.
    fn check(
        program: &Program,
        words: &[f64],
        start: u64,
        max_steps: u64,
        timings: &[CoreTiming],
    ) -> Result<Tally, TestCaseError> {
        let mut tally = Tally::default();
        for &(mut timing) in timings {
            timing.max_steps = max_steps;
            let program = Program::from_ops_unchecked(program.ops().to_vec());
            let vec_port = VecPort::new(words.to_vec());
            let first = same(&program, &timing, start, vec_port, |p| bits(p.data()))?;
            for delay in [0, 2] {
                let port = Port {
                    words: words.to_vec(),
                    delay,
                    grants: 0,
                };
                same(&program, &timing, start, port, |p| bits(&p.words))?;
            }
            // The compiled form's reach: past its finish by at most the
            // load latency or a cycle.
            let near_end = match first {
                Some(report) => {
                    let span = report.finish.as_u64() - start;
                    u64::MAX - span - timing.load_latency.max(1) + 1
                }
                None => u64::MAX / 2,
            };
            let fresh: Vec<f64> = words.iter().map(|w| 1.0 - 0.5 * w).collect();
            for later in [start + 1 + start % 977, near_end] {
                let vec_port = VecPort::new(fresh.clone());
                same(&program, &timing, later, vec_port, |p| bits(p.data()))?;
                let bits_port = BitsPort(bits(&fresh));
                same(&program, &timing, later, bits_port, |p| p.0.clone())?;
            }
            tally.runs += 7;
            tally.second += 4;
            if let Some(compiled) = program.compiled().get().filter(|c| c.has_plan()) {
                tally.compiled += 2;
                let (loops, major) = compiled.loops();
                tally.loops += loops;
                tally.major += major;
                for shape in compiled.shapes() {
                    tally.shapes[shape as usize] += 1;
                }
            }
        }
        Ok(tally)
    }

    /// Draws bounded values from a fixed list of random words.
    struct Genes<'a> {
        words: &'a [u64],
        at: usize,
    }

    impl Genes<'_> {
        fn below(&mut self, bound: u64) -> u64 {
            let word = self.words[self.at % self.words.len()];
            self.at += 1;
            word % bound
        }

        fn fp(&mut self) -> FpReg {
            match self.below(9) {
                8 => FpReg::new(31),
                r => FpReg::new(r as u8),
            }
        }

        /// A load/store base: the two pointers, or a scratch register.
        fn base(&mut self) -> IntReg {
            [IntReg::new(1), IntReg::new(2), IntReg::new(5)][self.below(3) as usize]
        }

        fn scratch(&mut self) -> IntReg {
            IntReg::new(5 + self.below(3) as u8)
        }

        fn offset(&mut self) -> i64 {
            8 * self.below(8) as i64
        }
    }

    /// Emits one random straight-line op. `counter` is the enclosing
    /// loop's counter, which a rare op disturbs by `unit` so that some
    /// loops never end. With `closed` every integer op is a
    /// self-increment; with a `unit` of 8 the counter counts bytes and
    /// may be a load or store base.
    fn random_op(b: &mut ProgramBuilder, g: &mut Genes, counter: IntReg, closed: bool, unit: i64) {
        let (p1, p2) = (IntReg::new(1), IntReg::new(2));
        let base = |g: &mut Genes| {
            if unit == 8 && g.below(3) == 0 {
                counter
            } else {
                g.base()
            }
        };
        match g.below(40) {
            0..=5 => b.fld(g.fp(), base(g), g.offset()),
            6..=9 => b.fsd(g.fp(), base(g), g.offset()),
            10..=12 => b.fsd_pair(g.fp(), g.fp(), base(g), g.offset()),
            13..=17 => b.fmadd(g.fp(), g.fp(), g.fp(), g.fp()),
            18..=21 => b.fadd(g.fp(), g.fp(), g.fp()),
            22..=24 => b.fmul(g.fp(), g.fp(), g.fp()),
            25..=30 => {
                let r = [p1, p2, g.scratch()][g.below(3) as usize];
                b.addi(r, r, [8, 8, 16, 0, -8][g.below(5) as usize]);
            }
            31..=38 if closed => {
                let r = g.scratch();
                b.addi(r, r, 8 * g.below(3) as i64 - 8);
            }
            31..=32 => b.add(g.scratch(), g.base(), g.scratch()),
            33..=34 => b.addi(g.scratch(), g.base(), g.offset()),
            35..=38 => b.li(g.scratch(), 8 * g.below(64) as i64),
            _ => b.addi(counter, counter, unit * (g.below(3) as i64 - 1)),
        }
    }

    /// Words of the test memory.
    const WORDS: u64 = 512;

    /// How a shaped closed body fails the op-major conditions, if it
    /// does.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Breaker {
        /// It meets them all.
        None,
        /// A store writes the word the next trip loads.
        StoreFeedsNextTrip,
        /// A store's base does not move.
        StrideZeroStore,
        /// A pair store overlaps the next trip's pair.
        PairOverlap,
        /// An FP register is carried across trips through two ops.
        CarriedThroughTwoOps,
        /// A carried register is read by another op after its writer.
        CarriedAndRead,
    }

    /// Emits an `fmadd`, `fadd` or `fmul` into `fd` that reads `read` at
    /// a random operand position and registers of `ready` at the others.
    fn op_reading(b: &mut ProgramBuilder, g: &mut Genes, fd: FpReg, read: FpReg, ready: &[FpReg]) {
        let mut operands = [pick(g, ready), pick(g, ready), pick(g, ready)];
        match g.below(3) {
            0 => {
                operands[g.below(3) as usize] = read;
                b.fmadd(fd, operands[0], operands[1], operands[2]);
            }
            1 => {
                operands[g.below(2) as usize] = read;
                b.fadd(fd, operands[0], operands[1]);
            }
            _ => {
                operands[g.below(2) as usize] = read;
                b.fmul(fd, operands[0], operands[1]);
            }
        }
    }

    fn pick(g: &mut Genes, ready: &[FpReg]) -> FpReg {
        ready[g.below(ready.len() as u64) as usize]
    }

    /// Emits a closed body of loads from `x1` and `x2`, FP ops on what
    /// the trip loaded or computed, some writing a register in place, a
    /// one-op recurrence and stores to `x2`, with both pointers moving by
    /// one stride, down when `down`, and every store inside the
    /// stride-wide window of the loads from `x2`: the shape the compiled
    /// plan runs op-major. Then, unless `breaker` is [`Breaker::None`],
    /// the ops that make the trips dependent. The caller emits the
    /// counter's decrement.
    fn shaped_body(b: &mut ProgramBuilder, g: &mut Genes, breaker: Breaker, down: bool) {
        let (x1, x2, x5) = (IntReg::new(1), IntReg::new(2), IntReg::new(5));
        let f = FpReg::new;
        let words = if breaker == Breaker::PairOverlap {
            1
        } else {
            1 + g.below(3) as i64
        };
        let at = |g: &mut Genes| 8 * g.below(words as u64) as i64;
        // The invariant f31, and the registers the trip has written.
        let mut ready = vec![f(31)];
        for r in 0..1 + g.below(4) as u8 {
            let base = if g.below(2) == 0 { x1 } else { x2 };
            b.fld(f(r), base, at(g));
            ready.push(f(r));
        }
        for r in 4..4 + g.below(3) as u8 {
            let (fa, fb, fc) = (pick(g, &ready), pick(g, &ready), pick(g, &ready));
            match g.below(3) {
                0 => b.fmadd(f(r), fa, fb, fc),
                1 => b.fadd(f(r), fa, fb),
                _ => b.fmul(f(r), fa, fb),
            }
            ready.push(f(r));
        }
        for _ in 0..g.below(3) {
            // In place: a register this trip wrote, read by its writer.
            let own = pick(g, &ready[1..]);
            op_reading(b, g, own, own, &ready);
        }
        if g.below(2) == 0 {
            op_reading(b, g, f(9), f(9), &ready);
        }
        for _ in 0..1 + g.below(2) {
            let value = pick(g, &ready);
            if words >= 2 && g.below(2) == 0 {
                let offset = 8 * g.below(words as u64 - 1) as i64;
                b.fsd_pair(value, pick(g, &ready), x2, offset);
            } else {
                b.fsd(value, x2, at(g));
            }
        }
        match breaker {
            Breaker::None => {}
            Breaker::StoreFeedsNextTrip => {
                b.fld(f(10), x1, 0);
                b.fsd(pick(g, &ready), x1, 8 * words);
            }
            Breaker::StrideZeroStore => b.fsd(pick(g, &ready), x5, 0),
            Breaker::PairOverlap => b.fsd_pair(pick(g, &ready), pick(g, &ready), x2, 0),
            Breaker::CarriedThroughTwoOps => {
                b.fadd(f(7), f(7), pick(g, &ready));
                b.fmul(f(7), f(7), f(31));
                b.fsd(f(7), x2, at(g));
            }
            Breaker::CarriedAndRead => {
                b.fmadd(f(8), pick(g, &ready), pick(g, &ready), f(8));
                b.fsd(f(8), x2, at(g));
            }
        }
        let stride = if down { -8 * words } else { 8 * words };
        b.addi(x1, x1, stride);
        b.addi(x2, x2, stride);
    }

    /// The register an edge access walks memory through; no other op
    /// touches it.
    const EDGE: IntReg = IntReg::new(8);

    /// Plans an access through [`EDGE`] in a closed loop of `trips`
    /// trips that leaves memory, so the lent-words check fails: where
    /// [`EDGE`] starts, the bytes it moves per trip, and whether the
    /// access is a paired store. The access leaves past the end or below
    /// zero at its first trip that is out of range, one of the first
    /// few (where a replay starts) or the last; or its stride is not a
    /// multiple of 8; or only the second word of the pair leaves.
    fn plan_edge(g: &mut Genes, trips: u64) -> (i64, i64, bool) {
        let end = 8 * WORDS as i64;
        let out = if g.below(2) == 0 {
            2 + g.below(3)
        } else {
            trips - 1
        } as i64;
        let stride = 8 * (1 + g.below(2) as i64);
        match g.below(4) {
            0 => (end - out * stride, stride, false),
            1 => (out * stride - 8, -stride, false),
            2 => (
                8 * g.below(WORDS) as i64,
                [4, 12, -4][g.below(3) as usize],
                false,
            ),
            _ => (end - 8 - out * stride, stride, true),
        }
    }

    /// A random program of 1-3 counted loops of 1-40 trips. Each loop
    /// follows a few random ops and has a body of 1-10 straight-line
    /// ops. Half the programs are plain, the kind a run compiles. In the
    /// others some loops run with SSR streams enabled, a rare body holds
    /// a nested hardware loop or an SSR toggle (and is never
    /// fast-forwarded), and a hardware loop may trail.
    ///
    /// Counters step down by 1, 2 or 3; some counts do not divide, and
    /// those loops end only when the fuel runs out. Some counters count
    /// bytes, serve as load/store bases and take a pointer bump
    /// mid-body. Half the bodies hold no integer op but self-increments,
    /// the shape the replay runs in closed form, with or without
    /// streams; a quarter of those also hold a [`plan_edge`] access. Of
    /// the closed bodies without streams, a third are
    /// [shaped](shaped_body), a third of those walking memory down: half
    /// of them meet the op-major conditions and half break one of them.
    fn random_program(g: &mut Genes) -> Program {
        let mut b = ProgramBuilder::new();
        let (p1, p2) = (IntReg::new(1), IntReg::new(2));
        b.li(p1, 8 * g.below(64) as i64);
        b.li(p2, 8 * g.below(64) as i64);
        b.li(IntReg::new(5), 8 * g.below(128) as i64);
        let plain = g.below(2) == 0;
        for l in 0..1 + g.below(3) {
            let counter = IntReg::new(10 + l as u8);
            for _ in 0..g.below(3) {
                random_op(&mut b, g, counter, false, 1);
            }
            let ssr = !plain && g.below(3) == 0;
            if ssr {
                let count = g.below(120);
                b.ssr_cfg(0, p1, 8, count, false);
                b.ssr_cfg(1, p2, 8, count, false);
                b.ssr_cfg(2, p2, 16, count, true);
                b.ssr_enable();
            }
            let closed = g.below(2) == 0;
            let unit = [1, 8][g.below(2) as usize];
            let step = 1 + g.below(3);
            let rest = if g.below(4) == 0 { g.below(step) } else { 0 };
            let trips = 1 + g.below(40);
            if closed && !ssr && g.below(3) == 0 {
                let breaker = [
                    Breaker::StoreFeedsNextTrip,
                    Breaker::StrideZeroStore,
                    Breaker::PairOverlap,
                    Breaker::CarriedThroughTwoOps,
                    Breaker::CarriedAndRead,
                ]
                .get(g.below(10) as usize)
                .copied()
                .unwrap_or(Breaker::None);
                // Loads from words [0, 131) and stores to [256, 386),
                // walked up or down: the two pointers' ranges stay apart.
                let down = g.below(3) == 0;
                let from = if down { 120 } else { 0 };
                b.li(p1, 8 * (from + g.below(8)) as i64);
                b.li(p2, 8 * (256 + from + g.below(8)) as i64);
                b.li(counter, (step * trips + rest) as i64);
                let top = b.label();
                b.bind(top);
                shaped_body(&mut b, g, breaker, down);
                b.addi(counter, counter, -(step as i64));
                b.bnez(counter, top);
                // What the loop leaves in the accumulator and in two
                // registers it writes.
                b.fsd(FpReg::new(9), p2, 0);
                b.fsd_pair(FpReg::new(4), FpReg::new(0), p2, 8);
                continue;
            }
            let edge = (closed && rest == 0 && g.below(4) == 0).then(|| plan_edge(g, trips));
            if let Some((start, _, _)) = edge {
                b.li(EDGE, start);
            }
            b.li(counter, unit * (step * trips + rest) as i64);
            let top = b.label();
            b.bind(top);
            let body = 1 + g.below(10);
            let countdown = g.below(body);
            let edge_at = g.below(body);
            // A byte counter may take a pointer bump before its
            // countdown, which then takes the bump back.
            let bump = if unit == 8 && countdown > 0 && g.below(2) == 0 {
                8 * (1 + g.below(4) as i64)
            } else {
                0
            };
            let bump_at = g.below(countdown.max(1));
            for k in 0..body {
                if let Some((_, stride, pair)) = edge.filter(|_| k == edge_at) {
                    match (pair, g.below(2)) {
                        (true, _) => b.fsd_pair(g.fp(), g.fp(), EDGE, 0),
                        (false, 0) => b.fld(g.fp(), EDGE, 0),
                        (false, _) => b.fsd(g.fp(), EDGE, 0),
                    }
                    b.addi(EDGE, EDGE, stride);
                }
                if k == countdown {
                    b.addi(counter, counter, -unit * step as i64 - bump);
                    continue;
                }
                if bump != 0 && k == bump_at {
                    b.addi(counter, counter, bump);
                    continue;
                }
                match g.below(60) {
                    _ if plain => random_op(&mut b, g, counter, closed, unit),
                    0 => {
                        b.frep(1 + g.below(3), 1);
                        b.fadd(g.fp(), g.fp(), g.fp());
                    }
                    1 => b.ssr_enable(),
                    2 => b.ssr_disable(),
                    _ => random_op(&mut b, g, counter, closed, unit),
                }
            }
            b.bnez(counter, top);
            if ssr {
                b.ssr_disable();
            }
        }
        if !plain && g.below(2) == 0 {
            let ops = 1 + g.below(3) as u8;
            b.frep(1 + g.below(5), ops);
            for _ in 0..ops {
                b.fmadd(g.fp(), g.fp(), g.fp(), g.fp());
            }
        }
        b.halt();
        b.build().expect("well-formed by construction")
    }

    /// One case of [`fast_forward_matches_the_per_op_interpreter`].
    fn random_case(
        genes: &[u64],
        start: u64,
        fuel: u64,
        seed: u64,
    ) -> Result<Tally, TestCaseError> {
        let program = random_program(&mut Genes {
            words: genes,
            at: 0,
        });
        let mut rng = TestRng::from_name(&seed.to_string());
        let words = memory(WORDS as usize, &mut rng);
        // Small limits run out inside replayed loops; the largest
        // bounds the loops a disturbed counter never ends.
        let max_steps = [1 + seed % 64, 64 + seed % 1024, 1 + seed % 4096, 20_000][fuel as usize];
        let timings = [
            CoreTiming::snitch(),
            CoreTiming::cva6(),
            random_timing(&mut rng),
        ];
        check(&program, &words, start, max_steps, &timings)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Fast-forwarding and compiled runs never change what a program
        /// computes, when it finishes, what it counts, or where it
        /// faults: random loop nests, fuel limits that run out mid-loop,
        /// non-zero start cycles, accesses that leave memory inside a
        /// replayed loop, closed bodies whose trips are or are not
        /// independent, both cores, ports that lend their words as
        /// doubles or as bits, lend none, or delay grants, and second
        /// runs from starts near the end of time.
        #[test]
        fn fast_forward_matches_the_per_op_interpreter(
            genes in prop::collection::vec(any::<u64>(), 48..160),
            start in 0u64..1_000_000,
            fuel in 0u64..4,
            seed in any::<u64>(),
        ) {
            random_case(&genes, start, fuel, seed)?;
        }
    }

    /// The property above reaches compiled forms, both kinds of
    /// closed-form loop in their plans, and every shape of an op-major
    /// op: over 1,024 of its cases, a share of the second runs runs a
    /// compiled form, some of the plans' loops run op-major and some
    /// trip by trip, and each slice kernel and the one-trip-at-a-time
    /// path run. (`--nocapture` prints the counts.)
    #[test]
    fn second_runs_reach_compiled_forms() {
        let mut rng = TestRng::from_name("second runs");
        let mut tally = Tally::default();
        for _ in 0..1024 {
            let genes: Vec<u64> = (0..48 + rng.below(112)).map(|_| rng.next_u64()).collect();
            let case = random_case(&genes, rng.below(1_000_000), rng.below(4), rng.next_u64())
                .expect("equivalent");
            tally.second += case.second;
            tally.compiled += case.compiled;
            tally.loops += case.loops;
            tally.major += case.major;
            for (sum, ops) in tally.shapes.iter_mut().zip(case.shapes) {
                *sum += ops;
            }
        }
        eprintln!(
            "{} of {} second runs compiled; {} of {} loops op-major; ops by shape {:?}",
            tally.compiled, tally.second, tally.major, tally.loops, tally.shapes
        );
        assert!(tally.compiled * 10 > tally.second, "{tally:?}");
        assert!(tally.major > 0 && tally.major < tally.loops, "{tally:?}");
        assert!(tally.shapes.iter().all(|&ops| ops > 0), "{tally:?}");
    }

    /// The shape of each op of the op-major loop that the kernel named
    /// `name` runs on one Snitch core at 512 elements, for the seven
    /// kernels a tenant submits (the benchmark's `cosim-soc` traffic):
    /// every op a slice kernel, but DAXPY's loads, 10 words apart, and
    /// its paired stores.
    fn pinned_shapes(name: &str) -> Option<Vec<Shape>> {
        use Shape::{Each, Fill, Fold, InPlace, Load, Map, Store};
        Some(match name {
            "daxpy" => [
                vec![Each; 6],
                [InPlace, Each, Each].repeat(7),
                vec![InPlace, Each, InPlace, Each, InPlace, Each, Each, Each],
            ]
            .concat(),
            "axpby" => vec![Load, Load, InPlace, InPlace, Store],
            "scale" => vec![Load, Map, Store],
            "vecadd" => vec![Load, Load, InPlace, Store],
            "memset" => vec![Fill],
            "dot" => vec![Load, Load, Fold],
            "sum" => vec![Load, Fold],
            _ => return None,
        })
    }

    /// Every zoo kernel's code, at sizes around its unroll factors and
    /// loop trip boundaries (700 trips are two full chunks and a short
    /// one), on one core; and the shapes of the seven
    /// schedulable kernels' op-major ops ([`pinned_shapes`]), so that a
    /// change that sends their traffic one trip at a time fails.
    #[test]
    fn zoo_kernels_match_the_per_op_interpreter() {
        let zoo: Vec<Box<dyn Kernel>> = vec![
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
        ];
        let mut rng = TestRng::from_name("zoo");
        let mut runs = 0;
        let mut pinned = 0;
        for kernel in &zoo {
            for elems in [0u64, 1, 2, 3, 9, 10, 11, 20, 21, 37, 64, 255, 512, 700] {
                let x_words = elems * kernel.x_words_per_elem() + 2 * kernel.x_halo();
                let y_base = x_words;
                let out_base = y_base + elems;
                let args_base = out_base + 1;
                let slice = CoreSlice {
                    elems,
                    x_base: kernel.x_halo() * 8,
                    y_base: y_base * 8,
                    out_base: match kernel.kind() {
                        KernelKind::Map => y_base * 8,
                        KernelKind::Reduce => out_base * 8,
                    },
                    args_base: args_base * 8,
                    core_index: 0,
                };
                // The kernels crate links its own build of this crate:
                // carry the program over by value.
                let program = kernel.codegen(&slice).expect("zoo codegen");
                let program: Program =
                    serde_json::from_str(&serde_json::to_string(&program).expect("serialize"))
                        .expect("deserialize");
                let mut words = memory((args_base + 8) as usize, &mut rng);
                for (i, arg) in kernel.scalar_args().into_iter().enumerate() {
                    words[args_base as usize + i] = arg;
                }
                words[args_base as usize + kernel.scalar_args().len()] = 0.0;
                if let Some(want) = pinned_shapes(kernel.name()).filter(|_| elems == 512) {
                    let fresh = Program::from_ops_unchecked(program.ops().to_vec());
                    let mut port = VecPort::new(words.clone());
                    Interpreter::new().run(&fresh, &mut port).expect("zoo run");
                    let compiled = fresh.compiled().get().expect("a first run compiles");
                    assert_eq!(compiled.shapes(), want, "{}", kernel.name());
                    pinned += 1;
                }
                let start = rng.below(10_000);
                let timings = [CoreTiming::snitch(), CoreTiming::cva6()];
                runs += check(
                    &program,
                    &words,
                    start,
                    CoreTiming::snitch().max_steps,
                    &timings,
                )
                .unwrap_or_else(|e| panic!("{} elems={elems}: {e}", kernel.name()))
                .runs;
            }
        }
        assert_eq!(runs, 10 * 14 * 2 * 7);
        assert_eq!(pinned, 7);
    }

    /// The completion high-water mark is part of the sampled state: here
    /// it is the only clock still ahead of fetch when the loop starts,
    /// because the loop overwrites the long-latency result's register
    /// with a short-latency one, and the program halts right after.
    #[test]
    fn high_water_mark_in_flight_at_loop_entry() {
        let (p, n) = (IntReg::new(1), IntReg::new(3));
        let f3 = FpReg::new(3);
        let mut b = ProgramBuilder::new();
        b.li(p, 0);
        b.fmadd(f3, f3, f3, f3);
        b.li(n, 12);
        let top = b.label();
        b.bind(top);
        b.fld(f3, p, 0);
        b.addi(n, n, -1);
        b.bnez(n, top);
        b.halt();
        let program = b.build().expect("build");
        let timing = CoreTiming {
            load_latency: 1,
            fp_latency: 40,
            ..CoreTiming::snitch()
        };
        let words = vec![1.0; 4];
        check(&program, &words, 0, timing.max_steps, &[timing]).expect("equivalent");
    }

    /// The fast path must actually engage: in steady state a replayed
    /// DAXPY iteration asks the port for no grants, so a long run asks
    /// for only the warm-up iterations' grants.
    #[test]
    fn steady_state_daxpy_skips_the_issue_model() {
        let elems = 500;
        let slice = CoreSlice {
            elems,
            x_base: 0,
            y_base: elems * 8,
            out_base: elems * 8,
            args_base: 2 * elems * 8,
            core_index: 0,
        };
        let program = Daxpy::new(2.0).codegen(&slice).expect("codegen");
        let program: Program =
            serde_json::from_str(&serde_json::to_string(&program).expect("serialize"))
                .expect("deserialize");
        let mut port = Port {
            words: vec![1.0; 2 * elems as usize + 1],
            delay: 0,
            grants: 0,
        };
        let report = Interpreter::new().run(&program, &mut port).expect("run");
        assert_eq!(report.mem_ops, 25 * 50 + 1);
        assert!(
            port.grants < 25 * 4,
            "{} grants for {} memory ops",
            port.grants,
            report.mem_ops
        );
    }
}
