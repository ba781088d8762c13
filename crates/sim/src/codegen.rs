//! Program generation: lowering an analysed, FC-instrumented basic-block
//! graph into an executable task program.
//!
//! This is the glue between the compile-time half (`rispp-cfg`: BB graph,
//! profiling, forecast-point insertion) and the run-time half (the
//! [`Engine`](crate::engine::Engine)): the application "binary" is a walk
//! over the BB graph where every block contributes its plain cycles and
//! SI executions, and every FC Block fires a batched forecast.

use rand::Rng;
use rispp_cfg::fc_blocks::{group_into_fc_blocks, FcBlock};
use rispp_cfg::forecast_points::ForecastPoint;
use rispp_cfg::graph::{BlockId, Cfg};
use rispp_cfg::profile::Profile;

use crate::task::Op;

/// The ops one block contributes per visit: its FC Block (if any), its
/// plain cycles, and its SI executions.
#[must_use]
pub fn lower_block(cfg: &Cfg, fc_blocks: &[FcBlock], block: BlockId) -> Vec<Op> {
    let mut ops = Vec::new();
    if let Some(fc) = fc_blocks.iter().find(|f| f.block == block) {
        ops.push(Op::ForecastBlock(fc.to_forecast_values()));
    }
    let blk = cfg.block(block);
    if blk.plain_cycles > 0 {
        ops.push(Op::Plain(blk.plain_cycles));
    }
    for &(si, count) in &blk.si_uses {
        for _ in 0..count {
            ops.push(Op::ExecSi(si));
        }
    }
    ops
}

/// Lowers a whole CFG into a program by a profile-driven random walk from
/// the entry: at each branch, the successor is drawn according to the
/// profiled edge probabilities. The walk ends at an exit block or after
/// `max_steps` blocks.
///
/// The generated program is a *trace* program (loops appear unrolled the
/// way the profile says they execute), which is exactly what the run-time
/// system sees on real hardware.
#[must_use]
pub fn generate_trace_program<R: Rng>(
    cfg: &Cfg,
    profile: &Profile,
    forecast_points: &[ForecastPoint],
    max_steps: u32,
    rng: &mut R,
) -> Vec<Op> {
    let fc_blocks = group_into_fc_blocks(forecast_points);
    let mut ops = Vec::new();
    let mut at = cfg.entry();
    for _ in 0..max_steps {
        ops.extend(lower_block(cfg, &fc_blocks, at));
        let succs = cfg.successors(at);
        if succs.is_empty() {
            break;
        }
        // Draw the successor from the profiled edge distribution.
        let mut x: f64 = rng.gen_range(0.0..1.0);
        let mut pick = 0usize;
        for i in 0..succs.len() {
            let p = profile.edge_probability(at, i);
            if x < p {
                pick = i;
                break;
            }
            x -= p;
            pick = i;
        }
        at = succs[pick];
    }
    ops
}

/// Lowers a flat trace of [`Op`]s (from [`generate_trace_program`] or a
/// hand-written task) to the DLX-style ISA of [`crate::cpu`].
///
/// Plain-cycle blocks become counted delay loops (4 cycles per
/// iteration: compare + decrement + jump), forecast ops become the FC
/// instructions the compile-time pass embeds into the binary, and SI ops
/// become `ExecSi` opcodes. Register 31 is reserved as the delay counter.
///
/// `Repeat` ops are not supported (lower the expanded trace instead).
///
/// # Panics
///
/// Panics on a `Repeat` op.
#[must_use]
pub fn lower_ops_to_instructions(ops: &[Op]) -> Vec<crate::cpu::Instr> {
    use crate::cpu::Instr;
    const DELAY_REG: u8 = 31;
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Plain(cycles) => {
                // addi r31, r0, n ; loop: beq r31, r0, end ; addi -1 ; jmp
                let iterations = (cycles / 4).max(1) as i64;
                let loop_head = out.len() + 1;
                out.push(Instr::Addi {
                    rd: DELAY_REG,
                    rs: 0,
                    imm: iterations,
                });
                out.push(Instr::Beq {
                    rs: DELAY_REG,
                    rt: 0,
                    target: loop_head + 3,
                });
                out.push(Instr::Addi {
                    rd: DELAY_REG,
                    rs: DELAY_REG,
                    imm: -1,
                });
                out.push(Instr::Jmp { target: loop_head });
            }
            Op::ExecSi(si) => out.push(Instr::ExecSi { si: *si }),
            Op::Forecast(fv) => out.push(Instr::Forecast {
                si: fv.si,
                probability_milli: (fv.probability * 1000.0).round() as u32,
                distance: fv.distance as u64,
                executions: fv.expected_executions.round() as u32,
            }),
            Op::ForecastBlock(fvs) => {
                for fv in fvs {
                    out.push(Instr::Forecast {
                        si: fv.si,
                        probability_milli: (fv.probability * 1000.0).round() as u32,
                        distance: fv.distance as u64,
                        executions: fv.expected_executions.round() as u32,
                    });
                }
            }
            Op::RetractForecast(si) => out.push(Instr::Retract { si: *si }),
            Op::Repeat { .. } => panic!("lower expanded traces, not Repeat ops"),
        }
    }
    out.push(crate::cpu::Instr::Halt);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rispp_cfg::aes::{build_aes, AesSis};
    use rispp_cfg::graph::BasicBlock;
    use rispp_core::si::SiId;

    #[test]
    fn lower_block_emits_fc_plain_and_sis() {
        let mut cfg = Cfg::new();
        let b = cfg.add_block(BasicBlock::with_si("b", 50, vec![(SiId(2), 3)]));
        let fc = ForecastPoint {
            block: b,
            si: SiId(2),
            probability: 1.0,
            distance: 1_000.0,
            expected_executions: 9.0,
        };
        let fc_blocks = group_into_fc_blocks(&[fc]);
        let ops = lower_block(&cfg, &fc_blocks, b);
        assert!(matches!(ops[0], Op::ForecastBlock(ref v) if v.len() == 1));
        assert_eq!(ops[1], Op::Plain(50));
        assert_eq!(
            ops[2..],
            [
                Op::ExecSi(SiId(2)),
                Op::ExecSi(SiId(2)),
                Op::ExecSi(SiId(2))
            ]
        );
    }

    #[test]
    fn trace_program_respects_profile_shape() {
        let sis = AesSis::default();
        let (cfg, profile, _) = build_aes(sis, 16);
        let mut rng = StdRng::seed_from_u64(0);
        let ops = generate_trace_program(&cfg, &profile, &[], 10_000, &mut rng);
        // The trace executes the round SIs many times.
        let sub_shift_execs = ops
            .iter()
            .filter(|op| matches!(op, Op::ExecSi(si) if *si == sis.sub_shift))
            .count();
        // ~16 data blocks × 10 rounds × 4 executions.
        assert!(
            (300..900).contains(&sub_shift_execs),
            "execs {sub_shift_execs}"
        );
        // The trace terminates at the exit, not at the step cap.
        assert!(ops.len() < 9_000);
    }

    #[test]
    fn trace_program_is_seed_deterministic() {
        let sis = AesSis::default();
        let (cfg, profile, _) = build_aes(sis, 4);
        let a = generate_trace_program(&cfg, &profile, &[], 5_000, &mut StdRng::seed_from_u64(1));
        let b = generate_trace_program(&cfg, &profile, &[], 5_000, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn lowered_trace_runs_on_the_cpu_core() {
        use crate::cpu::{Cpu, StopReason};
        use rispp_core::atom::AtomSet;
        use rispp_core::molecule::Molecule;
        use rispp_core::si::{MoleculeImpl, SiLibrary, SpecialInstruction};
        use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
        use rispp_fabric::fabric::Fabric;
        use rispp_obs::{CountersSink, SinkHandle};
        use rispp_rt::manager::RisppManager;
        use std::cell::RefCell;
        use std::rc::Rc;

        // AES trace program → ISA → run on the DLX core with a 2-atom
        // platform hosting the AES SIs.
        let sis = AesSis::default();
        let (cfg, profile, _) = build_aes(sis, 8);
        let mut lib = SiLibrary::new(2);
        for (name, sw, counts, cycles) in [
            ("SubShift", 420u64, [2u32, 1u32], 18u64),
            ("MixColumns", 380, [1, 2], 16),
            ("AddKey", 120, [0, 1], 6),
        ] {
            lib.insert(
                SpecialInstruction::new(
                    name,
                    sw,
                    vec![MoleculeImpl::new(Molecule::from_counts(counts), cycles)],
                )
                .unwrap(),
            )
            .unwrap();
        }
        let atoms = AtomSet::from_names(["SBox", "Mix"]);
        let catalog = AtomCatalog::new(vec![
            AtomHwProfile::new("SBox", 120, 240, 692),
            AtomHwProfile::new("Mix", 140, 280, 692),
        ]);
        let counters = Rc::new(RefCell::new(CountersSink::new()));
        let mut mgr = RisppManager::builder(lib, Fabric::new(atoms, catalog, 4))
            .sink(SinkHandle::shared(counters.clone()))
            .build();

        let mut rng = StdRng::seed_from_u64(9);
        let fc = ForecastPoint {
            block: cfg.entry(),
            si: sis.sub_shift,
            probability: 1.0,
            distance: 5_000.0,
            expected_executions: 300.0,
        };
        let ops = generate_trace_program(&cfg, &profile, &[fc], 10_000, &mut rng);
        let program = lower_ops_to_instructions(&ops);
        let mut cpu = Cpu::new(0);
        let summary = cpu.run(&program, &mut mgr, 0, 10_000_000);
        assert_eq!(summary.stop, StopReason::Halted);
        assert!(summary.si_hw > 0, "forecast never produced HW executions");
        // Most SubShift executions end in hardware.
        let stats = counters.borrow().si(sis.sub_shift);
        assert!(stats.hw_executions * 2 >= stats.sw_executions, "{stats:?}");
    }

    #[test]
    fn delay_loops_approximate_plain_cycles() {
        use crate::cpu::{Cpu, StopReason};
        let ops = vec![Op::Plain(10_000)];
        let program = lower_ops_to_instructions(&ops);
        // No SIs involved: a manager over an empty platform suffices.
        use rispp_core::atom::AtomSet;
        use rispp_core::si::SiLibrary;
        use rispp_fabric::catalog::AtomCatalog;
        use rispp_fabric::fabric::Fabric;
        use rispp_rt::manager::RisppManager;
        let mut mgr = RisppManager::builder(
            SiLibrary::new(0),
            Fabric::new(AtomSet::new(), AtomCatalog::new(vec![]), 0),
        )
        .build();
        let mut cpu = Cpu::new(0);
        let summary = cpu.run(&program, &mut mgr, 0, 1_000_000);
        assert_eq!(summary.stop, StopReason::Halted);
        // Within 20 % of the requested plain cycles.
        let rel = (summary.cycles as f64 - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.2, "cycles {}", summary.cycles);
    }

    #[test]
    #[should_panic(expected = "Repeat")]
    fn repeat_ops_are_rejected() {
        let _ = lower_ops_to_instructions(&[Op::Repeat {
            body: vec![],
            times: 1,
        }]);
    }

    #[test]
    fn step_cap_bounds_infinite_loops() {
        let mut cfg = Cfg::new();
        let a = cfg.add_block(BasicBlock::plain("spin", 1));
        cfg.add_edge(a, a);
        let profile = Profile::from_edge_counts(&cfg, vec![vec![1]]);
        let mut rng = StdRng::seed_from_u64(0);
        let ops = generate_trace_program(&cfg, &profile, &[], 100, &mut rng);
        // 100 visits, one Plain op each.
        assert_eq!(ops.len(), 100);
    }
}
