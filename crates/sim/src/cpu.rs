//! A DLX-style core-processor simulator.
//!
//! The paper's prototype couples the Atom Containers to a DLX soft core
//! ("we currently use a DLX core, but conceptually we are not limited to
//! any specific core"). This module provides that host: a small RISC
//! machine with 32 registers, word-addressed memory, a simple cycle model
//! — and two custom opcodes that make it a RISPP core:
//!
//! * [`Instr::ExecSi`] executes a Special Instruction through the
//!   [`RisppManager`], taking however many cycles the fastest loaded
//!   Molecule (or the software Molecule) needs;
//! * [`Instr::Forecast`] is the FC instruction the compile-time pass
//!   inserts into the binary — it announces a forecast and costs a single
//!   issue cycle (the evaluation runs in the run-time system).
//!
//! The cycle model is classic five-stage-pipeline accounting: 1 cycle per
//! ALU op, 2 per memory access, 1 per branch plus 1 on taken (flush),
//! 3 per multiply.

use rispp_core::forecast::ForecastValue;
use rispp_core::si::SiId;
use rispp_rt::manager::{RisppManager, TaskId};

/// A register index (0..32). Register 0 is hard-wired to zero, as in MIPS
/// and DLX.
pub type Reg = u8;

/// The instruction set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd ← rs + imm` (1 cycle).
    Addi {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// Immediate addend.
        imm: i64,
    },
    /// `rd ← rs + rt` (1 cycle).
    Add {
        /// Destination register.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// `rd ← rs − rt` (1 cycle).
    Sub {
        /// Destination register.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// `rd ← rs × rt` (3 cycles).
    Mul {
        /// Destination register.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// `rd ← mem[rs + offset]` (2 cycles).
    Lw {
        /// Destination register.
        rd: Reg,
        /// Address base register.
        rs: Reg,
        /// Word offset.
        offset: i64,
    },
    /// `mem[rs + offset] ← rt` (2 cycles).
    Sw {
        /// Value register.
        rt: Reg,
        /// Address base register.
        rs: Reg,
        /// Word offset.
        offset: i64,
    },
    /// Branch to `target` when `rs == rt` (1 cycle, +1 taken).
    Beq {
        /// First comparand.
        rs: Reg,
        /// Second comparand.
        rt: Reg,
        /// Absolute instruction index.
        target: usize,
    },
    /// Branch to `target` when `rs != rt` (1 cycle, +1 taken).
    Bne {
        /// First comparand.
        rs: Reg,
        /// Second comparand.
        rt: Reg,
        /// Absolute instruction index.
        target: usize,
    },
    /// Unconditional jump (2 cycles).
    Jmp {
        /// Absolute instruction index.
        target: usize,
    },
    /// Execute a Special Instruction (latency from the run-time system).
    ExecSi {
        /// The SI opcode.
        si: SiId,
    },
    /// Forecast instruction inserted by the compile-time pass (1 cycle).
    Forecast {
        /// Forecasted SI.
        si: SiId,
        /// Probability annotation (scaled ×1000 to stay `Copy`/`Eq`).
        probability_milli: u32,
        /// Temporal-distance annotation, in cycles.
        distance: u64,
        /// Expected-executions annotation.
        executions: u32,
    },
    /// Negative-forecast instruction: the SI is no longer needed
    /// (1 cycle).
    Retract {
        /// Retracted SI.
        si: SiId,
    },
    /// Stop the program.
    Halt,
}

/// Why the CPU stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `Halt` instruction retired.
    Halted,
    /// The instruction budget ran out.
    BudgetExhausted,
    /// The program counter left the program.
    FellOffEnd,
}

/// Execution summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Why execution stopped.
    pub stop: StopReason,
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles consumed (including SI latencies).
    pub cycles: u64,
    /// SI executions that ran in hardware.
    pub si_hw: u64,
    /// SI executions that ran in software.
    pub si_sw: u64,
}

/// The core.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [i64; 32],
    mem: Vec<i64>,
    pc: usize,
}

impl Cpu {
    /// Creates a core with `mem_words` words of zeroed memory.
    #[must_use]
    pub fn new(mem_words: usize) -> Self {
        Cpu {
            regs: [0; 32],
            mem: vec![0; mem_words],
            pc: 0,
        }
    }

    /// Register value (`r0` always reads 0).
    #[must_use]
    pub fn reg(&self, r: Reg) -> i64 {
        if r == 0 {
            0
        } else {
            self.regs[usize::from(r)]
        }
    }

    /// Sets a register (writes to `r0` are ignored).
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        if r != 0 {
            self.regs[usize::from(r)] = v;
        }
    }

    /// Memory word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access (the simulated program has a bug).
    #[must_use]
    pub fn mem(&self, addr: usize) -> i64 {
        self.mem[addr]
    }

    /// Writes a memory word.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access.
    pub fn set_mem(&mut self, addr: usize, v: i64) {
        self.mem[addr] = v;
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Runs `program` on this core, dispatching SIs and forecasts through
    /// `manager` (as task `task`), until `Halt`, program end, or
    /// `max_instructions`.
    pub fn run(
        &mut self,
        program: &[Instr],
        manager: &mut RisppManager,
        task: TaskId,
        max_instructions: u64,
    ) -> RunSummary {
        let mut instructions = 0u64;
        let mut si_hw = 0u64;
        let mut si_sw = 0u64;
        let start_cycles = manager.now();
        let stop = loop {
            if instructions >= max_instructions {
                break StopReason::BudgetExhausted;
            }
            let Some(&instr) = program.get(self.pc) else {
                break StopReason::FellOffEnd;
            };
            instructions += 1;
            self.pc += 1;
            let cost = match instr {
                Instr::Addi { rd, rs, imm } => {
                    self.set_reg(rd, self.reg(rs).wrapping_add(imm));
                    1
                }
                Instr::Add { rd, rs, rt } => {
                    self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt)));
                    1
                }
                Instr::Sub { rd, rs, rt } => {
                    self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt)));
                    1
                }
                Instr::Mul { rd, rs, rt } => {
                    self.set_reg(rd, self.reg(rs).wrapping_mul(self.reg(rt)));
                    3
                }
                Instr::Lw { rd, rs, offset } => {
                    let addr = (self.reg(rs) + offset) as usize;
                    self.set_reg(rd, self.mem(addr));
                    2
                }
                Instr::Sw { rt, rs, offset } => {
                    let addr = (self.reg(rs) + offset) as usize;
                    self.set_mem(addr, self.reg(rt));
                    2
                }
                Instr::Beq { rs, rt, target } => {
                    if self.reg(rs) == self.reg(rt) {
                        self.pc = target;
                        2
                    } else {
                        1
                    }
                }
                Instr::Bne { rs, rt, target } => {
                    if self.reg(rs) != self.reg(rt) {
                        self.pc = target;
                        2
                    } else {
                        1
                    }
                }
                Instr::Jmp { target } => {
                    self.pc = target;
                    2
                }
                Instr::ExecSi { si } => {
                    let rec = manager.execute_si(task, si);
                    if rec.hardware {
                        si_hw += 1;
                    } else {
                        si_sw += 1;
                    }
                    rec.cycles
                }
                Instr::Forecast {
                    si,
                    probability_milli,
                    distance,
                    executions,
                } => {
                    manager.forecast(
                        task,
                        ForecastValue::new(
                            si,
                            f64::from(probability_milli) / 1000.0,
                            distance as f64,
                            f64::from(executions),
                        ),
                    );
                    1
                }
                Instr::Retract { si } => {
                    manager.retract_forecast(task, si);
                    1
                }
                Instr::Halt => break StopReason::Halted,
            };
            let t = manager.now() + cost;
            manager
                .advance_to(t)
                .expect("cpu time advances monotonically");
        };
        RunSummary {
            stop,
            instructions,
            cycles: manager.now() - start_cycles,
            si_hw,
            si_sw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::AtomSet;
    use rispp_core::molecule::Molecule;
    use rispp_core::si::{MoleculeImpl, SiLibrary, SpecialInstruction};
    use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
    use rispp_fabric::fabric::Fabric;

    fn manager() -> (RisppManager, SiId) {
        let atoms = AtomSet::from_names(["A"]);
        let catalog = AtomCatalog::new(vec![AtomHwProfile::new("A", 100, 200, 6_920)]);
        let fabric = Fabric::new(atoms, catalog, 1);
        let mut lib = SiLibrary::new(1);
        let si = lib
            .insert(
                SpecialInstruction::new(
                    "S",
                    200,
                    vec![MoleculeImpl::new(Molecule::from_counts([1]), 10)],
                )
                .unwrap(),
            )
            .unwrap();
        (RisppManager::builder(lib, fabric).build(), si)
    }

    #[test]
    fn arithmetic_program_computes_fibonacci() {
        // r1 = fib(10) by iteration: r2 = a, r3 = b, r4 = counter.
        let program = vec![
            Instr::Addi {
                rd: 2,
                rs: 0,
                imm: 0,
            }, // a = 0
            Instr::Addi {
                rd: 3,
                rs: 0,
                imm: 1,
            }, // b = 1
            Instr::Addi {
                rd: 4,
                rs: 0,
                imm: 10,
            }, // n = 10
            // loop:
            Instr::Beq {
                rs: 4,
                rt: 0,
                target: 9,
            },
            Instr::Add {
                rd: 5,
                rs: 2,
                rt: 3,
            }, // t = a + b
            Instr::Add {
                rd: 2,
                rs: 3,
                rt: 0,
            }, // a = b
            Instr::Add {
                rd: 3,
                rs: 5,
                rt: 0,
            }, // b = t
            Instr::Addi {
                rd: 4,
                rs: 4,
                imm: -1,
            },
            Instr::Jmp { target: 3 },
            Instr::Halt,
        ];
        let (mut mgr, _) = manager();
        let mut cpu = Cpu::new(0);
        let summary = cpu.run(&program, &mut mgr, 0, 10_000);
        assert_eq!(summary.stop, StopReason::Halted);
        assert_eq!(cpu.reg(2), 55); // fib(10)
    }

    #[test]
    fn memory_program_sums_an_array() {
        let (mut mgr, _) = manager();
        let mut cpu = Cpu::new(16);
        for i in 0..8 {
            cpu.set_mem(i, (i as i64) + 1); // 1..=8
        }
        let program = vec![
            Instr::Addi {
                rd: 1,
                rs: 0,
                imm: 0,
            }, // idx
            Instr::Addi {
                rd: 2,
                rs: 0,
                imm: 0,
            }, // sum
            Instr::Addi {
                rd: 3,
                rs: 0,
                imm: 8,
            }, // len
            Instr::Beq {
                rs: 1,
                rt: 3,
                target: 8,
            },
            Instr::Lw {
                rd: 4,
                rs: 1,
                offset: 0,
            },
            Instr::Add {
                rd: 2,
                rs: 2,
                rt: 4,
            },
            Instr::Addi {
                rd: 1,
                rs: 1,
                imm: 1,
            },
            Instr::Jmp { target: 3 },
            Instr::Halt,
        ];
        let summary = cpu.run(&program, &mut mgr, 0, 10_000);
        assert_eq!(summary.stop, StopReason::Halted);
        assert_eq!(cpu.reg(2), 36);
    }

    #[test]
    fn register_zero_is_hardwired() {
        let (mut mgr, _) = manager();
        let mut cpu = Cpu::new(0);
        let program = vec![
            Instr::Addi {
                rd: 0,
                rs: 0,
                imm: 42,
            },
            Instr::Halt,
        ];
        cpu.run(&program, &mut mgr, 0, 10);
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn cycle_model_charges_per_class() {
        let (mut mgr, _) = manager();
        let mut cpu = Cpu::new(4);
        let program = vec![
            Instr::Addi {
                rd: 1,
                rs: 0,
                imm: 1,
            }, // 1
            Instr::Mul {
                rd: 2,
                rs: 1,
                rt: 1,
            }, // 3
            Instr::Sw {
                rt: 1,
                rs: 0,
                offset: 0,
            }, // 2
            Instr::Lw {
                rd: 3,
                rs: 0,
                offset: 0,
            }, // 2
            Instr::Jmp { target: 5 }, // 2
            Instr::Halt,
        ];
        let summary = cpu.run(&program, &mut mgr, 0, 10);
        assert_eq!(summary.cycles, 10);
        assert_eq!(summary.instructions, 6);
    }

    #[test]
    fn si_loop_upgrades_from_software_to_hardware() {
        // The compile-time layout: a forecast instruction, then a hot loop
        // executing the SI with 200 iterations.
        let (mut mgr, si) = manager();
        let mut cpu = Cpu::new(0);
        let program = vec![
            Instr::Forecast {
                si,
                probability_milli: 1_000,
                distance: 10_000,
                executions: 200,
            },
            Instr::Addi {
                rd: 1,
                rs: 0,
                imm: 200,
            },
            // loop:
            Instr::Beq {
                rs: 1,
                rt: 0,
                target: 6,
            },
            Instr::ExecSi { si },
            Instr::Addi {
                rd: 1,
                rs: 1,
                imm: -1,
            },
            Instr::Jmp { target: 2 },
            Instr::Halt,
        ];
        let summary = cpu.run(&program, &mut mgr, 0, 10_000);
        assert_eq!(summary.stop, StopReason::Halted);
        assert_eq!(summary.si_hw + summary.si_sw, 200);
        // Rotation takes 10k cycles ≈ 49 software executions (200 cycles
        // each, plus loop overhead): both phases must be present.
        assert!(summary.si_sw > 0, "no SW phase");
        assert!(summary.si_hw > summary.si_sw, "HW phase too short");
    }

    #[test]
    fn budget_stops_runaway_programs() {
        let (mut mgr, _) = manager();
        let mut cpu = Cpu::new(0);
        let program = vec![Instr::Jmp { target: 0 }];
        let summary = cpu.run(&program, &mut mgr, 0, 100);
        assert_eq!(summary.stop, StopReason::BudgetExhausted);
        assert_eq!(summary.instructions, 100);
    }

    #[test]
    fn falling_off_the_end_is_reported() {
        let (mut mgr, _) = manager();
        let mut cpu = Cpu::new(0);
        let program = vec![Instr::Addi {
            rd: 1,
            rs: 0,
            imm: 1,
        }];
        let summary = cpu.run(&program, &mut mgr, 0, 10);
        assert_eq!(summary.stop, StopReason::FellOffEnd);
    }
}
