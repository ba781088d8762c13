//! Program the RISPP core directly in assembly: the FC instruction and
//! the SI opcode are part of the ISA, exactly as the compile-time flow
//! would emit them into the application binary.
//!
//! Run with: `cargo run -p rispp --example dlx_assembly`

use std::cell::RefCell;
use std::rc::Rc;

use rispp::h264::si_library::build_library;
use rispp::prelude::*;
use rispp::sim::asm::assemble;
use rispp::sim::cpu::Cpu;
use rispp::sim::h264_fabric;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // SI opcode 0 is SATD_4x4 in the H.264 library.
    let source = "
        ; --- RISPP assembly: forecast, then a SATD hot loop ---
                forecast 0, 1000, 400000, 700   ; FC: SATD_4x4, p=1.0
                addi  r1, r0, 700               ; loop counter
                addi  r2, r0, 0                 ; HW-execution counter
        loop:   beq   r1, r0, done
                execsi 0                        ; SATD_4x4
                addi  r1, r1, -1
                addi  r3, r0, 120               ; inner delay ~480 cycles
        delay:  beq   r3, r0, next
                addi  r3, r3, -1
                jmp   delay
        next:   jmp   loop
        done:   retract 0
                halt
    ";
    let program = assemble(source)?;
    println!("assembled {} instructions\n", program.len());

    let (library, sis) = build_library();
    let counters = Rc::new(RefCell::new(CountersSink::new()));
    let mut manager = RisppManager::builder(library, h264_fabric(6))
        .sink(SinkHandle::shared(counters.clone()))
        .build();
    let mut cpu = Cpu::new(0);
    let summary = cpu.run(&program, &mut manager, 0, 1_000_000);

    println!("stop reason      : {:?}", summary.stop);
    println!("instructions     : {}", summary.instructions);
    println!("cycles           : {}", summary.cycles);
    println!(
        "SI executions    : {} hardware + {} software",
        summary.si_hw, summary.si_sw
    );
    let stats = counters.borrow().si(sis.satd_4x4);
    println!(
        "SATD cycle split : {} SW cycles vs {} HW cycles",
        stats.sw_cycles(),
        stats.hw_cycles
    );
    println!(
        "rotations        : {} requested, {} bytes of bitstreams",
        manager.rotations_requested(),
        manager.rotation_bytes()
    );
    println!(
        "\nThe forecast instruction at the top started rotations ~{} cycles\n\
         before the loop needed them; once the minimal Molecule landed the\n\
         remaining iterations ran at 24 cycles instead of 544.",
        manager
            .fabric()
            .catalog()
            .rotation_cycles(rispp::core::atom::AtomKind(0), manager.fabric().clock())
    );
    Ok(())
}
