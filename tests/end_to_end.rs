//! End-to-end pipeline test: compile-time analysis on the AES BB graph →
//! forecast-point insertion → task-program generation → run-time execution
//! on the RISPP engine → speed-up over the pure-software baseline.

use std::cell::RefCell;
use std::rc::Rc;

use rispp::cfg::aes::{build_aes, AesSis};
use rispp::cfg::forecast_points::insert_forecast_points;
use rispp::prelude::*;
use rispp::sim::Op;

/// Two generic Atom kinds for the AES SIs.
fn aes_platform() -> (SiLibrary, Fabric) {
    let atoms = AtomSet::from_names(["SBox", "Mix"]);
    let catalog = AtomCatalog::new(vec![
        // Small Atoms: ~692 B bitstream → 10 µs → 1 000 cycles at 100 MHz.
        rispp::fabric::AtomHwProfile::new("SBox", 120, 240, 692),
        rispp::fabric::AtomHwProfile::new("Mix", 140, 280, 692),
    ]);
    let fabric = Fabric::new(atoms, catalog, 4);
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
            .expect("valid SI"),
        )
        .expect("width matches");
    }
    (lib, fabric)
}

/// Builds the run-time task program mirroring the AES CFG, with Forecast
/// ops injected at the blocks the compile-time pass selected.
fn aes_program(
    cfg: &Cfg,
    lib: &SiLibrary,
    fcs: &[ForecastPoint],
    blocks: &rispp::cfg::aes::AesBlocks,
    data_blocks: u32,
) -> Vec<Op> {
    let ops_for = |b: BlockId| -> Vec<Op> {
        let mut ops = Vec::new();
        for fc in fcs.iter().filter(|fc| fc.block == b) {
            ops.push(Op::Forecast(ForecastValue::new(
                fc.si,
                fc.probability,
                fc.distance,
                fc.expected_executions,
            )));
        }
        let blk = cfg.block(b);
        if blk.plain_cycles > 0 {
            ops.push(Op::Plain(blk.plain_cycles));
        }
        for &(si, count) in &blk.si_uses {
            for _ in 0..count {
                ops.push(Op::ExecSi(si));
            }
        }
        ops
    };
    let mut round = Vec::new();
    round.extend(ops_for(blocks.round_head));
    round.extend(ops_for(blocks.sub_shift));
    round.extend(ops_for(blocks.mix_columns));
    round.extend(ops_for(blocks.add_key));
    let mut per_block = Vec::new();
    per_block.extend(ops_for(blocks.block_loop));
    per_block.push(Op::Repeat {
        body: round,
        times: 9,
    });
    per_block.extend(ops_for(blocks.round_head));
    per_block.extend(ops_for(blocks.final_round));
    let mut program = Vec::new();
    program.extend(ops_for(blocks.entry));
    program.extend(ops_for(blocks.key_schedule));
    program.push(Op::Repeat {
        body: per_block,
        times: data_blocks,
    });
    program.extend(ops_for(blocks.output));
    let _ = lib;
    program
}

#[test]
fn aes_pipeline_beats_software_baseline() {
    let sis = AesSis::default();
    let data_blocks = 64u32;
    let (cfg, profile, blocks) = build_aes(sis, u64::from(data_blocks));
    let (lib, fabric) = aes_platform();

    // Compile-time: insert forecast points (rotation ≈ 1 000 cycles).
    let fcs = insert_forecast_points(
        &cfg,
        &profile,
        &lib,
        |_| FdfParams::new(1_000.0, 400.0, 15.0, 2_000.0, 1.0),
        4,
    );
    assert!(
        !fcs.is_empty(),
        "compile-time pass found no forecast points"
    );

    // Run-time: execute the program on the engine.
    let program = aes_program(&cfg, &lib, &fcs, &blocks, data_blocks);
    let timeline = Rc::new(RefCell::new(TimelineSink::new()));
    let manager = RisppManager::builder(lib.clone(), fabric)
        .sink(SinkHandle::shared(timeline.clone()))
        .build();
    let mut engine = Engine::new(manager);
    engine.add_task(Task::new(0, "aes", program.clone()));
    let rispp_cycles = engine.run(1_000_000);

    // Software baseline: same program, but a fabric with zero containers
    // (nothing can ever rotate in).
    let atoms = AtomSet::from_names(["SBox", "Mix"]);
    let catalog = AtomCatalog::new(vec![
        rispp::fabric::AtomHwProfile::new("SBox", 120, 240, 692),
        rispp::fabric::AtomHwProfile::new("Mix", 140, 280, 692),
    ]);
    let sw_manager = RisppManager::builder(lib.clone(), Fabric::new(atoms, catalog, 0)).build();
    let mut sw_engine = Engine::new(sw_manager);
    sw_engine.add_task(Task::new(0, "aes-sw", program));
    let sw_cycles = sw_engine.run(1_000_000);

    let speedup = sw_cycles as f64 / rispp_cycles as f64;
    assert!(
        speedup > 2.0,
        "RISPP {rispp_cycles} vs SW {sw_cycles}: speed-up {speedup:.2}"
    );

    // Most SI executions must have run in hardware.
    let sink = timeline.borrow();
    let trace = sink.timeline();
    for (si, def) in lib.iter() {
        let execs: Vec<_> = trace.executions(0, si).collect();
        if execs.is_empty() {
            continue;
        }
        let hw = execs.iter().filter(|e| e.2).count();
        assert!(
            hw * 10 >= execs.len() * 8,
            "{}: only {hw}/{} hardware executions",
            def.name(),
            execs.len()
        );
    }
}

#[test]
fn forecast_points_prefer_long_lead_blocks() {
    let sis = AesSis::default();
    let (cfg, profile, blocks) = build_aes(sis, 64);
    let (lib, _) = aes_platform();
    let fcs = insert_forecast_points(
        &cfg,
        &profile,
        &lib,
        |_| FdfParams::new(1_000.0, 400.0, 15.0, 2_000.0, 1.0),
        4,
    );
    // FCs must precede the SI usages: never on the SI blocks themselves.
    for fc in &fcs {
        assert!(!cfg.block(fc.block).uses(fc.si), "FC on an SI block");
        // And the lead time is at least one rotation.
        assert!(fc.distance >= 1_000.0, "lead {} too short", fc.distance);
    }
    // The long-running key schedule (or the entry) carries forecasts.
    assert!(fcs
        .iter()
        .any(|fc| fc.block == blocks.entry || fc.block == blocks.key_schedule));
}

#[test]
fn zero_container_fabric_never_accelerates() {
    let (lib, _) = aes_platform();
    let atoms = AtomSet::from_names(["SBox", "Mix"]);
    let catalog = AtomCatalog::new(vec![
        rispp::fabric::AtomHwProfile::new("SBox", 120, 240, 692),
        rispp::fabric::AtomHwProfile::new("Mix", 140, 280, 692),
    ]);
    let mut mgr = RisppManager::builder(lib.clone(), Fabric::new(atoms, catalog, 0)).build();
    let si = lib.ids().next().expect("library non-empty");
    mgr.forecast(0, ForecastValue::new(si, 1.0, 10_000.0, 100.0));
    assert!(mgr.all_rotations_done_at().is_none());
    let rec = mgr.execute_si(0, si);
    assert!(!rec.hardware);
}
