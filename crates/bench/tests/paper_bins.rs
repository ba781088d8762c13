//! Golden stdout of every deterministic paper binary: the figure, table,
//! sweep and ablation harnesses, `synthesis_report`, `live_codec` and
//! `stress_random`. Each is run once with no arguments and must print
//! exactly the bytes committed under `tests/golden/bins/<name>.txt`, so
//! a change that is meant to keep every decision and every count also
//! keeps every printed figure. `stress_random` runs its invariant
//! auditor, so its golden also pins that the auditor passes.
//!
//! Re-bless after a deliberate change to what a binary prints:
//!
//! ```text
//! RISPP_BLESS=1 cargo test -p rispp-bench --test paper_bins
//! ```

use std::process::Command;

fn check_stdout(name: &str, exe: &str) {
    let out = Command::new(exe).output().expect("spawn paper binary");
    assert!(
        out.status.success(),
        "{name} exited with {}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!(
        "{}/tests/golden/bins/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("RISPP_BLESS").is_some() {
        std::fs::write(&path, &out.stdout).expect("bless golden stdout");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden stdout missing; create it with RISPP_BLESS=1");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "{name} stdout drifted from {path}; if the change is intentional, \
         re-bless with RISPP_BLESS=1"
    );
}

macro_rules! paper_bins {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check_stdout(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
            }
        )*
    };
}

paper_bins!(
    ablation_rotation,
    ablation_selection,
    ablation_trimming,
    fig01_area,
    fig01_performance,
    fig02_sharing,
    fig03_aes_cfg,
    fig04_fdf,
    fig06_scenario,
    fig11_si_exec,
    fig12_encoder,
    fig13_pareto,
    sweep_containers,
    sweep_qp,
    sweep_rotation_rate,
    synthesis_report,
    tab01_atoms,
    tab02_molecules,
    live_codec,
    stress_random,
);
