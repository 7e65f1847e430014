//! The full AsmDB pipeline on one CVP-1-like workload: profile → CFG →
//! target selection → insertion planning → trace rewriting → evaluation in
//! the five Figure-1 configurations.
//!
//! ```sh
//! cargo run -p swip-asmdb --example asmdb_pipeline --release
//! ```

use swip_asmdb::{Asmdb, AsmdbConfig};
use swip_core::{SimConfig, Simulator};
use swip_workloads::{cvp1_suite, generate};

fn main() {
    let spec = &cvp1_suite(200_000)[20]; // secret_srv21
    let trace = generate(spec);
    println!("workload {}: {}", spec.name, trace.summary());

    let conservative = SimConfig::conservative();
    let industry = SimConfig::sunny_cove_like();

    // Profile + analyze + rewrite.
    let asmdb = Asmdb::new(AsmdbConfig::default());
    let out = asmdb.run(&trace, &conservative);
    println!(
        "\nAsmDB: {} miss lines profiled, {} targeted ({} uncovered), \
         {} insertions, min distance {} instructions",
        out.profile.line_misses.len(),
        out.plan.targeted_lines,
        out.plan.uncovered_lines,
        out.plan.len(),
        out.min_distance
    );
    println!(
        "code bloat: static {:.2}%, dynamic {:.2}% ({} prefetch.i executions)",
        out.report.static_bloat * 100.0,
        out.report.dynamic_bloat * 100.0,
        out.report.inserted_dynamic
    );

    // Evaluate all five Figure-1 configurations.
    let base = Simulator::new(conservative.clone()).run(&trace);
    let rows = [
        (
            "AsmDB (conservative)",
            Simulator::new(conservative.clone()).run(&out.rewritten),
        ),
        (
            "AsmDB no-overhead (conservative)",
            Simulator::new(conservative).run_with_hint_table(&trace, out.hint_table.clone()),
        ),
        (
            "FDP 24-entry FTQ",
            Simulator::new(industry.clone()).run(&trace),
        ),
        (
            "AsmDB + FDP",
            Simulator::new(industry.clone()).run(&out.rewritten),
        ),
        (
            "AsmDB + FDP no-overhead",
            Simulator::new(industry).run_with_hint_table(&trace, out.hint_table.clone()),
        ),
    ];
    println!(
        "\nbaseline (2-entry FTQ): IPC {:.3}, MPKI {:.1}",
        base.effective_ipc, base.l1i_mpki
    );
    for (name, r) in rows {
        println!(
            "{name:<34} IPC {:.3}  speedup {:.3}x  MPKI {:.1}",
            r.effective_ipc,
            r.speedup_over(&base),
            r.l1i_mpki
        );
    }
}
