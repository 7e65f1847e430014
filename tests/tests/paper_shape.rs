//! The paper's shape claims, as recorded in EXPERIMENTS.md, checked at
//! `scripts/check.sh`'s smoke scale (100k instructions, every 16th
//! workload), where every paper configuration does work of its own. A
//! change that moves the science fails here rather than in prose.

use swip_bench::{ConfigId, ExperimentPlan, SessionBuilder};
use swip_types::geomean;

#[test]
fn fig1_ordering_and_fig8_head_latency_hold_at_smoke_scale() {
    let session = SessionBuilder::new()
        .instructions(100_000)
        .stride(16)
        .build()
        .unwrap();
    let plan = ExperimentPlan::new(session.workloads(), &ConfigId::PAPER);
    let results = session.run(&plan).unwrap();
    assert_eq!(results.len(), 3);

    // Fig 1: geomean speedup of each series over the conservative base.
    let column = |k: usize| {
        let speedups: Vec<f64> = results.iter().map(|r| r.fig1_series()[k].1).collect();
        geomean(&speedups)
    };
    let [asmdb, asmdb_noov, fdp24, asmdb_fdp, asmdb_fdp_noov] = [0, 1, 2, 3, 4].map(column);
    assert!(
        fdp24 > asmdb && asmdb > 1.0,
        "FDP24 {fdp24:.4} > AsmDB {asmdb:.4} > 1.0 must hold"
    );
    assert!(
        asmdb_noov >= asmdb,
        "AsmDB-NoOv {asmdb_noov:.4} must not trail AsmDB {asmdb:.4}"
    );
    assert!(
        asmdb_fdp_noov >= asmdb_fdp,
        "AsmDB+FDP-NoOv {asmdb_fdp_noov:.4} must not trail AsmDB+FDP {asmdb_fdp:.4}"
    );

    // Fig 8: with a 24-entry FTQ, an entry that stalls the head waited far
    // longer for its fetch than one that completed behind it.
    for r in &results {
        let fe = &r.fdp().frontend;
        let (head, nonhead) = (fe.head_fetch_cycles.mean(), fe.nonhead_fetch_cycles.mean());
        assert!(
            head >= 2.0 * nonhead,
            "{}: FTQ24 head latency {head:.2} is under twice non-head {nonhead:.2}",
            r.name()
        );
    }
}
