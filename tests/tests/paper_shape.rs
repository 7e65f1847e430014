//! The paper's shape claims, as recorded in EXPERIMENTS.md, checked at
//! `scripts/check.sh`'s smoke scale (100k instructions, every 16th
//! workload), where every paper configuration does work of its own. A
//! change that moves the science fails here rather than in prose. The
//! two divergences EXPERIMENTS.md records (Fig 10's depth effect, Fig
//! 11's AsmDB effect) are asserted in the direction they diverge, so a
//! change that flips either one fails too.

use std::sync::{Arc, OnceLock};

use swip_bench::{ConfigId, ExperimentPlan, Session, SessionBuilder, WorkloadResults};
use swip_core::{SimConfig, SimReport, Simulator};
use swip_frontend::{HintTable, PreloadConfig, PreloadPrefetcher};
use swip_types::geomean;

/// The sum of one counter of configuration `id` over the suite.
fn suite_sum(results: &[WorkloadResults], id: ConfigId, get: fn(&SimReport) -> u64) -> u64 {
    results.iter().map(|r| get(r.report(id))).sum()
}

/// The columns of Figs 9–11: per FTQ depth (2, then 24), FDP, AsmDB and
/// AsmDB-NoOv.
const COLUMNS: [[ConfigId; 3]; 2] = [
    [ConfigId::Base, ConfigId::AsmdbCons, ConfigId::AsmdbConsNoov],
    [ConfigId::Fdp, ConfigId::AsmdbFdp, ConfigId::AsmdbFdpNoov],
];

/// The smoke-scale session and its results for the paper's six
/// configurations, simulated once and shared by every test here.
fn smoke() -> &'static (Session, Vec<WorkloadResults>) {
    static SMOKE: OnceLock<(Session, Vec<WorkloadResults>)> = OnceLock::new();
    SMOKE.get_or_init(|| {
        let session = SessionBuilder::new()
            .instructions(100_000)
            .stride(16)
            .build()
            .unwrap();
        let plan = ExperimentPlan::new(session.workloads(), &ConfigId::PAPER);
        let results = session.run(&plan).unwrap();
        assert_eq!(results.len(), 3);
        (session, results)
    })
}

#[test]
fn fig1_ordering_and_fig8_head_latency_hold_at_smoke_scale() {
    let (_, results) = smoke();

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
    for r in results {
        let fe = &r.fdp().frontend;
        let (head, nonhead) = (fe.head_fetch_cycles.mean(), fe.nonhead_fetch_cycles.mean());
        assert!(
            head >= 2.0 * nonhead,
            "{}: FTQ24 head latency {head:.2} is under twice non-head {nonhead:.2}",
            r.name()
        );
    }
}

/// Fig 7: prefetches land in hot blocks, so dynamic bloat exceeds static
/// bloat.
#[test]
fn fig7_dynamic_bloat_exceeds_static() {
    for r in &smoke().1 {
        let b = r.bloat();
        assert!(
            b.dynamic_bloat > b.static_bloat,
            "{}: dynamic bloat {:.4} is not above static {:.4}",
            r.name(),
            b.dynamic_bloat,
            b.static_bloat
        );
    }
}

/// Figs 9–11 along both axes: FTQ depth (each column pair, per workload)
/// and AsmDB (suite sums).
#[test]
fn fig9_to_fig11_depth_and_asmdb_effects_hold() {
    let (_, results) = smoke();
    let head_stalls: fn(&SimReport) -> u64 = |r| r.frontend.head_stall_cycles.get();
    let waiting: fn(&SimReport) -> u64 = |r| r.frontend.entries_waiting_on_head.get();
    let partial: fn(&SimReport) -> u64 = |r| r.frontend.partially_covered_entries.get();
    let [ftq2, ftq24] = COLUMNS;
    for r in results {
        for (shallow, deep) in ftq2.into_iter().zip(ftq24) {
            let (name, s, d) = (r.name(), r.report(shallow), r.report(deep));
            let (s_label, d_label) = (shallow.label(), deep.label());
            // Fig 9: the deeper FTQ stalls on its head less.
            assert!(
                head_stalls(d) < head_stalls(s),
                "{name}: {d_label} head stalls {} are not below {s_label}'s {}",
                head_stalls(d),
                head_stalls(s)
            );
            // Fig 10, recorded divergence: the 2-entry FTQ has fewer
            // waiting entries, where the paper has more.
            assert!(
                waiting(s) < waiting(d),
                "{name}: {s_label} waiting entries {} are not below {d_label}'s {}",
                waiting(s),
                waiting(d)
            );
            // Fig 11: the 2-entry FTQ has at least twice the partial
            // stalls.
            assert!(
                partial(s) >= 2 * partial(d),
                "{name}: {s_label} partial stalls {} are under twice {d_label}'s {}",
                partial(s),
                partial(d)
            );
        }
    }
    for [fdp, asmdb, noov] in COLUMNS {
        // Fig 9: suite head stalls fall with AsmDB, and again with NoOv.
        let stalls = [fdp, asmdb, noov].map(|id| suite_sum(results, id, head_stalls));
        assert!(
            stalls[0] > stalls[1] && stalls[1] > stalls[2],
            "suite head stalls {stalls:?} of {}/{}/{} do not fall",
            fdp.label(),
            asmdb.label(),
            noov.label()
        );
        // Fig 10: suite waiting entries rise with AsmDB. Fig 11, recorded
        // divergence: so do suite partial stalls, where the paper's fall.
        for (what, get) in [("waiting entries", waiting), ("partial stalls", partial)] {
            let (before, after) = (suite_sum(results, fdp, get), suite_sum(results, asmdb, get));
            assert!(
                after > before,
                "suite {what} do not rise from {} {before} to {} {after}",
                fdp.label(),
                asmdb.label()
            );
        }
    }
}

/// Scenarios: the deeper FTQ spends more of its cycles in Scenario 1, and
/// AsmDB raises the 24-entry FTQ's Scenario 1 share further.
#[test]
fn scenario_1_share_grows_with_depth_and_with_asmdb() {
    for r in &smoke().1 {
        let s1 = |id: ConfigId| r.report(id).frontend.scenario_fractions().0;
        let (base, fdp, asmdb_fdp) = (
            s1(ConfigId::Base),
            s1(ConfigId::Fdp),
            s1(ConfigId::AsmdbFdp),
        );
        assert!(
            fdp > base,
            "{}: FTQ24 S1 share {fdp:.4} is not above FTQ2's {base:.4}",
            r.name()
        );
        assert!(
            asmdb_fdp > fdp,
            "{}: AsmDB+FDP S1 share {asmdb_fdp:.4} is not above FDP24's {fdp:.4}",
            r.name()
        );
    }
}

/// extension_preload: preloading AsmDB's plan as LLC-side metadata lands
/// within 0.2% of the no-overhead hints (geomean speedups over the
/// conservative baseline).
#[test]
fn preload_lands_within_0_2_percent_of_no_overhead_hints() {
    let (session, results) = smoke();
    let mut preload = Vec::new();
    let mut hints = Vec::new();
    for (spec, r) in session.workloads().iter().zip(results) {
        let table = HintTable::from_line_map(&session.asmdb(spec).plan.to_preload_metadata());
        let prefetcher = PreloadPrefetcher::new(Arc::new(table), PreloadConfig::default());
        let run = Simulator::new(SimConfig::sunny_cove_like())
            .run_with_prefetcher(&session.trace(spec), Box::new(prefetcher));
        preload.push(run.speedup_over(r.base()));
        hints.push(r.asmdb_fdp_noov().speedup_over(r.base()));
    }
    let (preload, hints) = (geomean(&preload), geomean(&hints));
    assert!(
        (preload / hints - 1.0).abs() < 0.002,
        "preload geomean {preload:.4} is not within 0.2% of the hints' {hints:.4}"
    );
}

/// ablation_ftq: the geomean speedup over the conservative baseline never
/// falls as the FTQ deepens (recorded: 1.0000, 1.1854, 1.2377, 1.2435,
/// 1.2450, 1.2453, 1.2456). Single workloads can dip (`public_srv_60`'s
/// FTQ32 1.1615 < FTQ24 1.1616), so only the geomean is asserted.
#[test]
fn ablation_ftq_geomean_never_falls_with_depth() {
    const DEPTHS: [usize; 7] = [2, 4, 8, 12, 16, 24, 32];
    let (session, results) = smoke();
    let geomeans = DEPTHS.map(|depth| {
        let config = SimConfig::sunny_cove_like().with_ftq_entries(depth);
        let speedups: Vec<f64> = session
            .workloads()
            .iter()
            .zip(results)
            .map(|(spec, r)| {
                Simulator::new(config.clone())
                    .run(&session.trace(spec))
                    .speedup_over(r.base())
            })
            .collect();
        geomean(&speedups)
    });
    for (depths, pair) in DEPTHS.windows(2).zip(geomeans.windows(2)) {
        assert!(
            pair[1] >= pair[0],
            "geomean speedup falls from FTQ{} {:.4} to FTQ{} {:.4}",
            depths[0],
            pair[0],
            depths[1],
            pair[1]
        );
    }
    // Not vacuous: depth moves the geomean.
    assert!(
        geomeans[6] > geomeans[0],
        "FTQ32 {:.4} is not above FTQ2 {:.4}",
        geomeans[6],
        geomeans[0]
    );
}
