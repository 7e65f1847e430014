//! `Simulator::run` jumps over the cycles in which nothing but counting
//! happens (DESIGN.md §13). This suite checks it against the same
//! `Machine` stepped on every cycle and never skipped: both must end on
//! the same `SimReport`, which holds every counter, both Fig-8 means, the
//! timeline samples, the line profile and the completion flag.

use std::sync::Arc;

use swip_bench::{ConfigId, Session, SessionBuilder};
use swip_core::{Machine, SimConfig, SimReport, Simulator, TimelineConfig};
use swip_frontend::{
    AsmdbHintPrefetcher, EntanglingPrefetcher, HintTable, InstructionPrefetcher,
    NextLinePrefetcher, PreloadConfig, PreloadPrefetcher,
};
use swip_trace::Trace;
use swip_types::PrefetcherId;

/// Builds the prefetcher a run supplies besides its configured one, once
/// for the engine and once for the reference loop.
type Factory<'a> = &'a dyn Fn() -> Box<dyn InstructionPrefetcher>;

fn session() -> Session {
    SessionBuilder::new()
        .instructions(50_000)
        .threads(1)
        .build()
        .unwrap()
}

fn spec(session: &Session, name: &str) -> swip_workloads::WorkloadSpec {
    session
        .workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the suite"))
}

/// Runs `Simulator::run` and the same input on a `Machine` that steps
/// every cycle, asserts that both end on the same report, and returns it.
fn check(label: &str, config: &SimConfig, trace: &Trace, supplied: Option<Factory>) -> SimReport {
    let sim = Simulator::new(config.clone());
    let got = match supplied {
        None => sim.run(trace),
        Some(make) => sim.run_with_prefetcher(trace, make()),
    };
    let mut every_cycle = Machine::new(config, trace, supplied.map(|make| make()));
    while every_cycle.running() {
        every_cycle.step();
    }
    assert_eq!(got, every_cycle.finish(), "{label}");
    got
}

/// Every configuration of the sweep on one workload, each on the input
/// the engine gives it: the original trace, the AsmDB-rewritten trace, or
/// the original with the no-overhead hint prefetcher.
fn all_configurations(name: &str) {
    let session = session();
    let spec = spec(&session, name);
    let trace = session.trace(&spec);
    let out = session.asmdb(&spec);
    let hints: Factory = &|| Box::new(AsmdbHintPrefetcher::new(Arc::clone(&out.hint_table)));
    for id in ConfigId::ALL {
        let (input, supplied): (&Trace, Option<Factory>) = match id {
            ConfigId::AsmdbCons | ConfigId::AsmdbFdp => (&out.rewritten, None),
            ConfigId::AsmdbConsNoov | ConfigId::AsmdbFdpNoov => (&trace, Some(hints)),
            _ => (&trace, None),
        };
        let mut config = id.sim_config();
        config.collect_line_profile = true;
        let label = format!("{name}/{}", id.label());
        let r = check(&label, &config, input, supplied);
        assert!(r.completed, "{label} hit the watchdog");
        // Each mechanism must reach the counters the report carries, so a
        // configuration whose prefetcher does nothing fails here.
        let prefetches = r.hierarchy.instr_prefetches.get();
        let f = &r.frontend;
        match id {
            ConfigId::Base | ConfigId::Fdp => assert_eq!(prefetches, 0, "{label}"),
            ConfigId::AsmdbCons | ConfigId::AsmdbFdp => {
                assert_eq!(f.swpf_executed.get(), prefetches, "{label}");
            }
            ConfigId::AsmdbConsNoov | ConfigId::AsmdbFdpNoov => {
                assert_eq!(f.swpf_hinted.get(), prefetches, "{label}");
            }
            ConfigId::Mana => {
                assert!(f.swpf_preloaded.get() > 0, "{label} preloaded nothing");
                assert!(f.preload_metadata_requests.get() > 0, "{label}");
            }
            ConfigId::ShadowBtb => assert!(f.swpf_hinted.get() > 0, "{label} hinted nothing"),
        }
        if id.prefetcher() == PrefetcherId::Asmdb {
            assert_eq!(
                prefetches > 0,
                !out.plan.is_empty(),
                "{label}: {} planned insertions, {prefetches} prefetches",
                out.plan.len()
            );
        }
    }
}

#[test]
fn every_configuration_on_secret_srv12() {
    all_configurations("secret_srv12");
}

#[test]
fn every_configuration_on_secret_srv259() {
    all_configurations("secret_srv259");
}

#[test]
fn every_configuration_on_secret_crypto52() {
    all_configurations("secret_crypto52");
}

#[test]
fn a_preload_table_run() {
    let session = session();
    let spec = spec(&session, "secret_srv12");
    let trace = session.trace(&spec);
    let metadata = session.asmdb(&spec).plan.to_preload_metadata();
    assert!(!metadata.is_empty(), "the plan must preload something");
    let table = Arc::new(HintTable::from_line_map(&metadata));
    let preload: Factory = &|| {
        Box::new(PreloadPrefetcher::new(
            Arc::clone(&table),
            PreloadConfig::default(),
        ))
    };
    let r = check(
        "preload",
        &SimConfig::sunny_cove_like(),
        &trace,
        Some(preload),
    );
    assert!(r.frontend.swpf_preloaded.get() > 0, "no preload fired");
}

/// A run with `make`'s hardware prefetcher on `secret_srv12`, which must
/// issue prefetches: the trace holds no prefetch instructions, so every
/// prefetch is the mechanism's.
fn hardware_prefetcher_run(label: &str, make: Factory) {
    let session = session();
    let trace = session.trace(&spec(&session, "secret_srv12"));
    let r = check(label, &SimConfig::sunny_cove_like(), &trace, Some(make));
    assert!(
        r.hierarchy.instr_prefetches.get() > 0,
        "{label} issued no prefetch"
    );
}

#[test]
fn a_next_line_run() {
    hardware_prefetcher_run("next_line", &|| Box::new(NextLinePrefetcher));
}

#[test]
fn an_entangling_run() {
    hardware_prefetcher_run("entangling", &|| Box::new(EntanglingPrefetcher::new()));
}

#[test]
fn a_timeline_that_evicts_samples() {
    let session = session();
    let trace = session.trace(&spec(&session, "secret_srv12"));
    for mut config in [SimConfig::sunny_cove_like(), SimConfig::conservative()] {
        config.timeline = Some(TimelineConfig {
            stride: 7,
            capacity: 1000,
        });
        let r = check("timeline", &config, &trace, None);
        assert!(r.timeline_dropped > 0, "the capacity must evict");
    }
}

#[test]
fn a_run_cut_short_by_the_watchdog() {
    let session = session();
    let trace = session.trace(&spec(&session, "secret_srv12"));
    let mut config = SimConfig::sunny_cove_like();
    // The watchdog then fires at its 100k-cycle floor, before the run
    // drains.
    config.max_cycles_per_instr = 0;
    let r = check("watchdog", &config, &trace, None);
    assert!(!r.completed);
    assert_eq!(r.cycles, 100_000);
}

/// The line profile and the timeline only observe a run: with both on, a
/// run ends on the plain run's report apart from what they recorded.
#[test]
fn observers_do_not_change_a_run() {
    let session = session();
    let trace = session.trace(&spec(&session, "secret_srv12"));
    for plain in [SimConfig::conservative(), SimConfig::sunny_cove_like()] {
        let mut config = plain.clone();
        config.collect_line_profile = true;
        config.timeline = Some(TimelineConfig::default());
        let mut observed = Simulator::new(config).run(&trace);
        assert!(!observed.line_misses.is_empty(), "no line misses profiled");
        assert!(!observed.timeline.is_empty(), "no timeline samples");
        observed.line_misses.clear();
        observed.timeline.clear();
        observed.timeline_dropped = 0;
        assert_eq!(observed, Simulator::new(plain).run(&trace));
    }
}
