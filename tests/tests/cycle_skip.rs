//! `Simulator::run` jumps over the cycles in which nothing but counting
//! happens (DESIGN.md §13). This suite checks it against a reference loop
//! that calls the public `Frontend::cycle` / `Backend::dispatch` /
//! `Backend::cycle` / `Frontend::handle_resolution` on every cycle: both
//! must end on the same counters, Fig-8 means, timeline samples, line
//! profile and completion flag.

use std::collections::HashMap;
use std::sync::Arc;

use swip_bench::{ConfigId, Session, SessionBuilder};
use swip_branch::BranchStats;
use swip_cache::{CacheStats, HierarchyStats, MemoryHierarchy};
use swip_core::{Backend, BackendStats, SimConfig, SimReport, Simulator, TimelineConfig};
use swip_frontend::{
    AsmdbHintPrefetcher, EntanglingPrefetcher, Frontend, FtqStats, HintTable,
    InstructionPrefetcher, ManaPrefetcher, NextLinePrefetcher, PreloadConfig, PreloadPrefetcher,
    ShadowBtbPrefetcher, TimelineSample,
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

/// What the comparison covers: every counter block, both Fig-8 means
/// (inside `frontend`), the timeline, the line profile and completion.
#[derive(Debug)]
struct Observed {
    cycles: u64,
    instructions: u64,
    completed: bool,
    frontend: FtqStats,
    branch: BranchStats,
    l1i: CacheStats,
    l2: CacheStats,
    llc: CacheStats,
    hierarchy: HierarchyStats,
    backend: BackendStats,
    line_misses: HashMap<u64, u64>,
    timeline: Vec<TimelineSample>,
    timeline_dropped: u64,
}

/// Simulates `trace` with the same set-up as `Simulator::run`, but calls
/// every per-cycle method on every cycle.
fn every_cycle(config: &SimConfig, trace: &Trace, supplied: Option<Factory>) -> Observed {
    let mut frontend = Frontend::new(config.frontend.clone());
    match config.prefetcher {
        PrefetcherId::Fdp | PrefetcherId::Asmdb => {}
        PrefetcherId::Mana => frontend.set_prefetcher(Box::new(ManaPrefetcher::new())),
        PrefetcherId::ShadowBtb => frontend.set_prefetcher(Box::new(ShadowBtbPrefetcher::new())),
    }
    if let Some(make) = supplied {
        frontend.set_prefetcher(make());
    }
    if let Some(timeline) = config.timeline {
        frontend.enable_timeline(timeline);
    }
    let mut mem = MemoryHierarchy::new(config.memory.clone());
    if config.collect_line_profile {
        mem.enable_line_profile();
    }
    let mut backend = Backend::new(config.backend);

    let watchdog = (trace.len() as u64)
        .saturating_mul(config.max_cycles_per_instr)
        .max(100_000);
    let mut now = 0;
    let mut completed = true;
    let mut decoded = Vec::new();
    let mut resolved = Vec::new();
    while !(frontend.is_done(trace) && backend.is_empty()) {
        decoded.clear();
        frontend.cycle(now, trace, &mut mem, backend.free_slots(), &mut decoded);
        for d in &decoded {
            backend.dispatch(*d, trace.instructions()[d.seq as usize], now);
        }
        backend.cycle(now, &mut mem, &mut resolved);
        for r in &resolved {
            frontend.handle_resolution(r.seq, &trace.instructions()[r.seq as usize], r.at);
        }
        now += 1;
        if now >= watchdog {
            completed = false;
            break;
        }
    }
    let timeline = frontend.take_timeline();
    Observed {
        cycles: now.max(1),
        instructions: backend.retired(),
        completed,
        frontend: frontend.take_stats(),
        branch: *frontend.branch_unit().stats(),
        l1i: *mem.l1i_stats(),
        l2: *mem.l2_stats(),
        llc: *mem.llc_stats(),
        hierarchy: *mem.stats(),
        backend: *backend.stats(),
        line_misses: mem.line_profile(),
        timeline_dropped: timeline.as_ref().map_or(0, |t| t.dropped()),
        timeline: timeline.map_or_else(Vec::new, |t| t.into_samples()),
    }
}

/// Runs `Simulator::run` and the every-cycle reference on the same input
/// and asserts they agree field by field; returns the engine's report.
fn check(label: &str, config: &SimConfig, trace: &Trace, supplied: Option<Factory>) -> SimReport {
    let sim = Simulator::new(config.clone());
    let got = match supplied {
        None => sim.run(trace),
        Some(make) => sim.run_with_prefetcher(trace, make()),
    };
    let want = every_cycle(config, trace, supplied);
    assert_eq!(got.cycles, want.cycles, "{label}: cycles");
    assert_eq!(got.instructions, want.instructions, "{label}: instructions");
    assert_eq!(got.completed, want.completed, "{label}: completed");
    assert_eq!(got.frontend, want.frontend, "{label}: front-end counters");
    assert_eq!(got.branch, want.branch, "{label}: branch counters");
    assert_eq!(got.l1i, want.l1i, "{label}: L1-I counters");
    assert_eq!(got.l2, want.l2, "{label}: L2 counters");
    assert_eq!(got.llc, want.llc, "{label}: LLC counters");
    assert_eq!(got.hierarchy, want.hierarchy, "{label}: hierarchy counters");
    assert_eq!(got.backend, want.backend, "{label}: backend counters");
    assert_eq!(got.line_misses, want.line_misses, "{label}: line profile");
    assert_eq!(got.timeline, want.timeline, "{label}: timeline samples");
    assert_eq!(
        got.timeline_dropped, want.timeline_dropped,
        "{label}: timeline samples dropped"
    );
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
