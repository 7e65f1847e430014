//! End-to-end integration tests spanning every crate: workload generation →
//! simulation → AsmDB pipeline → re-simulation.

use swip_asmdb::{Asmdb, AsmdbConfig};
use swip_bench::SessionBuilder;
use swip_core::{SimConfig, Simulator};
use swip_trace::Trace;
use swip_workloads::{cvp1_suite, generate, Family};

const INSTRS: u64 = 60_000;

fn suite() -> Vec<swip_workloads::WorkloadSpec> {
    cvp1_suite(INSTRS)
}

fn asmdb() -> Asmdb {
    Asmdb::new(AsmdbConfig {
        min_misses: 2,
        ..AsmdbConfig::default()
    })
}

#[test]
fn server_workload_runs_all_six_configurations() {
    let spec = &suite()[16]; // secret_srv12
    let trace = generate(spec);
    let cons = SimConfig::conservative();
    let fdp = SimConfig::sunny_cove_like();
    let out = asmdb().run(&trace, &cons);

    let base = Simulator::new(cons.clone()).run(&trace);
    let a_cons = Simulator::new(cons.clone()).run(&out.rewritten);
    let a_cons_noov = Simulator::new(cons).run_with_hint_table(&trace, out.hint_table.clone());
    let fdp24 = Simulator::new(fdp.clone()).run(&trace);
    let a_fdp = Simulator::new(fdp.clone()).run(&out.rewritten);
    let a_fdp_noov = Simulator::new(fdp).run_with_hint_table(&trace, out.hint_table.clone());

    for r in [&base, &a_cons, &a_cons_noov, &fdp24, &a_fdp, &a_fdp_noov] {
        assert!(r.completed, "{} did not complete", r.workload);
        assert!(r.effective_ipc > 0.0);
    }
    // The paper's headline orderings.
    assert!(
        fdp24.effective_ipc > base.effective_ipc,
        "aggressive FDP must beat the conservative front-end"
    );
    assert!(
        a_fdp_noov.effective_ipc >= a_fdp.effective_ipc,
        "removing insertion overhead can only help"
    );
    assert!(
        a_cons_noov.effective_ipc >= a_cons.effective_ipc * 0.99,
        "no-overhead AsmDB should not be slower than AsmDB with overhead"
    );
}

#[test]
fn family_mpki_ordering_holds() {
    let specs = suite();
    let sim = Simulator::new(SimConfig::sunny_cove_like());
    let srv = sim.run(&generate(&specs[16]));
    let crypto = sim.run(&generate(&specs[1]));
    assert!(
        srv.l1i_mpki > crypto.l1i_mpki,
        "server ({:.1}) must out-miss crypto ({:.1})",
        srv.l1i_mpki,
        crypto.l1i_mpki
    );
    assert!(
        crypto.l1i_mpki < 15.0,
        "crypto MPKI too high: {:.1}",
        crypto.l1i_mpki
    );
    assert!(
        srv.l1i_mpki > 5.0,
        "server MPKI too low: {:.1}",
        srv.l1i_mpki
    );
}

#[test]
fn simulation_is_deterministic() {
    let spec = &suite()[5];
    let trace = generate(spec);
    let a = Simulator::new(SimConfig::sunny_cove_like()).run(&trace);
    let b = Simulator::new(SimConfig::sunny_cove_like()).run(&trace);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.l1i.demand.misses(), b.l1i.demand.misses());
}

#[test]
fn rewritten_traces_simulate_identical_useful_work() {
    let spec = &suite()[20];
    let trace = generate(spec);
    let cons = SimConfig::conservative();
    let out = asmdb().run(&trace, &cons);
    let r = Simulator::new(cons).run(&out.rewritten);
    assert!(r.completed);
    assert_eq!(
        r.useful_instructions(),
        trace.len() as u64,
        "prefetch-stripped instruction count must match the original trace"
    );
}

#[test]
fn trace_round_trips_through_disk() {
    let spec = &suite()[0];
    let trace = generate(spec);
    let path = std::env::temp_dir().join("swip_fe_roundtrip.swip");
    let file = std::fs::File::create(&path).unwrap();
    trace.write_to(file).unwrap();
    let back = Trace::read_from(std::fs::File::open(&path).unwrap()).unwrap();
    assert_eq!(back, trace);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deeper_ftq_never_hurts_on_the_suite_sample() {
    for idx in [4usize, 16, 30] {
        let spec = &suite()[idx];
        let trace = generate(spec);
        let shallow = Simulator::new(SimConfig::conservative()).run(&trace);
        let deep = Simulator::new(SimConfig::sunny_cove_like()).run(&trace);
        assert!(
            deep.effective_ipc >= shallow.effective_ipc * 0.98,
            "{}: deep {:.3} vs shallow {:.3}",
            spec.name,
            deep.effective_ipc,
            shallow.effective_ipc
        );
    }
}

#[test]
fn scenario_cycle_accounting_is_exhaustive_on_real_workloads() {
    let spec = &suite()[10];
    let trace = generate(spec);
    for cfg in [SimConfig::conservative(), SimConfig::sunny_cove_like()] {
        let r = Simulator::new(cfg).run(&trace);
        let f = &r.frontend;
        assert_eq!(
            f.cycles.get(),
            f.s1_cycles.get() + f.s2_cycles.get() + f.s3_cycles.get() + f.empty_cycles.get(),
            "taxonomy must classify every cycle"
        );
        assert_eq!(
            f.head_stall_cycles.get(),
            f.s2_cycles.get() + f.s3_cycles.get(),
            "head stalls are exactly the scenario-2 and scenario-3 cycles"
        );
    }
}

#[test]
fn paper_consistency_deeper_ftq_issues_fewer_line_requests() {
    // §V.B: "the 24-entry FDP experiences ~14% less L1-I accesses than the
    // 2-entry FDP on average" — direction must hold (magnitude varies).
    let spec = &suite()[16];
    let trace = generate(spec);
    let shallow = Simulator::new(SimConfig::conservative()).run(&trace);
    let deep = Simulator::new(SimConfig::sunny_cove_like()).run(&trace);
    assert!(
        deep.frontend.line_requests.get() < shallow.frontend.line_requests.get(),
        "deep {} vs shallow {}",
        deep.frontend.line_requests.get(),
        shallow.frontend.line_requests.get()
    );
    assert!(deep.frontend.alias_fraction() > shallow.frontend.alias_fraction());
}

#[test]
fn family_composition_of_the_suite() {
    let specs = suite();
    assert_eq!(specs.len(), 48);
    let srv = specs.iter().filter(|s| s.family == Family::Server).count();
    assert_eq!(srv, 33);
}

#[test]
fn asmdb_plans_and_rewrites_do_not_depend_on_hash_order() {
    // Every profile's line-miss map gets fresh hash keys, so three runs in
    // one process see three different iteration orders of it. AsmDB's own
    // tables are seedless; fixture_golden.rs pins what they produce.
    let trace = generate(&cvp1_suite(50_000)[16]); // secret_srv12
    let runs: Vec<_> = (0..3)
        .map(|_| Asmdb::new(AsmdbConfig::default()).run(&trace, &SimConfig::conservative()))
        .collect();
    assert!(runs[0].plan.len() > 100, "too few insertions for ties");
    for r in &runs[1..] {
        assert_eq!(r.plan.insertions, runs[0].plan.insertions);
        assert_eq!(r.rewritten, runs[0].rewritten);
    }
}

#[test]
fn a_rewrite_that_inserts_nothing_shares_the_session_trace() {
    // `secret_crypto52`'s plan is empty at 50k, 100k and 1M instructions,
    // so its rewrite is the original under another name.
    let session = SessionBuilder::new().instructions(50_000).build().unwrap();
    let spec = session
        .workloads()
        .into_iter()
        .find(|s| s.name == "secret_crypto52")
        .unwrap();
    let (trace, out) = (session.trace(&spec), session.asmdb(&spec));
    assert!(
        out.plan.is_empty(),
        "secret_crypto52's plan gained insertions"
    );
    assert_eq!(
        out.rewritten.instructions().as_ptr(),
        trace.instructions().as_ptr()
    );
    assert_eq!(out.rewritten.name(), "secret_crypto52+asmdb");
}
