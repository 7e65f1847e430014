//! Integration tests for the parallel experiment engine: determinism
//! across thread counts, memoization (in-memory and on-disk), and clean
//! failure on poisoned jobs.

use std::sync::atomic::{AtomicUsize, Ordering};

use swip_bench::{figures, ExperimentPlan, SessionBuilder};

/// The engine's thread count must not affect results: a plan run on one
/// thread and on four threads yields byte-identical figure rows in the
/// same order.
#[test]
fn results_are_deterministic_across_thread_counts() {
    let rows: Vec<Vec<String>> = [1usize, 4]
        .iter()
        .map(|&threads| {
            let session = SessionBuilder::new()
                .instructions(15_000)
                .stride(24)
                .threads(threads)
                .build()
                .unwrap();
            let plan = ExperimentPlan::all_figures(session.workloads());
            session
                .run(&plan)
                .unwrap()
                .iter()
                .map(figures::fig1_row)
                .collect()
        })
        .collect();
    assert!(!rows[0].is_empty());
    assert_eq!(rows[0], rows[1]);
}

/// Running the same plan twice on one session generates each trace and
/// AsmDB profile exactly once; the second pass is served from the memo.
/// The hit counters do not depend on how the threads interleave: they
/// equal a one-thread session's.
#[test]
fn second_run_hits_the_cache() {
    let build = |threads| {
        SessionBuilder::new()
            .instructions(10_000)
            .stride(24)
            .threads(threads)
            .build()
            .unwrap()
    };
    let session = build(2);
    let plan = ExperimentPlan::all_figures(session.workloads());
    let n = plan.workloads().len();

    session.run(&plan).unwrap();
    let first = session.counters();
    assert_eq!(first.trace_generations, n as u64);
    assert_eq!(first.asmdb_profiles, n as u64);

    session.run(&plan).unwrap();
    let second = session.counters();
    assert_eq!(second.trace_generations, n as u64, "trace regenerated");
    assert_eq!(second.asmdb_profiles, n as u64, "asmdb re-profiled");
    assert_eq!(second.sim_runs, 2 * first.sim_runs);

    let serial = build(1);
    serial.run(&plan).unwrap();
    assert_eq!(first, serial.counters());
    serial.run(&plan).unwrap();
    assert_eq!(second, serial.counters());
}

/// Two sessions sharing a cache directory: the second reads every trace
/// from disk instead of regenerating it.
#[test]
fn disk_cache_is_shared_between_sessions() {
    let dir = std::env::temp_dir().join(format!("swip-engine-cache-{}", std::process::id()));
    let build = || {
        SessionBuilder::new()
            .instructions(8_000)
            .stride(24)
            .threads(2)
            .cache_dir(&dir)
            .build()
            .unwrap()
    };

    let first = build();
    let specs = first.workloads();
    let n = specs.len();
    for spec in &specs {
        first.trace(spec);
    }
    assert_eq!(first.counters().trace_generations, n as u64);

    let second = build();
    for spec in &specs {
        second.trace(spec);
    }
    let c = second.counters();
    assert_eq!(c.trace_generations, 0, "disk cache missed");
    assert_eq!(c.trace_disk_hits, n as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicking job fails the whole session with a typed error naming the
/// job — it must not hang the pool or poison unrelated jobs' results.
#[test]
fn poisoned_job_fails_cleanly() {
    let session = SessionBuilder::new()
        .instructions(5_000)
        .stride(24)
        .threads(4)
        .build()
        .unwrap();
    let items: Vec<usize> = (0..8).collect();
    let completed = AtomicUsize::new(0);
    let err = session
        .par_map(&items, |_, &i| {
            if i == 3 {
                panic!("injected failure in job {i}");
            }
            completed.fetch_add(1, Ordering::SeqCst);
            i * 2
        })
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("injected failure"), "unhelpful error: {msg}");
}
