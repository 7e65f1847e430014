//! Regression gates against pre-refactor fixtures: the prefetcher-trait
//! seam must not move a single figure byte, schema-v1 report documents
//! must keep parsing, and packing `Instruction` into 24 bytes must not
//! move the `SWIP` trace bytes or the trace-cache keys.
//!
//! `tests/fixtures/` was captured from the tree immediately before the
//! `InstructionPrefetcher` extraction, at `--instructions 20000 --stride
//! 48 --threads 2` (one workload, `public_srv_60`). The codec and cache
//! digests below were taken from the tree before the packing.

use swip_bench::{build_run_report, figures, ConfigId, ExperimentPlan, SessionBuilder};
use swip_report::RunReport;
use swip_trace::Trace;
use swip_types::{Addr, BranchKind, Fnv1a, InstrKind, Instruction, Reg};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Re-runs the fixture sweep and rebuilds `fig1.tsv` in memory (no shared
/// experiments dir) — it must match the pre-refactor bytes exactly.
#[test]
fn fig1_bytes_survive_the_prefetcher_trait_refactor() {
    let session = SessionBuilder::new()
        .instructions(20_000)
        .stride(48)
        .threads(2)
        .build()
        .unwrap();
    let plan = ExperimentPlan::all_figures(session.workloads());
    let results = session.run(&plan).unwrap();

    let mut tsv = String::from("workload\tAsmDB\tAsmDB-NoOv\tFDP24\tAsmDB+FDP\tAsmDB+FDP-NoOv\n");
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for r in &results {
        tsv.push_str(&figures::fig1_row(r));
        tsv.push('\n');
        for (i, (_, v)) in r.fig1_series().iter().enumerate() {
            series[i].push(*v);
        }
    }
    let g: Vec<f64> = series.iter().map(|s| swip_types::geomean(s)).collect();
    tsv.push_str(&format!(
        "geomean\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\n",
        g[0], g[1], g[2], g[3], g[4]
    ));

    assert_eq!(
        tsv,
        fixture("fig1_v1.tsv"),
        "fig1 rows drifted from the pre-refactor capture"
    );
}

/// The v1 document still parses, still verifies its own fingerprint, and
/// carries the same counters and values a fresh run produces today.
#[test]
fn v1_report_fixture_parses_and_matches_a_fresh_run() {
    let text = fixture("report_v1.json");
    let v1 = RunReport::from_json_str(&text).expect("schema v1 must stay readable");
    assert_eq!(v1.version, 1);
    assert_eq!(v1.compute_fingerprint(), v1.fingerprint);

    let session = SessionBuilder::new()
        .instructions(20_000)
        .stride(48)
        .threads(2)
        .build()
        .unwrap();
    let plan = ExperimentPlan::all_figures(session.workloads());
    let results = session.run(&plan).unwrap();
    let fresh = build_run_report(&session, "all", &results);

    assert_eq!(v1.workloads.len(), fresh.workloads.len());
    for old_w in &v1.workloads {
        let new_w = fresh.workload(&old_w.name).expect("workload still present");
        assert_eq!(old_w.coverage, new_w.coverage, "{}", old_w.name);
        for id in ConfigId::PAPER {
            let old_c = old_w.config(id.label()).expect("config in fixture");
            let new_c = new_w.config(id.label()).expect("config in fresh run");
            // v1 predates the `prefetcher` key; everything measured must
            // agree to the last bit.
            assert_eq!(old_c.prefetcher, "");
            assert_eq!(
                old_c.counters,
                new_c.counters,
                "{}/{} counters drifted",
                old_w.name,
                id.label()
            );
            assert_eq!(
                old_c.values,
                new_c.values,
                "{}/{} values drifted",
                old_w.name,
                id.label()
            );
        }
    }
}

/// `every_record_shape()`'s encoding, and `public_srv_60`'s trace-cache
/// key and file at 20k instructions, as the tree before the packing wrote
/// them.
const PINNED_LEN: usize = 428;
const PINNED_DIGEST: &str = "49f45c9967c71e57";
const PINNED_KEY: &str = "0741e292d3c302ba";
const PINNED_TRACE_LEN: usize = 354_407;
const PINNED_TRACE_DIGEST: &str = "219e5d4169374af6";

/// The length and FNV-1a digest of `trace`'s `SWIP` encoding.
fn encoding(trace: &Trace) -> (usize, String) {
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).unwrap();
    let mut h = Fnv1a::new();
    h.write(&bytes);
    (bytes.len(), h.finish())
}

/// Every record shape the `SWIP` codec writes: each `InstrKind` variant,
/// the six branch kinds taken and not taken (a not-taken unconditional
/// branch is malformed, but decodes and must encode), zero to three
/// sources, a gap in the sources, with and without a destination, and a
/// non-default size.
fn every_record_shape() -> Trace {
    let r = Reg::new;
    let mut gap = Instruction::load(Addr::new(0x101a), Addr::new(0x10)).with_dst(r(9));
    gap.srcs = [None, Some(r(8)), None];
    let mut instrs = vec![
        Instruction::alu(Addr::new(0x1000)),
        Instruction::alu(Addr::new(0x1004)).with_dst(r(0)),
        Instruction::load(Addr::new(0x1008), Addr::new(0x7fff_0000_9000))
            .with_srcs(&[r(1)])
            .with_dst(r(63)),
        Instruction::store(Addr::new(0x100c), Addr::new(0x9040)).with_srcs(&[r(2), r(3)]),
        Instruction::prefetch_i(Addr::new(0x1010), Addr::new(0x2000))
            .with_srcs(&[r(4), r(5), r(6)])
            .with_dst(r(7)),
        Instruction::alu(Addr::new(0x1014)).with_size(6),
        gap,
    ];
    let kinds = [
        BranchKind::CondDirect,
        BranchKind::UncondDirect,
        BranchKind::IndirectJump,
        BranchKind::DirectCall,
        BranchKind::IndirectCall,
        BranchKind::Return,
    ];
    let mut pc = 0x2000;
    for kind in kinds {
        for taken in [false, true] {
            let target = Addr::new(pc + 0x40);
            instrs.push(
                Instruction::new(
                    Addr::new(pc),
                    InstrKind::Branch {
                        kind,
                        target,
                        taken,
                    },
                )
                .with_srcs(&[r(10)]),
            );
            pc += 4;
        }
    }
    Trace::from_instructions("codec-pin", instrs)
}

/// The on-disk bytes do not depend on the in-memory layout, and they
/// decode back to an equal trace.
#[test]
fn swip_bytes_survive_the_instruction_packing() {
    let trace = every_record_shape();
    assert_eq!(encoding(&trace), (PINNED_LEN, PINNED_DIGEST.to_string()));
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).unwrap();
    assert_eq!(Trace::read_from(bytes.as_slice()).unwrap(), trace);
}

/// A cache key and the file it names keep their bytes, so cache
/// directories written before the packing stay valid.
#[test]
fn trace_cache_keys_survive_the_instruction_packing() {
    let session = SessionBuilder::new()
        .instructions(20_000)
        .stride(48)
        .build()
        .unwrap();
    let spec = &session.workloads()[0];
    assert_eq!(spec.name, "public_srv_60");
    assert_eq!(session.trace_fingerprint(spec), PINNED_KEY);
    assert_eq!(
        encoding(&session.trace(spec)),
        (PINNED_TRACE_LEN, PINNED_TRACE_DIGEST.to_string())
    );
}
