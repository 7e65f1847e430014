//! Regression gates against pre-refactor fixtures: the prefetcher-trait
//! seam must not move a single figure byte, schema-v1 report documents
//! must keep parsing, and packing `Instruction` into 24 bytes must not
//! move the `SWIP` trace bytes or the trace-cache keys.
//!
//! `tests/fixtures/` was captured from the tree immediately before the
//! `InstructionPrefetcher` extraction, at `--instructions 20000 --stride
//! 48 --threads 2` (one workload, `public_srv_60`). The codec and cache
//! digests below were taken from the tree before the packing, and the
//! AsmDB pins from the tree before its analysis moved to flat
//! integer-keyed tables. `secret_crypto52`'s pins, whose plan is empty,
//! come from the tree whose rewrite still copied every record of such a
//! trace instead of sharing them.

use swip_asmdb::Cfg;
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

/// One trace's AsmDB output under the default tuning: the plan's size,
/// the rewritten trace's `SWIP` encoding (length and FNV-1a digest), and
/// the CFG's blocks and edges (the summed `succs` lengths).
struct AsmdbPin {
    workload: &'static str,
    insertions: usize,
    targeted_lines: usize,
    uncovered_lines: usize,
    inserted_dynamic: u64,
    rewritten: (usize, &'static str),
    blocks: usize,
    edges: usize,
}

fn assert_asmdb_pins(instructions: u64, pins: &[AsmdbPin]) {
    let session = SessionBuilder::new()
        .instructions(instructions)
        .build()
        .unwrap();
    let specs = session.workloads();
    for pin in pins {
        let spec = specs
            .iter()
            .find(|s| s.name == pin.workload)
            .expect("pinned workload is in the suite");
        let out = session.asmdb(spec);
        let plan = &out.plan;
        assert_eq!(
            (
                plan.len(),
                plan.targeted_lines,
                plan.uncovered_lines,
                out.report.inserted_dynamic
            ),
            (
                pin.insertions,
                pin.targeted_lines,
                pin.uncovered_lines,
                pin.inserted_dynamic
            ),
            "{} plan (insertions, targeted, uncovered, inserted_dynamic)",
            pin.workload
        );
        assert_eq!(
            encoding(&out.rewritten),
            (pin.rewritten.0, pin.rewritten.1.to_string()),
            "{} rewritten trace",
            pin.workload
        );
        let cfg = Cfg::from_trace(&session.trace(spec));
        let edges: usize = cfg.blocks().map(|(_, b)| b.succs.len()).sum();
        assert_eq!(
            (cfg.len(), edges),
            (pin.blocks, pin.edges),
            "{} CFG (blocks, edges)",
            pin.workload
        );
    }
}

/// AsmDB's CFG, plan and rewrite keep their bytes at 100k instructions,
/// including `secret_crypto52`'s rewrite, which inserts nothing and so
/// shares the original's instructions.
#[test]
fn asmdb_output_survives_the_flat_table_analysis() {
    assert_asmdb_pins(
        100_000,
        &[
            AsmdbPin {
                workload: "secret_srv12",
                insertions: 630,
                targeted_lines: 333,
                uncovered_lines: 56,
                inserted_dynamic: 4632,
                rewritten: (1_777_628, "e9ff7a1f3f10b07d"),
                blocks: 1938,
                edges: 2228,
            },
            AsmdbPin {
                workload: "secret_srv259",
                insertions: 583,
                targeted_lines: 301,
                uncovered_lines: 26,
                inserted_dynamic: 3142,
                rewritten: (1_758_802, "fd36ea960fe053d7"),
                blocks: 3315,
                edges: 3796,
            },
            AsmdbPin {
                workload: "secret_crypto52",
                insertions: 0,
                targeted_lines: 0,
                uncovered_lines: 0,
                inserted_dynamic: 0,
                rewritten: (1_659_575, "3aaea7cdf048e4ba"),
                blocks: 225,
                edges: 321,
            },
        ],
    );
}

/// The same pins on `sweep_server`'s three traces at 1M instructions,
/// where a plan's backward walk expands about 1.5M states: an ordering
/// slip in the walk's queue that the 100k plans do not reach shows here.
/// `secret_crypto52`'s empty plan pins the rewrite that shares its
/// original at the length `sweep_compute` runs. `scripts/check.sh` runs it
/// in a release build.
#[test]
#[ignore = "1M-instruction traces; run with --release -- --ignored"]
fn asmdb_output_survives_the_flat_table_analysis_at_1m() {
    assert_asmdb_pins(
        1_000_000,
        &[
            AsmdbPin {
                workload: "public_srv_60",
                insertions: 763,
                targeted_lines: 401,
                uncovered_lines: 208,
                inserted_dynamic: 34086,
                rewritten: (17_704_102, "fdcc725f7e07ad1d"),
                blocks: 3552,
                edges: 4685,
            },
            AsmdbPin {
                workload: "secret_srv12",
                insertions: 1898,
                targeted_lines: 973,
                uncovered_lines: 217,
                inserted_dynamic: 56227,
                rewritten: (17_890_583, "c918a7f7fdaa1d1f"),
                blocks: 5072,
                edges: 6250,
            },
            AsmdbPin {
                workload: "secret_srv504",
                insertions: 914,
                targeted_lines: 475,
                uncovered_lines: 138,
                inserted_dynamic: 31948,
                rewritten: (17_787_277, "94e5b697bba5d954"),
                blocks: 5347,
                edges: 6961,
            },
            AsmdbPin {
                workload: "secret_crypto52",
                insertions: 0,
                targeted_lines: 0,
                uncovered_lines: 0,
                inserted_dynamic: 0,
                rewritten: (16_191_407, "d9ac1b4322a3f160"),
                blocks: 356,
                edges: 566,
            },
        ],
    );
}
