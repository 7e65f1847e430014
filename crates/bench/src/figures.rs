//! The experiment registry behind `swip bench --figure NAME`: one
//! [`FIGURES`] table of named runners, and the row builders and TSV
//! writers they share, so every caller produces byte-identical TSVs.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use swip_asmdb::{Asmdb, AsmdbConfig, RewriteReport};
use swip_branch::{DirectionKind, HistoryMode};
use swip_core::{SimConfig, SimReport, Simulator};
use swip_frontend::{
    EntanglingPrefetcher, HintTable, NextLinePrefetcher, PreloadConfig, PreloadPrefetcher,
};
use swip_trace::Trace;
use swip_types::{geomean, PrefetcherId};
use swip_workloads::WorkloadSpec;

use crate::{emit_tsv, BenchError, ConfigId, ExperimentPlan, Session, WorkloadResults};

/// Runs one experiment on a session and returns the files it wrote.
pub type Runner = fn(&Session) -> Result<Vec<PathBuf>, BenchError>;

/// Every experiment `swip bench --figure NAME` can launch, by name: the
/// paper's figures (`all` runs the single-sweep ones together), the
/// prefetcher zoo, and the ablations and §VI extensions.
pub const FIGURES: &[(&str, Runner)] = &[
    ("all", emit_all),
    ("table1", |_| Ok(vec![emit_table1()?])),
    ("fig1", |s| figure(s, &ConfigId::PAPER, emit_fig1)),
    ("fig7", |s| Ok(vec![emit_fig7(&bloat_sweep(s)?)?])),
    ("fig8", |s| figure(s, &FIG8_CONFIGS, emit_fig8)),
    ("fig9", |s| figure(s, &ConfigId::PAPER, emit_fig9)),
    ("fig10", |s| figure(s, &ConfigId::PAPER, emit_fig10)),
    ("fig11", |s| figure(s, &ConfigId::PAPER, emit_fig11)),
    ("scenarios", |s| {
        figure(s, &SCENARIO_CONFIGS, emit_scenarios)
    }),
    ("prefetchers", |s| {
        run_prefetcher_sweep(s, &PrefetcherId::ALL)
    }),
    ("ablation_ftq", ablation_ftq),
    ("ablation_frontend", ablation_frontend),
    ("ablation_fanout", ablation_fanout),
    ("extension_hw_prefetch", extension_hw_prefetch),
    ("extension_preload", extension_preload),
    ("feedback", feedback),
];

/// Runs and emits the experiment [`FIGURES`] registers under `name`. This
/// is the entry point behind `swip bench --figure NAME`.
///
/// # Errors
///
/// [`BenchError::UnknownFigure`] when `name` is not registered, or any
/// error the experiment itself returns.
pub fn run_figure(session: &Session, name: &str) -> Result<Vec<PathBuf>, BenchError> {
    let (_, run) = FIGURES
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| BenchError::UnknownFigure(name.to_string()))?;
    run(session)
}

/// Runs `configs` on every workload of the session and emits one figure
/// from the results.
fn figure(
    session: &Session,
    configs: &[ConfigId],
    emit: fn(&[WorkloadResults]) -> io::Result<PathBuf>,
) -> Result<Vec<PathBuf>, BenchError> {
    let plan = ExperimentPlan::new(session.workloads(), configs);
    Ok(vec![emit(&session.run(&plan)?)?])
}

/// The configurations Figure 8 needs (baseline front-ends only).
pub const FIG8_CONFIGS: [ConfigId; 2] = [ConfigId::Base, ConfigId::Fdp];

/// The configurations the scenario-taxonomy table needs.
pub const SCENARIO_CONFIGS: [ConfigId; 4] = [
    ConfigId::Base,
    ConfigId::AsmdbCons,
    ConfigId::Fdp,
    ConfigId::AsmdbFdp,
];

/// Formats one workload's Figure-1 row (name + five speedup columns).
pub fn fig1_row(r: &WorkloadResults) -> String {
    tsv_row(r.name(), r.fig1_series().map(|(_, v)| v))
}

/// Emits `fig1.tsv` (five speedup series + geomean) and prints the §IV
/// sanity row (average L1-I MPKI at the 24-entry FTQ) to stdout.
pub fn emit_fig1(results: &[WorkloadResults]) -> io::Result<PathBuf> {
    let mut rows: Vec<String> = results.iter().map(fig1_row).collect();
    let speedups: Vec<Vec<f64>> = results
        .iter()
        .map(|r| r.fig1_series().map(|(_, v)| v).to_vec())
        .collect();
    rows.push(tsv_row("geomean", column_geomeans(&speedups)));
    let path = emit_tsv(
        "fig1",
        "workload\tAsmDB\tAsmDB-NoOv\tFDP24\tAsmDB+FDP\tAsmDB+FDP-NoOv",
        &rows,
    )?;
    let mpki: f64 =
        results.iter().map(|r| r.fdp().l1i_mpki).sum::<f64>() / results.len().max(1) as f64;
    println!("# avg L1-I MPKI at 24-entry FTQ: {mpki:.2} (paper: 25.5)");
    Ok(path)
}

/// Formats one workload's Figure-7 (bloat) row.
pub fn fig7_row(name: &str, bloat: &RewriteReport) -> String {
    format!(
        "{}\t{:.4}\t{:.4}\t{}\t{}",
        name,
        bloat.static_bloat * 100.0,
        bloat.dynamic_bloat * 100.0,
        bloat.inserted_sites,
        bloat.inserted_dynamic
    )
}

/// Emits `fig7.tsv` (static/dynamic code bloat + suite averages).
pub fn emit_fig7(bloats: &[(String, RewriteReport)]) -> io::Result<PathBuf> {
    let mut rows = Vec::new();
    let (mut s_sum, mut d_sum) = (0.0, 0.0);
    for (name, bloat) in bloats {
        rows.push(fig7_row(name, bloat));
        s_sum += bloat.static_bloat * 100.0;
        d_sum += bloat.dynamic_bloat * 100.0;
    }
    let n = bloats.len().max(1) as f64;
    rows.push(format!("average\t{:.4}\t{:.4}\t-\t-", s_sum / n, d_sum / n));
    emit_tsv(
        "fig7",
        "workload\tstatic_bloat_pct\tdynamic_bloat_pct\tstatic_sites\tdynamic_prefetches",
        &rows,
    )
}

/// Emits `fig8.tsv` (head vs non-head fetch cycles) and prints the §V.B
/// line-request comparison to stdout.
pub fn emit_fig8(results: &[WorkloadResults]) -> io::Result<PathBuf> {
    let mut rows = Vec::new();
    let (mut acc2, mut acc24) = (0u64, 0u64);
    for r in results {
        rows.push(format!(
            "{}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            r.name(),
            r.fdp().frontend.head_fetch_cycles.mean(),
            r.fdp().frontend.nonhead_fetch_cycles.mean(),
            r.base().frontend.head_fetch_cycles.mean(),
            r.base().frontend.nonhead_fetch_cycles.mean(),
        ));
        acc24 += r.fdp().frontend.line_requests.get();
        acc2 += r.base().frontend.line_requests.get();
    }
    let path = emit_tsv(
        "fig8",
        "workload\thead_cycles_ftq24\tnonhead_cycles_ftq24\thead_cycles_ftq2\tnonhead_cycles_ftq2",
        &rows,
    )?;
    if acc2 > 0 {
        println!(
            "# L1-I line requests: FTQ24 issues {:.1}% fewer than FTQ2 (paper: ~14%)",
            (1.0 - acc24 as f64 / acc2 as f64) * 100.0
        );
    }
    Ok(path)
}

/// Emits one of the six-column counter figures (9, 10, 11).
fn emit_counter_fig(
    name: &str,
    results: &[WorkloadResults],
    get: fn(&SimReport) -> u64,
) -> io::Result<PathBuf> {
    let mut rows = Vec::new();
    for r in results {
        rows.push(format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.name(),
            get(r.base()),
            get(r.asmdb_cons()),
            get(r.asmdb_cons_noov()),
            get(r.fdp()),
            get(r.asmdb_fdp()),
            get(r.asmdb_fdp_noov()),
        ));
    }
    emit_tsv(
        name,
        "workload\tftq2_fdp\tftq2_asmdb\tftq2_asmdb_noov\tftq24_fdp\tftq24_asmdb\tftq24_asmdb_noov",
        &rows,
    )
}

/// Emits `fig9.tsv`: stall cycles incurred by the head FTQ entry.
pub fn emit_fig9(results: &[WorkloadResults]) -> io::Result<PathBuf> {
    emit_counter_fig("fig9", results, |r| r.frontend.head_stall_cycles.get())
}

/// Emits `fig10.tsv`: FTQ entries forced to wait on a stalling head.
pub fn emit_fig10(results: &[WorkloadResults]) -> io::Result<PathBuf> {
    emit_counter_fig("fig10", results, |r| {
        r.frontend.entries_waiting_on_head.get()
    })
}

/// Emits `fig11.tsv`: entries reaching the head while still fetching.
pub fn emit_fig11(results: &[WorkloadResults]) -> io::Result<PathBuf> {
    emit_counter_fig("fig11", results, |r| {
        r.frontend.partially_covered_entries.get()
    })
}

/// Emits `scenarios.tsv`: the §III per-cycle FTQ-state taxonomy.
pub fn emit_scenarios(results: &[WorkloadResults]) -> io::Result<PathBuf> {
    let mut rows = Vec::new();
    for r in results {
        for id in SCENARIO_CONFIGS {
            let (s1, s2, s3, empty) = r.report(id).frontend.scenario_fractions();
            rows.push(format!(
                "{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
                r.name(),
                id.label(),
                s1,
                s2,
                s3,
                empty
            ));
        }
    }
    emit_tsv("scenarios", "workload\tconfig\ts1\ts2\ts3\tempty", &rows)
}

/// Emits `table1.tsv`: the paper's simulation parameters.
pub fn emit_table1() -> io::Result<PathBuf> {
    let mut rows = Vec::new();
    for (k, v) in SimConfig::sunny_cove_like().table_rows() {
        rows.push(format!("{k}\t{v}"));
    }
    rows.push(format!(
        "FTQ (conservative)\t{} entries",
        SimConfig::conservative().frontend.ftq_entries
    ));
    emit_tsv("table1", "parameter\tvalue", &rows)
}

/// Emits `prefetchers.tsv`: the Fig-9-style zoo comparison — one row per
/// (workload, prefetcher), every mechanism on the industry-standard
/// 24-entry-FTQ front-end so the rows differ only in the prefetcher.
pub fn emit_prefetchers(
    results: &[WorkloadResults],
    prefetchers: &[PrefetcherId],
) -> io::Result<PathBuf> {
    let mut rows = Vec::new();
    for r in results {
        for p in prefetchers {
            let report = r.report(ConfigId::for_prefetcher(*p));
            rows.push(format!(
                "{}\t{}\t{:.4}\t{:.4}",
                r.name(),
                p.label(),
                report.ipc,
                report.l1i_mpki
            ));
        }
    }
    emit_tsv("prefetchers", "workload\tprefetcher\tipc\tl1i_mpki", &rows)
}

/// Runs the prefetcher-zoo sweep over `prefetchers` (all four when the
/// caller passes [`PrefetcherId::ALL`]) and emits `prefetchers.tsv` plus
/// the embedded run report. This is the entry point behind
/// `swip bench --prefetcher`.
pub fn run_prefetcher_sweep(
    session: &Session,
    prefetchers: &[PrefetcherId],
) -> Result<Vec<PathBuf>, BenchError> {
    let mut unique: Vec<PrefetcherId> = Vec::new();
    for p in prefetchers {
        if !unique.contains(p) {
            unique.push(*p);
        }
    }
    let prefetchers = unique.as_slice();
    let plan = ExperimentPlan::prefetcher_zoo(session.workloads(), prefetchers);
    eprintln!(
        "prefetcher zoo: {} workloads × {} mechanisms ({}) at {} instructions on {} thread(s)",
        plan.workloads().len(),
        prefetchers.len(),
        prefetchers
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(", "),
        session.instructions(),
        session.threads()
    );
    let results = session.run(&plan)?;
    Ok(vec![
        emit_prefetchers(&results, prefetchers)?,
        crate::emit_report(session, "prefetchers", &results)?,
    ])
}

/// Runs the AsmDB pipeline (memoized) over the session's workloads in
/// parallel and returns each workload's bloat accounting, without any
/// evaluation simulations — all Figure 7 needs.
pub fn bloat_sweep(session: &Session) -> Result<Vec<(String, RewriteReport)>, BenchError> {
    let specs = session.workloads();
    Ok(session.par_map(&specs, |_, spec| {
        (spec.name.clone(), session.asmdb(spec).report)
    })?)
}

/// Runs the full six-configuration plan once and emits every figure of
/// the single-sweep evaluation (`fig1`, `fig7`–`fig11`, `scenarios`),
/// streaming a per-workload summary line to stderr in suite order.
pub fn emit_all(session: &Session) -> Result<Vec<PathBuf>, BenchError> {
    let plan = ExperimentPlan::all_figures(session.workloads());
    eprintln!(
        "running {} workloads × {} simulations (+1 profile each) at {} instructions on {} thread(s)",
        plan.workloads().len(),
        plan.configs().len(),
        session.instructions(),
        session.threads()
    );
    let n = plan.workloads().len();
    let mut i = 0usize;
    let results = session.run_streaming(&plan, |r| {
        i += 1;
        eprintln!(
            "[{i}/{n}] {}  FDP24 {:.3}x  AsmDB+FDP {:.3}x",
            r.name(),
            r.fdp().speedup_over(r.base()),
            r.asmdb_fdp().speedup_over(r.base())
        );
    })?;
    let bloats: Vec<(String, RewriteReport)> = results
        .iter()
        .map(|r| (r.name().to_string(), *r.bloat()))
        .collect();
    Ok(vec![
        emit_fig1(&results)?,
        emit_fig7(&bloats)?,
        emit_fig8(&results)?,
        emit_fig9(&results)?,
        emit_fig10(&results)?,
        emit_fig11(&results)?,
        emit_scenarios(&results)?,
        crate::emit_report(session, "all", &results)?,
    ])
}

/// Joins `label` and each value at four decimals into one TSV row.
fn tsv_row(label: &str, values: impl IntoIterator<Item = f64>) -> String {
    let mut row = label.to_string();
    for v in values {
        row.push_str(&format!("\t{v:.4}"));
    }
    row
}

/// The geomean of each column of per-workload `speedups`.
fn column_geomeans(speedups: &[Vec<f64>]) -> Vec<f64> {
    let columns = speedups.first().map_or(0, Vec::len);
    (0..columns)
        .map(|c| geomean(&speedups.iter().map(|s| s[c]).collect::<Vec<_>>()))
        .collect()
}

/// Runs `runs` on every workload and emits `name.tsv`: per workload, each
/// report's speedup over the conservative baseline, then the trailing
/// cells `runs` returns (each preceded by a tab); last, a geomean row with
/// `-` under the header's columns past the speedups. Each row is echoed to
/// stderr as its workload completes.
fn emit_speedups(
    session: &Session,
    name: &str,
    header: &str,
    runs: impl Fn(&WorkloadSpec, &Trace) -> (Vec<SimReport>, String) + Sync,
) -> Result<Vec<PathBuf>, BenchError> {
    let specs = session.workloads();
    let per_workload = session.par_map(&specs, |_, spec| {
        let trace = session.trace(spec);
        let base = Simulator::new(SimConfig::conservative()).run(&trace);
        let (reports, trailing) = runs(spec, &trace);
        let speedups: Vec<f64> = reports.iter().map(|r| r.speedup_over(&base)).collect();
        let row = tsv_row(&spec.name, speedups.iter().copied()) + &trailing;
        eprintln!("{row}");
        (row, speedups)
    })?;
    let (mut rows, speedups): (Vec<String>, Vec<Vec<f64>>) = per_workload.into_iter().unzip();
    let geomeans = column_geomeans(&speedups);
    let trailing = header.split('\t').count() - 1 - geomeans.len();
    rows.push(tsv_row("geomean", geomeans) + &"\t-".repeat(trailing));
    Ok(vec![emit_tsv(name, header, &rows)?])
}

/// Ablation: FTQ depth sweep (the design axis separating the paper's
/// conservative and industry-standard front-ends).
fn ablation_ftq(session: &Session) -> Result<Vec<PathBuf>, BenchError> {
    const DEPTHS: [usize; 7] = [2, 4, 8, 12, 16, 24, 32];
    emit_speedups(
        session,
        "ablation_ftq",
        "workload\tftq2\tftq4\tftq8\tftq12\tftq16\tftq24\tftq32",
        |_, trace| {
            let runs = DEPTHS
                .iter()
                .map(|&d| {
                    Simulator::new(SimConfig::sunny_cove_like().with_ftq_entries(d)).run(trace)
                })
                .collect();
            (runs, String::new())
        },
    )
}

/// Ablation: post-fetch correction and GHR history mode, the two FDP
/// improvements the paper adopts from Ishii et al., plus the direction
/// predictor.
fn ablation_frontend(session: &Session) -> Result<Vec<PathBuf>, BenchError> {
    emit_speedups(
        session,
        "ablation_frontend",
        "workload\tpfc+taken_only\tno_pfc\tfull_history\tgshare\ttage_lite",
        |_, trace| {
            let standard = SimConfig::sunny_cove_like();
            let mut no_pfc = standard.clone();
            no_pfc.frontend.enable_pfc = false;
            let mut full = standard.clone();
            full.frontend.branch.history_mode = HistoryMode::Full;
            let mut gshare = standard.clone();
            gshare.frontend.branch.direction = DirectionKind::Gshare;
            let mut tage = standard.clone();
            tage.frontend.branch.direction = DirectionKind::TageLite;
            let runs = [standard, no_pfc, full, gshare, tage]
                .into_iter()
                .map(|cfg| Simulator::new(cfg).run(trace))
                .collect();
            (runs, String::new())
        },
    )
}

/// Ablation: AsmDB's fanout/reach threshold ("Increasing AsmDB's fanout
/// threshold decreases its accuracy but results in higher miss
/// coverage"). Each workload is profiled once and re-planned per
/// threshold.
fn ablation_fanout(session: &Session) -> Result<Vec<PathBuf>, BenchError> {
    const REACHES: [f64; 4] = [0.10, 0.30, 0.50, 0.70];
    let specs = session.workloads();
    let per_workload = session.par_map(&specs, |_, spec| {
        let trace = session.trace(spec);
        let cons = SimConfig::conservative();
        let base = Simulator::new(cons.clone()).run(&trace);
        let profile = Asmdb::new(session.asmdb_config().clone()).profile(&trace, &cons);
        let mut row = spec.name.clone();
        let mut pairs = Vec::with_capacity(REACHES.len());
        for &reach in &REACHES {
            let asmdb = Asmdb::new(AsmdbConfig {
                min_reach: reach,
                ..session.asmdb_config().clone()
            });
            let out = asmdb.run_from_profile(&trace, profile.clone(), &cons);
            let s = Simulator::new(cons.clone())
                .run(&out.rewritten)
                .speedup_over(&base);
            let bloat = out.report.dynamic_bloat * 100.0;
            pairs.push((s, bloat));
            row.push_str(&format!("\t{s:.4}\t{bloat:.2}"));
        }
        eprintln!("{row}");
        (row, pairs)
    })?;
    let (mut rows, pairs): (Vec<String>, Vec<Vec<(f64, f64)>>) = per_workload.into_iter().unzip();
    let mut geo = "geomean/avg".to_string();
    for i in 0..REACHES.len() {
        let speedups: Vec<f64> = pairs.iter().map(|p| p[i].0).collect();
        let avg_bloat = pairs.iter().map(|p| p[i].1).sum::<f64>() / pairs.len().max(1) as f64;
        geo.push_str(&format!("\t{:.4}\t{avg_bloat:.2}", geomean(&speedups)));
    }
    rows.push(geo);
    Ok(vec![emit_tsv(
        "ablation_fanout",
        "workload\tr10_speedup\tr10_bloat\tr30_speedup\tr30_bloat\tr50_speedup\tr50_bloat\tr70_speedup\tr70_bloat",
        &rows,
    )?])
}

/// Extension: hardware instruction prefetching on top of the
/// industry-standard FDP — next-line and an EIP-like entangling
/// prefetcher (the hardware comparison point referenced by the paper's
/// Fig. 1 caption) versus software prefetching (AsmDB, no-overhead).
fn extension_hw_prefetch(session: &Session) -> Result<Vec<PathBuf>, BenchError> {
    emit_speedups(
        session,
        "extension_hw_prefetch",
        "workload\tfdp\tfdp+nextline\tfdp+eip\tfdp+asmdb_noov",
        |spec, trace| {
            let fdp = Simulator::new(SimConfig::sunny_cove_like());
            let hints = session.asmdb(spec).hint_table.clone();
            let runs = vec![
                fdp.run(trace),
                fdp.run_with_prefetcher(trace, Box::new(NextLinePrefetcher)),
                fdp.run_with_prefetcher(trace, Box::new(EntanglingPrefetcher::new())),
                fdp.run_with_hint_table(trace, hints),
            ];
            (runs, String::new())
        },
    )
}

/// Extension (§VI): metadata preloading vs. instruction insertion.
///
/// The paper proposes offsetting the insertion overhead by "allocating a
/// portion of the binary to direct a hardware prefetcher", preloading
/// that metadata "into dedicated hardware structures in the LLC", and
/// checking it "on an access to the L1-I". This compares, on the
/// industry-standard FDP: baseline FDP, AsmDB with inserted `prefetch.i`
/// instructions, AsmDB as no-overhead hints (the paper's idealized upper
/// bound), and AsmDB as preloaded metadata (no instruction overhead, but
/// realistic trigger/metadata-latency limitations).
fn extension_preload(session: &Session) -> Result<Vec<PathBuf>, BenchError> {
    emit_speedups(
        session,
        "extension_preload",
        "workload\tfdp\tasmdb_instr\tasmdb_hints\tasmdb_preload\tpreload_prefetches",
        |spec, trace| {
            let fdp = Simulator::new(SimConfig::sunny_cove_like());
            let out = session.asmdb(spec);
            let table = Arc::new(HintTable::from_line_map(&out.plan.to_preload_metadata()));
            let preload = PreloadPrefetcher::new(table, PreloadConfig::default());
            let runs = vec![
                fdp.run(trace),
                fdp.run(&out.rewritten),
                fdp.run_with_hint_table(trace, out.hint_table.clone()),
                fdp.run_with_prefetcher(trace, Box::new(preload)),
            ];
            let preloaded = format!("\t{}", runs[3].frontend.swpf_preloaded.get());
            (runs, preloaded)
        },
    )
}

/// Extension (§VI): feedback-directed software prefetching.
///
/// The paper proposes "periodically updating an application's binary to
/// increase or decrease the number of prefetches inserted depending on
/// their performance impact". This implements that loop: starting from
/// the session's tuning, each round evaluates the rewritten trace on the
/// industry-standard FDP; if it does not beat the previous round, the
/// insertion aggressiveness is cut (higher reach threshold, fewer sites)
/// and AsmDB re-plans from the workload's one profile.
fn feedback(session: &Session) -> Result<Vec<PathBuf>, BenchError> {
    let specs = session.workloads();
    let rows = session.par_map(&specs, |_, spec| {
        let trace = session.trace(spec);
        let fdp = SimConfig::sunny_cove_like();
        let baseline = Simulator::new(fdp.clone()).run(&trace);
        let mut config = session.asmdb_config().clone();
        let profile = Asmdb::new(config.clone()).profile(&trace, &fdp);
        let mut best = baseline.effective_ipc;
        let mut best_round = 0usize;
        let mut row = tsv_row(&spec.name, [baseline.effective_ipc]);
        for round in 1..=3 {
            let out = Asmdb::new(config.clone()).run_from_profile(&trace, profile.clone(), &fdp);
            let r = Simulator::new(fdp.clone()).run(&out.rewritten);
            row.push_str(&format!("\t{:.4}", r.effective_ipc));
            if r.effective_ipc > best {
                best = r.effective_ipc;
                best_round = round;
            } else {
                // Too much overhead: back off.
                config.min_reach = (config.min_reach + 0.25).min(0.95);
                config.max_sites_per_target = config.max_sites_per_target.saturating_sub(1).max(1);
            }
        }
        row.push_str(&format!("\tround{best_round}"));
        eprintln!("{row}");
        row
    })?;
    Ok(vec![emit_tsv(
        "feedback",
        "workload\tfdp_ipc\tround1_ipc\tround2_ipc\tround3_ipc\tbest",
        &rows,
    )?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figures_are_rejected_naming_every_registered_one() {
        let session = crate::SessionBuilder::new().build().unwrap();
        let err = run_figure(&session, "fig99").unwrap_err();
        assert!(matches!(err, BenchError::UnknownFigure(ref n) if n == "fig99"));
        let message = err.to_string();
        for (name, _) in FIGURES {
            assert!(message.contains(name), "{message} does not name {name}");
        }
    }
}
