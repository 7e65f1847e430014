//! The fetch-directed-prefetching fill/fetch/decode engine.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use swip_branch::BranchUnit;
use swip_cache::MemoryHierarchy;
use swip_trace::Trace;
use swip_types::{Cycle, InstrKind, Instruction, LineAddr, SeqNum};

use crate::entry::{FtqEntry, LineState};
use crate::hints::HintTable;
use crate::prefetch::{AsmdbHintPrefetcher, FdpPrefetcher, InstructionPrefetcher};
use crate::stats::{FtqStats, Scenario};
use crate::timeline::{ScenarioTimeline, TimelineConfig};
use crate::FrontendConfig;

/// An instruction handed from the front-end to decode/dispatch.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DecodedInstr {
    /// Trace index of the instruction.
    pub seq: SeqNum,
    /// True if the front-end mispredicted this (branch) instruction and is
    /// stalled waiting for its resolution.
    pub mispredicted: bool,
}

/// Why the fill engine is not producing new FTQ entries.
// The `Until` prefix is the point: each variant names the event that
// unblocks fill.
#[allow(clippy::enum_variant_names)]
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Blocked {
    /// A mispredicted branch must resolve at execute.
    UntilResolve { seq: SeqNum },
    /// A BTB-missed taken branch (or stale BTB hit) awaits pre-decode
    /// confirmation (post-fetch correction).
    UntilPredecode { start_seq: SeqNum },
    /// Redirect accepted; fill resumes at the given cycle.
    UntilCycle { at: Cycle },
}

/// The fetch target queue: an inspection wrapper over the entry deque.
///
/// Exposed read-only so tests and reports can examine occupancy and entry
/// state without reaching into the engine.
#[derive(Clone, Debug, Default)]
pub struct Ftq {
    entries: VecDeque<FtqEntry>,
    capacity: usize,
}

impl Ftq {
    fn new(capacity: usize) -> Self {
        Ftq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no further entries fit.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Configured depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The head entry, if any.
    pub fn head(&self) -> Option<&FtqEntry> {
        self.entries.front()
    }

    /// Iterates entries from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &FtqEntry> {
        self.entries.iter()
    }
}

/// The decoupled front-end engine.
///
/// Drive it with [`Frontend::cycle`] once per simulated cycle and feed branch
/// resolutions back through [`Frontend::handle_resolution`]. See the crate
/// docs for an end-to-end example.
pub struct Frontend {
    config: FrontendConfig,
    branch: BranchUnit,
    ftq: Ftq,
    /// Next trace index the fill engine will enqueue.
    cursor: SeqNum,
    blocked: Option<Blocked>,
    /// Lines tracked by current FTQ entries: line → (completion, refcount).
    /// New requests to a tracked line alias instead of accessing the L1-I.
    tracked_lines: HashMap<u64, (Cycle, u32)>,
    /// Count of [`LineState::Pending`] lines across the whole FTQ, so the
    /// per-cycle fetch-issue pass can skip its entry/line scan when nothing
    /// is waiting to issue (the common steady state).
    pending_lines: usize,
    /// Branches the front-end mispredicted, pending resolution.
    mispredicted: HashSet<SeqNum>,
    /// Retired entries' line lists, cleared, for the next blocks formed:
    /// the busy cycle then allocates no list once the FTQ has filled.
    spare_lines: Vec<Vec<(LineAddr, LineState)>>,
    /// The instruction-prefetch mechanism plugged in at the L1I boundary
    /// (DESIGN.md §16). Defaults to [`FdpPrefetcher`], whose hooks are
    /// no-ops — the decoupled FTQ run-ahead is the prefetcher.
    prefetcher: Box<dyn InstructionPrefetcher>,
    /// Optional strided scenario sampler (telemetry, off by default).
    timeline: Option<ScenarioTimeline>,
    stats: FtqStats,
}

impl fmt::Debug for Frontend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frontend")
            .field("cursor", &self.cursor)
            .field("ftq_len", &self.ftq.len())
            .field("blocked", &self.blocked)
            .finish_non_exhaustive()
    }
}

impl Frontend {
    /// Creates a front-end from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FrontendConfig::validate`].
    pub fn new(config: FrontendConfig) -> Self {
        config.validate();
        Frontend {
            branch: BranchUnit::new(config.branch.clone()),
            ftq: Ftq::new(config.ftq_entries),
            cursor: 0,
            blocked: None,
            tracked_lines: HashMap::new(),
            pending_lines: 0,
            mispredicted: HashSet::new(),
            // No more lists exist than the FTQ holds entries.
            spare_lines: Vec::with_capacity(config.ftq_entries),
            prefetcher: Box::new(FdpPrefetcher),
            timeline: None,
            stats: FtqStats::default(),
            config,
        }
    }

    /// Enables the cycle-sampled scenario timeline. Telemetry only: it does
    /// not affect simulation results.
    pub fn enable_timeline(&mut self, config: TimelineConfig) {
        self.timeline = Some(ScenarioTimeline::new(config));
    }

    /// The scenario timeline, if enabled.
    pub fn timeline(&self) -> Option<&ScenarioTimeline> {
        self.timeline.as_ref()
    }

    /// Detaches the scenario timeline (if enabled), leaving it disabled.
    pub fn take_timeline(&mut self) -> Option<ScenarioTimeline> {
        self.timeline.take()
    }

    /// Installs no-overhead software-prefetch hints: when an instruction at
    /// a trigger PC is inserted into the FTQ, the given target lines are
    /// prefetched without any instruction overhead (the paper's
    /// "AsmDB — No Insertion Overhead" configuration). The table is keyed
    /// by trigger PC, as built by [`HintTable::from_pc_map`], and shared:
    /// the `Arc` is stored as-is — no per-run copy is made.
    ///
    /// Equivalent to `set_prefetcher(Box::new(AsmdbHintPrefetcher::new(table)))`.
    pub fn set_hint_table(&mut self, table: Arc<HintTable>) {
        self.prefetcher = Box::new(AsmdbHintPrefetcher::new(table));
    }

    /// Installs an arbitrary [`InstructionPrefetcher`] implementation,
    /// replacing whatever mechanism was active (the default is
    /// [`FdpPrefetcher`]).
    pub fn set_prefetcher(&mut self, prefetcher: Box<dyn InstructionPrefetcher>) {
        self.prefetcher = prefetcher;
    }

    /// The front-end configuration.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// Front-end statistics.
    pub fn stats(&self) -> &FtqStats {
        &self.stats
    }

    /// Detaches the front-end statistics, leaving zeroed counters behind.
    ///
    /// Report assembly runs once, after the simulation loop; moving the
    /// stats out avoids cloning the whole block per run.
    pub fn take_stats(&mut self) -> FtqStats {
        std::mem::take(&mut self.stats)
    }

    /// Branch-prediction statistics and structures.
    pub fn branch_unit(&self) -> &BranchUnit {
        &self.branch
    }

    /// Read-only view of the FTQ.
    pub fn ftq(&self) -> &Ftq {
        &self.ftq
    }

    /// True once the whole trace has been enqueued and drained to decode.
    pub fn is_done(&self, trace: &Trace) -> bool {
        !cursor_in_bounds(self.cursor, trace.len()) && self.ftq.is_empty()
    }

    /// Runs one front-end cycle: unblock, pre-decode, fill, fetch-issue,
    /// taxonomy accounting, and promotion. Decoded instructions are appended
    /// to `out` in program order. At most `min(decode_width, decode_budget)`
    /// instructions are promoted — pass the backend's free dispatch slots to
    /// model ROB back-pressure, or `usize::MAX` for an unbounded consumer.
    pub fn cycle(
        &mut self,
        now: Cycle,
        trace: &Trace,
        mem: &mut MemoryHierarchy,
        decode_budget: usize,
        out: &mut Vec<DecodedInstr>,
    ) {
        if let Some(Blocked::UntilCycle { at }) = self.blocked {
            if now >= at {
                self.blocked = None;
            }
        }
        self.fill(now, trace, mem);
        self.issue_fetches(now, mem);
        self.prefetcher.tick(now, mem, &mut self.stats);
        // Pre-decode runs after fetch-issue so entries that complete
        // instantly (aliasing an already-fetched line) are still pre-decoded
        // before they can reach decode — promotion is gated on it.
        self.predecode(now, trace, mem);
        self.account(now, 1);
        self.promote(now, decode_budget, out);
    }

    /// The earliest cycle, at or after `now`, at which [`Frontend::cycle`]
    /// with this `decode_budget` would do more than count the cycle, or
    /// `None` if only a branch resolution can wake the front-end.
    ///
    /// `now` itself is returned while fill can run or is due to unblock,
    /// a line fetch is pending, the prefetcher's tick is due, or the head
    /// can be promoted. Otherwise the events are the completion of an
    /// entry not yet pre-decoded, the end of a redirect penalty, and the
    /// prefetcher's [`next_tick`](InstructionPrefetcher::next_tick).
    pub fn next_event(&self, now: Cycle, trace: &Trace, decode_budget: usize) -> Option<Cycle> {
        let unblock = match self.blocked {
            Some(Blocked::UntilCycle { at }) => Some(at),
            Some(_) => None,
            None if !self.ftq.is_full() && cursor_in_bounds(self.cursor, trace.len()) => {
                return Some(now)
            }
            None => None,
        };
        let promotes = self.ftq.head().is_some_and(|h| h.predecoded)
            && self.config.decode_width.min(decode_budget) > 0;
        // MSHR-full retries keep a pending line busy: each counts a stall.
        if self.pending_lines > 0 || promotes {
            return Some(now);
        }
        self.ftq
            .iter()
            .filter(|e| !e.predecoded)
            .filter_map(FtqEntry::completion_cycle)
            .chain(unblock)
            .chain(self.prefetcher.next_tick())
            .min()
            .map(|at| at.max(now))
    }

    /// Accounts the cycles `[from, to)` in bulk, as calling
    /// [`Frontend::cycle`] once per cycle would, when
    /// [`Frontend::next_event`] at `from` is `to` or later: nothing happens
    /// in them but the per-cycle counters, the head-stall flags and the
    /// timeline samples.
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.account(from, to - from);
    }

    /// Feeds a resolved branch back into the front-end: predictor training
    /// plus (for the branch the fill engine is stalled on) the redirect that
    /// resumes fill after the configured penalty.
    pub fn handle_resolution(&mut self, seq: SeqNum, instr: &Instruction, resolved_at: Cycle) {
        let InstrKind::Branch {
            kind,
            target,
            taken,
        } = instr.kind()
        else {
            return;
        };
        let was_mispredicted = self.mispredicted.remove(&seq);
        self.branch
            .resolve(instr.pc, kind, target, taken, was_mispredicted);
        if let Some(Blocked::UntilResolve { seq: s }) = self.blocked {
            if s == seq {
                self.blocked = Some(Blocked::UntilCycle {
                    at: resolved_at + self.config.redirect_penalty,
                });
                self.branch.resync_speculative();
            }
        }
    }

    /// Pre-decodes entries whose fetch completed: fires software instruction
    /// prefetches and applies post-fetch correction.
    fn predecode(&mut self, now: Cycle, trace: &Trace, mem: &mut MemoryHierarchy) {
        for entry in self.ftq.entries.iter_mut() {
            if entry.predecoded {
                continue;
            }
            let Some(done) = entry.completion_cycle() else {
                continue;
            };
            if done > now {
                continue;
            }
            entry.predecoded = true;
            entry.fetch_done_at = Some(done);

            let (start, end) = entry.seq_range();
            for seq in start..end {
                let instr = &trace.instructions()[seq as usize];
                if let InstrKind::PrefetchI { target } = instr.kind() {
                    mem.prefetch_instr(target.line(), now);
                    self.stats.swpf_executed.incr();
                }
            }

            if entry.pfc_pending {
                entry.pfc_pending = false;
                if let Some(Blocked::UntilPredecode { start_seq }) = self.blocked {
                    if start_seq == entry.start_seq {
                        self.blocked = Some(Blocked::UntilCycle {
                            at: now + self.config.redirect_penalty,
                        });
                        self.stats.redirects_predecode.incr();
                        // Teach the BTB about the discovered branch and fold
                        // it into the speculative history (the paper's GHR
                        // "flush and update" improvement).
                        let last = &trace.instructions()[(end - 1) as usize];
                        if let InstrKind::Branch {
                            kind,
                            target,
                            taken: true,
                        } = last.kind()
                        {
                            self.branch.train_btb_from_predecode(last.pc, kind, target);
                        }
                    }
                }
            }
        }
    }

    /// Appends new basic blocks to the FTQ along the predicted (== trace)
    /// path until bandwidth, capacity, a redirect, or trace end stops it.
    fn fill(&mut self, now: Cycle, trace: &Trace, mem: &mut MemoryHierarchy) {
        if self.blocked.is_some() {
            return;
        }
        let mut blocks = 0;
        while blocks < self.config.fill_blocks_per_cycle
            && !self.ftq.is_full()
            && cursor_in_bounds(self.cursor, trace.len())
            && self.blocked.is_none()
        {
            let entry = self.form_block(now, trace, mem);
            debug_assert!(!entry.is_empty());
            self.stats.blocks_enqueued.incr();
            self.stats.instrs_enqueued.add(entry.count as u64);
            // Every line of a freshly formed block is Pending.
            self.pending_lines += entry.lines.len();
            let becomes_stalling_head = self.ftq.is_empty();
            self.ftq.entries.push_back(entry);
            if becomes_stalling_head {
                // The entry enters the head position with its fetch not yet
                // complete (it has not even issued) — a Fig-11 event.
                self.stats.partially_covered_entries.incr();
                if let Some(head) = self.ftq.entries.front_mut() {
                    head.stalled_at_head = true;
                }
            }
            blocks += 1;
        }
    }

    /// Forms one basic block starting at the cursor, consulting the branch
    /// unit per instruction and recording any redirect condition.
    fn form_block(&mut self, now: Cycle, trace: &Trace, mem: &mut MemoryHierarchy) -> FtqEntry {
        let lines = self
            .spare_lines
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(2));
        let mut entry = FtqEntry::new(self.cursor, now, lines);
        let instrs = trace.instructions();
        while (entry.count as usize) < self.config.max_block_instrs
            && cursor_in_bounds(self.cursor, instrs.len())
        {
            let seq = self.cursor;
            let instr = &instrs[seq as usize];

            // Prefetcher training fires at FTQ insert (hook 1, DESIGN.md
            // §16): AsmDB hints issue here, MANA observes successions.
            self.prefetcher
                .train_on_fetch(instr.pc, now, mem, &mut self.stats);

            entry.count += 1;
            self.cursor += 1;
            entry.add_line(instr.pc.line());
            entry.add_line(instr.pc.add(instr.size.max(1) as u64 - 1).line());

            let prediction = self.branch.predict_at(instr.pc);
            // Keep the speculative history on the fill path: commit the
            // actual outcome of every branch the fill engine walks past.
            if let InstrKind::Branch {
                kind,
                target,
                taken,
            } = instr.kind()
            {
                self.branch.commit_spec(instr.pc, kind, target, taken);
            }
            match (prediction, instr.kind()) {
                (
                    None,
                    InstrKind::Branch {
                        kind,
                        target,
                        taken: true,
                    },
                ) => {
                    // The BTB does not know this taken branch: the front-end
                    // would run straight past it. Discovered at pre-decode
                    // (PFC) or, without PFC, at execute. Shadow-branch
                    // prefetching records the miss here (hook 2).
                    self.prefetcher
                        .train_on_btb_miss(instr.pc, kind, target, now);
                    self.mispredicted.insert(seq);
                    entry.mispredicted_seq = Some(seq);
                    if self.config.enable_pfc {
                        entry.pfc_pending = true;
                        self.blocked = Some(Blocked::UntilPredecode {
                            start_seq: entry.start_seq,
                        });
                    } else {
                        self.blocked = Some(Blocked::UntilResolve { seq });
                        self.stats.redirects_execute.incr();
                    }
                    break;
                }
                (None, _) => {
                    // Non-branch, or an invisible not-taken branch: sequential.
                }
                (
                    Some(p),
                    InstrKind::Branch {
                        kind,
                        target,
                        taken,
                    },
                ) => {
                    let correct = p.taken == taken && (!taken || p.target == target);
                    if correct {
                        if taken {
                            break; // block ends at a correctly-predicted taken branch
                        }
                    } else {
                        if p.taken != taken {
                            self.stats.mispredicts_cond.incr();
                        } else {
                            match kind {
                                swip_types::BranchKind::Return => {
                                    self.stats.mispredicts_return.incr()
                                }
                                k if k.is_indirect() => self.stats.mispredicts_indirect.incr(),
                                _ => self.stats.mispredicts_other.incr(),
                            }
                        }
                        self.mispredicted.insert(seq);
                        entry.mispredicted_seq = Some(seq);
                        self.blocked = Some(Blocked::UntilResolve { seq });
                        self.stats.redirects_execute.incr();
                        break;
                    }
                }
                (Some(p), _) => {
                    if p.taken {
                        // Stale BTB entry predicts a taken branch at a
                        // non-branch PC: the front-end diverges until the
                        // pre-decoder sees there is no branch here.
                        entry.pfc_pending = true;
                        self.blocked = Some(Blocked::UntilPredecode {
                            start_seq: entry.start_seq,
                        });
                        break;
                    }
                }
            }
        }
        entry
    }

    /// Issues pending line fetches, bounded by fetch bandwidth, merging with
    /// lines already tracked by the FTQ.
    fn issue_fetches(&mut self, now: Cycle, mem: &mut MemoryHierarchy) {
        if self.pending_lines == 0 {
            return; // nothing Pending anywhere in the FTQ
        }
        let mut budget = self.config.fetch_lines_per_cycle;
        for entry in self.ftq.entries.iter_mut() {
            if budget == 0 {
                break;
            }
            for (line, state) in entry.lines.iter_mut() {
                if budget == 0 {
                    break;
                }
                if *state != LineState::Pending {
                    continue;
                }
                if let Some((done, refs)) = self.tracked_lines.get_mut(&line.number()) {
                    *state = LineState::InFlight {
                        done: *done,
                        aliased: true,
                    };
                    self.pending_lines -= 1;
                    *refs += 1;
                    self.stats.aliased_line_requests.incr();
                    continue; // aliasing consumes no cache port
                }
                // Hook 3: the prefetcher sees every demand line fetch just
                // before the L1-I access (metadata-directed mechanisms and
                // shadow-branch replay key off the miss stream).
                self.prefetcher
                    .issue_prefetch(*line, now, mem, &mut self.branch, &mut self.stats);
                let result = mem.fetch_instr(*line, now);
                if result.complete_at == Cycle::MAX {
                    // MSHR full: port consumed, retry next cycle.
                    self.stats.mshr_stalls.incr();
                    budget -= 1;
                    continue;
                }
                // Hook 4: the prefetcher sees the outcome of every demand
                // line fetch the hierarchy accepted (hardware prefetchers
                // that train on L1-I hits and misses).
                self.prefetcher.on_demand_fetch(*line, now, result, mem);
                *state = LineState::InFlight {
                    done: result.complete_at,
                    aliased: false,
                };
                self.pending_lines -= 1;
                self.tracked_lines
                    .insert(line.number(), (result.complete_at, 1));
                self.stats.line_requests.incr();
                budget -= 1;
            }
        }
    }

    /// Classifies the FTQ state for the `cycles` cycles starting at `now`,
    /// through which it holds unchanged, and maintains the Fig-9/10
    /// counters.
    fn account(&mut self, now: Cycle, cycles: u64) {
        self.stats.cycles.add(cycles);
        if self.blocked.is_some() {
            self.stats.fill_blocked_cycles.add(cycles);
        }
        let scenario = self.scenario(now);
        if let Some(timeline) = self.timeline.as_mut() {
            timeline.record_span(now, cycles, scenario);
        }
        match scenario {
            Scenario::Empty => self.stats.empty_cycles.add(cycles),
            Scenario::ShootThrough => self.stats.s1_cycles.add(cycles),
            Scenario::StallingHead => {
                self.stats.s2_cycles.add(cycles);
                self.note_head_stall(now, cycles);
            }
            Scenario::ShadowStall => {
                self.stats.s3_cycles.add(cycles);
                self.note_head_stall(now, cycles);
            }
        }
        // Runtime mirrors of the static rule catalog (DESIGN.md §8), active
        // only under the `invariants` feature: the same properties
        // `swip-analyze` proves statically, asserted while simulating.
        #[cfg(feature = "invariants")]
        {
            assert!(
                self.ftq.len() <= self.ftq.capacity(),
                "I001: FTQ occupancy {} exceeds capacity {} at cycle {now}",
                self.ftq.len(),
                self.ftq.capacity()
            );
            let scenario_sum = self.stats.s1_cycles.get()
                + self.stats.s2_cycles.get()
                + self.stats.s3_cycles.get()
                + self.stats.empty_cycles.get();
            assert_eq!(
                self.stats.cycles.get(),
                scenario_sum,
                "I002: scenario classification is not exhaustive/exclusive at cycle {now}"
            );
        }
    }

    fn note_head_stall(&mut self, now: Cycle, cycles: u64) {
        self.stats.head_stall_cycles.add(cycles);
        let mut iter = self.ftq.entries.iter_mut();
        if let Some(head) = iter.next() {
            head.stalled_at_head = true;
        }
        for e in iter {
            debug_assert_eq!(e.predecoded, e.is_fetch_complete(now));
            if e.predecoded {
                // Cycle-sum semantics (Fig 10): every cycle an entry spends
                // fetch-complete behind a stalling head counts.
                e.counted_waiting = true;
                self.stats.entries_waiting_on_head.add(cycles);
            }
        }
    }

    /// The FTQ state this cycle, per the paper's taxonomy (operationally:
    /// head-complete ⇒ Scenario 1, since decode is not blocked).
    ///
    /// Must be called after pre-decode has run for `now` (`cycle`
    /// guarantees this): the `predecoded` flag then stands in for
    /// the per-line completion scan, turning classification from
    /// O(entries × lines) into O(entries).
    pub fn scenario(&self, now: Cycle) -> Scenario {
        let Some(head) = self.ftq.head() else {
            return Scenario::Empty;
        };
        debug_assert_eq!(head.predecoded, head.is_fetch_complete(now));
        if head.predecoded {
            return Scenario::ShootThrough;
        }
        let any_incomplete_behind = self.ftq.iter().skip(1).any(|e| {
            debug_assert_eq!(e.predecoded, e.is_fetch_complete(now));
            !e.predecoded
        });
        if any_incomplete_behind {
            Scenario::ShadowStall
        } else {
            Scenario::StallingHead
        }
    }

    /// Promotes up to `decode_width` instructions from fetch-complete head
    /// entries, in program order.
    fn promote(&mut self, now: Cycle, decode_budget: usize, out: &mut Vec<DecodedInstr>) {
        let mut budget = self.config.decode_width.min(decode_budget) as u32;
        while budget > 0 {
            let Some(head) = self.ftq.entries.front_mut() else {
                break;
            };
            // `predecoded` implies fetch-complete: pre-decode only marks an
            // entry once every line has landed, and completion is monotone.
            debug_assert!(!head.predecoded || head.is_fetch_complete(now));
            if !head.predecoded {
                break;
            }
            let take = head.remaining().min(budget);
            for k in 0..take {
                let seq = head.start_seq + (head.consumed + k) as u64;
                out.push(DecodedInstr {
                    seq,
                    mispredicted: head.mispredicted_seq == Some(seq),
                });
            }
            head.consumed += take;
            budget -= take;
            self.stats.instrs_decoded.add(take as u64);
            if head.remaining() == 0 {
                self.retire_head(now);
            }
        }
    }

    /// Pops the fully-consumed head entry, recording its Fig-8 latency
    /// bucket, releasing its tracked lines, and noting whether the new head
    /// arrives with an incomplete fetch (Fig 11).
    fn retire_head(&mut self, now: Cycle) {
        let head = self
            .ftq
            .entries
            .pop_front()
            .expect("retire_head requires a head entry");
        let latency = head
            .fetch_done_at
            .unwrap_or(now)
            .saturating_sub(head.enqueued_at);
        if head.stalled_at_head {
            self.stats.head_fetch_cycles.push(latency);
        } else {
            self.stats.nonhead_fetch_cycles.push(latency);
        }
        let mut lines = head.lines;
        for (line, state) in &lines {
            if matches!(state, LineState::InFlight { .. }) {
                if let Some((_, refs)) = self.tracked_lines.get_mut(&line.number()) {
                    *refs -= 1;
                    if *refs == 0 {
                        self.tracked_lines.remove(&line.number());
                    }
                }
            }
        }
        lines.clear();
        self.spare_lines.push(lines);
        if let Some(new_head) = self.ftq.entries.front_mut() {
            debug_assert_eq!(new_head.predecoded, new_head.is_fetch_complete(now));
            if !new_head.predecoded {
                self.stats.partially_covered_entries.incr();
                new_head.stalled_at_head = true;
            }
        }
    }
}

/// True while the fill cursor still points inside the trace.
///
/// The comparison is done in `u64` space: the cursor is a [`SeqNum`] and
/// casting it to `usize` truncates on 32-bit targets once a trace reaches
/// 2^32 instructions, which would wrap the cursor back into bounds and
/// re-enqueue the trace from the start.
fn cursor_in_bounds(cursor: SeqNum, trace_len: usize) -> bool {
    cursor < trace_len as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_cache::HierarchyConfig;
    use swip_trace::TraceBuilder;
    use swip_types::Addr;

    fn tiny_mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny())
    }

    fn config(ftq: usize) -> FrontendConfig {
        FrontendConfig::industry_standard().with_ftq_entries(ftq)
    }

    /// Runs the front-end to completion with immediate branch resolution
    /// (a perfect, single-cycle backend), returning decoded seqs.
    fn run_to_completion(
        fe: &mut Frontend,
        trace: &Trace,
        mem: &mut MemoryHierarchy,
        max_cycles: u64,
    ) -> Vec<DecodedInstr> {
        let mut all = Vec::new();
        let mut now = 0;
        while !fe.is_done(trace) && now < max_cycles {
            let mut out = Vec::new();
            fe.cycle(now, trace, mem, usize::MAX, &mut out);
            for d in &out {
                let instr = &trace.instructions()[d.seq as usize];
                if instr.is_branch() {
                    fe.handle_resolution(d.seq, instr, now + 1);
                }
            }
            all.extend(out);
            now += 1;
        }
        assert!(
            fe.is_done(trace),
            "front-end did not drain in {max_cycles} cycles"
        );
        all
    }

    fn straight_line(n: usize) -> Trace {
        let mut b = TraceBuilder::new("straight");
        for _ in 0..n {
            b.alu();
        }
        b.finish()
    }

    #[test]
    fn delivers_all_instructions_in_order() {
        let trace = straight_line(100);
        let mut fe = Frontend::new(config(24));
        let mut mem = tiny_mem();
        let decoded = run_to_completion(&mut fe, &trace, &mut mem, 100_000);
        assert_eq!(decoded.len(), 100);
        for (i, d) in decoded.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
    }

    #[test]
    fn blocks_respect_max_size() {
        let trace = straight_line(64);
        let mut fe = Frontend::new(config(24));
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 100_000);
        // 64 straight-line instructions => 8 blocks of 8.
        assert_eq!(fe.stats().blocks_enqueued.get(), 8);
        assert_eq!(fe.stats().instrs_enqueued.get(), 64);
    }

    #[test]
    fn loop_trace_with_trained_btb_runs_ahead() {
        // A tight loop: after the first iteration resolves, the BTB knows the
        // back-edge and fill proceeds without execute redirects.
        let mut b = TraceBuilder::new("loop");
        for _ in 0..50 {
            b.set_pc(Addr::new(0x100));
            b.alu();
            b.alu();
            b.cond_branch(Addr::new(0x100), true);
        }
        let trace = b.finish();
        let mut fe = Frontend::new(config(24));
        let mut mem = tiny_mem();
        let decoded = run_to_completion(&mut fe, &trace, &mut mem, 100_000);
        assert_eq!(decoded.len(), 150);
        // The first back-edge is a BTB miss; later ones should mostly be
        // predicted (a few mispredicts while the predictor warms up).
        assert!(fe.stats().redirects_predecode.get() >= 1);
        assert!(
            fe.stats().redirects_execute.get() <= 10,
            "too many execute redirects: {}",
            fe.stats().redirects_execute.get()
        );
    }

    #[test]
    fn ftq_capacity_bounds_occupancy() {
        let trace = straight_line(1000);
        let mut fe = Frontend::new(config(2));
        let mut mem = tiny_mem();
        let mut now = 0;
        while !fe.is_done(&trace) && now < 100_000 {
            let mut out = Vec::new();
            fe.cycle(now, &trace, &mut mem, usize::MAX, &mut out);
            assert!(fe.ftq().len() <= 2);
            now += 1;
        }
    }

    #[test]
    fn aliasing_merges_same_line_blocks() {
        // A tiny loop whose body fits in one line: with a warm BTB the FTQ
        // holds many entries pointing at the same line, which must merge.
        let mut b = TraceBuilder::new("alias");
        for _ in 0..200 {
            b.set_pc(Addr::new(0x100));
            b.alu();
            b.cond_branch(Addr::new(0x100), true);
        }
        let trace = b.finish();
        let mut fe = Frontend::new(config(24));
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 100_000);
        assert!(
            fe.stats().aliased_line_requests.get() > 0,
            "deep FTQ over a one-line loop must alias"
        );
    }

    #[test]
    fn deeper_ftq_aliases_more() {
        let mk = || {
            let mut b = TraceBuilder::new("alias2");
            for _ in 0..300 {
                b.set_pc(Addr::new(0x100));
                b.alu();
                b.alu();
                b.cond_branch(Addr::new(0x100), true);
            }
            b.finish()
        };
        let run = |ftq: usize| {
            let trace = mk();
            let mut fe = Frontend::new(config(ftq));
            let mut mem = tiny_mem();
            run_to_completion(&mut fe, &trace, &mut mem, 200_000);
            fe.stats().alias_fraction()
        };
        assert!(
            run(24) > run(2),
            "24-entry FTQ should alias more than 2-entry"
        );
    }

    #[test]
    fn head_stall_statistics_populate_on_cold_misses() {
        // Straight-line code over many lines: every other block misses cold.
        let trace = straight_line(512);
        let mut fe = Frontend::new(config(24));
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 1_000_000);
        assert!(fe.stats().head_stall_cycles.get() > 0);
        assert!(fe.stats().partially_covered_entries.get() > 0);
        assert!(
            fe.stats().head_fetch_cycles.count() + fe.stats().nonhead_fetch_cycles.count()
                == fe.stats().blocks_enqueued.get()
        );
    }

    #[test]
    fn prefetch_instruction_triggers_hierarchy_prefetch() {
        let far = Addr::new(0x40_000);
        let mut b = TraceBuilder::new("pf");
        b.prefetch_i(far);
        for _ in 0..20 {
            b.alu();
        }
        let trace = b.finish();
        let mut fe = Frontend::new(config(24));
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 100_000);
        assert_eq!(fe.stats().swpf_executed.get(), 1);
        assert!(mem.l1i_contains(far.line()));
    }

    #[test]
    fn hints_fire_without_trace_prefetches() {
        let far = Addr::new(0x40_000);
        let trace = straight_line(20);
        let mut fe = Frontend::new(config(24));
        let mut hints = HashMap::new();
        hints.insert(Addr::new(0x8), vec![far]);
        fe.set_hint_table(Arc::new(HintTable::from_pc_map(&hints)));
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 100_000);
        assert_eq!(fe.stats().swpf_hinted.get(), 1);
        assert!(mem.l1i_contains(far.line()));
    }

    #[test]
    fn mispredicted_branch_blocks_fill_until_resolution() {
        // Trace alternates taken/not-taken so the predictor cannot be
        // perfect; check that fill stalls are accounted and everything still
        // drains.
        let mut b = TraceBuilder::new("mix");
        for i in 0..100 {
            b.set_pc(Addr::new(0x100 + (i % 7) * 0x40));
            b.alu();
            let taken = i % 3 == 0;
            let target = Addr::new(0x100 + ((i + 1) % 7) * 0x40);
            if taken {
                b.cond_branch(target, true);
            } else {
                b.cond_branch(target, false);
                b.jump(Addr::new(0x100 + ((i + 1) % 7) * 0x40));
            }
        }
        let trace = b.finish();
        let n = trace.len();
        let mut fe = Frontend::new(config(24));
        let mut mem = tiny_mem();
        let decoded = run_to_completion(&mut fe, &trace, &mut mem, 1_000_000);
        assert_eq!(decoded.len(), n);
        assert!(fe.stats().fill_blocked_cycles.get() > 0);
    }

    #[test]
    fn preload_metadata_fires_on_l1i_access() {
        // Straight-line code; trigger = the first line, target = a far line.
        let far = Addr::new(0x40_000);
        let trace = straight_line(64);
        let mut fe = Frontend::new(config(24));
        let mut metadata = HashMap::new();
        metadata.insert(Addr::new(0x0).line().number(), vec![far]);
        // Latency chosen so the metadata arrives once the cold-start misses
        // have drained the tiny MSHR file.
        fe.set_prefetcher(Box::new(crate::PreloadPrefetcher::new(
            Arc::new(HintTable::from_line_map(&metadata)),
            crate::PreloadConfig {
                l1_entries: 8,
                metadata_latency: 90,
            },
        )));
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 100_000);
        assert_eq!(fe.stats().preload_metadata_requests.get(), 1);
        assert!(fe.stats().swpf_preloaded.get() >= 1);
        assert!(mem.l1i_contains(far.line()));
    }

    #[test]
    fn preload_l1_cache_hits_skip_metadata_latency() {
        // A loop re-fetching the same trigger line: after the first metadata
        // request installs the entry, later accesses hit the L1-side cache.
        let far = Addr::new(0x40_000);
        let mut b = TraceBuilder::new("preloop");
        for _ in 0..100 {
            b.set_pc(Addr::new(0x100));
            for _ in 0..10 {
                b.alu();
            }
            b.cond_branch(Addr::new(0x100), true);
        }
        let trace = b.finish();
        let mut fe = Frontend::new(config(4));
        let mut metadata = HashMap::new();
        metadata.insert(Addr::new(0x100).line().number(), vec![far]);
        fe.set_prefetcher(Box::new(crate::PreloadPrefetcher::new(
            Arc::new(HintTable::from_line_map(&metadata)),
            crate::PreloadConfig::default(),
        )));
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 200_000);
        assert_eq!(fe.stats().preload_metadata_requests.get(), 1);
        assert!(fe.stats().preload_l1_hits.get() >= 1);
    }

    #[test]
    fn decode_budget_throttles_promotion() {
        let trace = straight_line(64);
        let mut fe = Frontend::new(config(24));
        let mut mem = tiny_mem();
        let mut now = 0;
        let mut total = 0;
        while !fe.is_done(&trace) && now < 100_000 {
            let mut out = Vec::new();
            fe.cycle(now, &trace, &mut mem, 1, &mut out); // 1 slot per cycle
            assert!(out.len() <= 1, "budget of 1 must cap promotion");
            total += out.len();
            now += 1;
        }
        assert_eq!(total, 64);
    }

    #[test]
    fn pfc_disabled_waits_for_execute() {
        // A taken jump unknown to the BTB: without PFC the redirect must be
        // an execute redirect, with PFC a pre-decode redirect.
        let mk = || {
            let mut b = TraceBuilder::new("pfc");
            for _ in 0..20 {
                b.set_pc(Addr::new(0x100));
                b.alu();
                b.jump(Addr::new(0x4000));
                b.set_pc(Addr::new(0x4000));
                b.alu();
                b.jump(Addr::new(0x100));
            }
            b.finish()
        };
        let mut with_pfc = config(24);
        with_pfc.enable_pfc = true;
        let mut without_pfc = config(24);
        without_pfc.enable_pfc = false;

        let trace = mk();
        let mut fe = Frontend::new(without_pfc);
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 200_000);
        assert_eq!(fe.stats().redirects_predecode.get(), 0);
        assert!(fe.stats().redirects_execute.get() > 0);

        let trace = mk();
        let mut fe = Frontend::new(with_pfc);
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 200_000);
        assert!(fe.stats().redirects_predecode.get() > 0);
    }

    #[test]
    fn ftq_inspection_api() {
        let trace = straight_line(128);
        let mut fe = Frontend::new(config(4));
        let mut mem = tiny_mem();
        let mut out = Vec::new();
        fe.cycle(0, &trace, &mut mem, usize::MAX, &mut out);
        let ftq = fe.ftq();
        assert_eq!(ftq.capacity(), 4);
        assert!(!ftq.is_empty());
        assert!(ftq.len() <= 4);
        let head = ftq.head().unwrap();
        assert_eq!(head.seq_range().0, 0);
        assert_eq!(ftq.iter().count(), ftq.len());
    }

    #[test]
    fn timeline_samples_when_enabled() {
        let trace = straight_line(256);
        let mut fe = Frontend::new(config(4));
        fe.enable_timeline(crate::TimelineConfig {
            stride: 2,
            capacity: 64,
        });
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 1_000_000);
        let t = fe.timeline().expect("timeline was enabled");
        assert!(!t.is_empty());
        assert!(t.samples().all(|s| s.cycle % 2 == 0), "stride respected");
        let taken = fe.take_timeline().expect("take returns the sampler");
        assert!(fe.timeline().is_none());
        assert!(taken.len() <= 64);
    }

    #[test]
    fn cursor_bounds_check_survives_the_32_bit_boundary() {
        // Regression: the cursor used to be narrowed with `as usize` before
        // comparing against `trace.len()`. On a 32-bit target a cursor of
        // 2^32 truncates to 0 — "in bounds" again — so fill would loop
        // forever re-enqueueing the trace. Comparing in u64 space is
        // immune; exercise the exact boundary values.
        const B: u64 = 1 << 32;
        assert!(!cursor_in_bounds(B, 0));
        assert!(!cursor_in_bounds(B, 1)); // truncation would say "in bounds"
        assert!(!cursor_in_bounds(B + 5, 10)); // ... and so would B + 5
        assert!(!cursor_in_bounds(u64::MAX, usize::MAX));
        assert!(cursor_in_bounds(0, 1));
        assert!(!cursor_in_bounds(1, 1));
    }

    #[test]
    fn scenario_classification_is_exhaustive() {
        let trace = straight_line(256);
        let mut fe = Frontend::new(config(4));
        let mut mem = tiny_mem();
        run_to_completion(&mut fe, &trace, &mut mem, 1_000_000);
        let s = fe.stats();
        assert_eq!(
            s.cycles.get(),
            s.s1_cycles.get() + s.s2_cycles.get() + s.s3_cycles.get() + s.empty_cycles.get()
        );
    }
}
