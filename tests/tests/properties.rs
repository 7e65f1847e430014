//! Randomized-but-deterministic property tests over the core data
//! structures and cross-crate invariants (see DESIGN.md §6).
//!
//! Each property is exercised over many pseudo-random cases drawn from a
//! fixed-seed SplitMix64 stream, so failures are reproducible without a
//! shrinking framework: the failing case index is part of the assertion
//! message.

use swip_asmdb::{plan_insertions, rewrite_trace, select_targets, Cfg};
use swip_branch::Ras;
use swip_cache::{Cache, CacheConfig, ReplacementKind};
use swip_trace::Trace;
use swip_types::{Addr, BranchKind, Instruction, LineAddr, Reg};
use swip_workloads::{cvp1_suite, generate};

/// Minimal deterministic generator (SplitMix64) for test-case synthesis.
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }
}

fn arb_reg(rng: &mut TestRng) -> Reg {
    Reg::new(rng.below(Reg::COUNT as u64) as u8)
}

fn arb_instruction(rng: &mut TestRng) -> Instruction {
    let pc = Addr::new(rng.below(1 << 20) * 4);
    let target = Addr::new(rng.below(1 << 20) * 4);
    let taken = rng.bool();
    let (r1, r2) = (arb_reg(rng), arb_reg(rng));
    match rng.below(8) {
        0 => Instruction::alu(pc).with_dst(r1).with_srcs(&[r2]),
        1 => Instruction::load(pc, target).with_dst(r1),
        2 => Instruction::store(pc, target).with_srcs(&[r1, r2]),
        3 => Instruction::cond_branch(pc, target, taken),
        4 => Instruction::jump(pc, target),
        5 => Instruction::call(pc, target),
        6 => Instruction::ret(pc, target),
        _ => Instruction::prefetch_i(pc, target),
    }
}

/// Trace codec: encode → decode is the identity.
#[test]
fn codec_round_trips() {
    for case in 0u64..64 {
        let mut rng = TestRng::new(0xC0DE_C000 + case);
        let n = rng.below(200) as usize;
        let instrs: Vec<Instruction> = (0..n).map(|_| arb_instruction(&mut rng)).collect();
        let name: String = (0..rng.below(24))
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let t = Trace::from_instructions(name, instrs);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back, t, "case {case}");
    }
}

/// Cache: an LRU cache agrees with a reference model (ordered list per set)
/// on every hit/miss outcome.
#[test]
fn lru_cache_matches_reference_model() {
    for case in 0u64..64 {
        let mut rng = TestRng::new(0x1_5EED + case);
        let sets = 4usize;
        let ways = 2usize;
        let mut cache = Cache::new(CacheConfig {
            name: "m".into(),
            sets,
            ways,
            latency: 1,
            mshrs: 0,
            replacement: ReplacementKind::Lru,
        });
        // Reference: per-set most-recent-first vectors.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets];
        let ops = 1 + rng.below(300);
        for op in 0..ops {
            let line_no = rng.below(64);
            let is_fill = rng.bool();
            let line = LineAddr::from_line_number(line_no);
            let set = (line_no % sets as u64) as usize;
            if is_fill {
                cache.fill(line, false);
                if let Some(pos) = model[set].iter().position(|&l| l == line_no) {
                    model[set].remove(pos);
                } else if model[set].len() == ways {
                    model[set].pop();
                }
                model[set].insert(0, line_no);
            } else {
                let hit = cache.access(line, false);
                let model_hit = model[set].contains(&line_no);
                assert_eq!(
                    hit, model_hit,
                    "case {case} op {op}: line {line_no} in set {set}"
                );
                if let Some(pos) = model[set].iter().position(|&l| l == line_no) {
                    let l = model[set].remove(pos);
                    model[set].insert(0, l);
                }
            }
        }
    }
}

/// RAS: below capacity it is exactly a stack.
#[test]
fn ras_is_a_stack_under_capacity() {
    for case in 0u64..64 {
        let mut rng = TestRng::new(0x5AC0 + case);
        let pushes: Vec<u64> = (0..1 + rng.below(31)).map(|_| rng.below(1 << 30)).collect();
        let mut ras = Ras::new(64);
        let mut model = Vec::new();
        for p in &pushes {
            ras.push(Addr::new(*p));
            model.push(Addr::new(*p));
        }
        while let Some(expected) = model.pop() {
            assert_eq!(ras.pop(), Some(expected), "case {case}");
        }
        assert_eq!(ras.pop(), None, "case {case}");
    }
}

/// Workload generator: any seed yields a continuous, call-balanced dynamic
/// stream with stable instruction kinds per PC.
#[test]
fn generated_traces_are_well_formed() {
    for case in 0u64..24 {
        let mut rng = TestRng::new(0x3EED5 + case);
        let idx = rng.below(48) as usize;
        let seed_salt = rng.below(4);
        let mut spec = cvp1_suite(4_000).remove(idx);
        spec.seed ^= seed_salt << 32;
        let trace = generate(&spec);
        assert!(trace.len() >= 4_000, "case {case}");
        let mut stack: Vec<Addr> = Vec::new();
        for w in trace.instructions().windows(2) {
            assert_eq!(w[0].next_pc(), w[1].pc, "case {case}");
        }
        for i in trace.iter() {
            match i.branch_kind() {
                Some(BranchKind::DirectCall | BranchKind::IndirectCall) => {
                    stack.push(i.pc.add(4));
                }
                Some(BranchKind::Return) => {
                    let expected = stack.pop();
                    assert_eq!(Some(i.branch_target().unwrap()), expected, "case {case}");
                }
                _ => {}
            }
        }
        assert!(stack.is_empty(), "case {case}");
    }
}

/// AsmDB rewriting: for any fanout/distance tuning, the rewritten trace is
/// continuous, monotone in address shift, and strips back to the original
/// instruction sequence.
#[test]
fn rewrite_invariants_hold() {
    let spec = cvp1_suite(4_000).remove(16);
    let trace = generate(&spec);
    let cfg = Cfg::from_trace(&trace);
    // Fabricate a miss profile: every executed line missed once per use.
    let mut misses = std::collections::HashMap::new();
    for i in trace.iter() {
        *misses.entry(i.pc.line().number()).or_insert(0u64) += 1;
    }
    let targets = select_targets(&cfg, &misses, 4, 0.5, 64);
    for case in 0u64..24 {
        let mut rng = TestRng::new(0x4E_817E + case);
        let min_reach = 0.05 + rng.f64() * 0.85;
        let min_distance = 4 + rng.below(36);
        let plan = plan_insertions(&cfg, &targets, min_distance, min_distance * 6, min_reach, 2);
        let (rewritten, report) = rewrite_trace(&trace, &plan);

        // Continuity.
        for w in rewritten.instructions().windows(2) {
            assert_eq!(w[0].next_pc(), w[1].pc, "case {case}");
        }
        // Monotone shift: the i-th non-prefetch instruction's pc never
        // decreases relative to the original.
        let originals: Vec<_> = trace.iter().collect();
        let kept: Vec<_> = rewritten.iter().filter(|i| !i.is_prefetch_i()).collect();
        assert_eq!(kept.len(), originals.len(), "case {case}");
        for (o, k) in originals.iter().zip(&kept) {
            assert!(k.pc >= o.pc, "case {case}");
            assert_eq!(
                std::mem::discriminant(&k.kind()),
                std::mem::discriminant(&o.kind()),
                "case {case}"
            );
        }
        // Accounting.
        assert_eq!(
            report.inserted_dynamic as usize,
            rewritten.len() - trace.len(),
            "case {case}"
        );
        assert!(report.dynamic_bloat >= 0.0, "case {case}");
    }
}
