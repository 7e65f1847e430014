//! The branch target buffer.

use swip_types::{Addr, BranchKind};

/// One BTB entry: the branch's kind and (last-seen) target.
///
/// FDP's path speculation treats instructions that miss in the BTB as
/// non-branches, so the BTB is the front-end's *only* map of where control
/// flow can diverge — its reach is a first-order determinant of how far FDP
/// can run ahead.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BtbEntry {
    /// PC of the branch this entry describes.
    pub pc: Addr,
    /// Branch flavor recorded at the last resolution.
    pub kind: BranchKind,
    /// Last-seen target (meaningless for returns, which use the RAS).
    pub target: Addr,
}

/// A way's payload; its tag lives in [`Btb::tags`].
#[derive(Copy, Clone, Debug)]
struct Way {
    kind: BranchKind,
    target: Addr,
    lru: u64,
}

impl Way {
    const EMPTY: Way = Way {
        kind: BranchKind::CondDirect,
        target: Addr::ZERO,
        lru: 0,
    };
}

/// The tag of an invalid way. Tags are `pc >> 2`, which never reaches it.
const INVALID: u64 = u64::MAX;

/// A set-associative branch target buffer with per-set LRU replacement.
///
/// # Examples
///
/// ```
/// use swip_types::{Addr, BranchKind};
/// use swip_branch::Btb;
///
/// let mut btb = Btb::new(1024, 4);
/// let pc = Addr::new(0x1004);
/// assert!(btb.lookup(pc).is_none());
/// btb.insert(pc, BranchKind::UncondDirect, Addr::new(0x2000));
/// assert_eq!(btb.lookup(pc).unwrap().target, Addr::new(0x2000));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    /// Every way's tag, or [`INVALID`], indexed by `set * assoc + way`.
    /// Kept apart from the payloads so a probe, which usually misses,
    /// reads only a set's tags.
    tags: Vec<u64>,
    /// Every way's kind, target and LRU stamp, indexed like `tags`.
    ways: Vec<Way>,
    set_bits: u32,
    assoc: usize,
    tick: u64,
}

impl Btb {
    /// Creates a BTB with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either argument is zero.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(assoc > 0, "associativity must be nonzero");
        Btb {
            tags: vec![INVALID; sets * assoc],
            ways: vec![Way::EMPTY; sets * assoc],
            set_bits: sets.trailing_zeros(),
            assoc,
            tick: 0,
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// The first way of `pc`'s set and `pc`'s tag.
    fn base_and_tag(&self, pc: Addr) -> (usize, u64) {
        let x = pc.raw() >> 2; // 4-byte aligned instructions
                               // Hash high bits into the index (as real BTBs do) so regularly
                               // strided code layouts do not collapse onto a few sets.
        let mixed = x ^ (x >> self.set_bits) ^ (x >> (2 * self.set_bits));
        let idx = (mixed & ((1u64 << self.set_bits) - 1)) as usize;
        let tag = x; // full tag; hashing the index forbids dropping bits
        (idx * self.assoc, tag)
    }

    /// The slot holding `tag` in the set that starts at `base`.
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Looks up `pc`, refreshing LRU state on a hit.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
        let (base, tag) = self.base_and_tag(pc);
        self.tick += 1;
        let slot = self.find(base, tag)?;
        let way = &mut self.ways[slot];
        way.lru = self.tick;
        Some(BtbEntry {
            pc,
            kind: way.kind,
            target: way.target,
        })
    }

    /// Looks up `pc` without perturbing replacement state.
    pub fn peek(&self, pc: Addr) -> Option<BtbEntry> {
        let (base, tag) = self.base_and_tag(pc);
        let way = &self.ways[self.find(base, tag)?];
        Some(BtbEntry {
            pc,
            kind: way.kind,
            target: way.target,
        })
    }

    /// Installs or updates the entry for `pc`. Returns `true` if this
    /// *allocated* a new entry (miss fill), `false` if it updated in place.
    ///
    /// A fill takes the set's first invalid way, else its first
    /// least-recently-used one.
    pub fn insert(&mut self, pc: Addr, kind: BranchKind, target: Addr) -> bool {
        let (base, tag) = self.base_and_tag(pc);
        self.tick += 1;
        let way = Way {
            kind,
            target,
            lru: self.tick,
        };
        if let Some(slot) = self.find(base, tag) {
            self.ways[slot] = way;
            return false;
        }
        let victim = self.find(base, INVALID).unwrap_or_else(|| {
            let set = &self.ways[base..base + self.assoc];
            let lru = (0..self.assoc)
                .min_by_key(|&w| set[w].lru)
                .expect("btb set is never empty");
            base + lru
        });
        self.tags[victim] = tag;
        self.ways[victim] = way;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut btb = Btb::new(64, 2);
        let pc = Addr::new(0x1000);
        assert!(btb.lookup(pc).is_none());
        assert!(btb.insert(pc, BranchKind::CondDirect, Addr::new(0x40)));
        let e = btb.lookup(pc).unwrap();
        assert_eq!(e.kind, BranchKind::CondDirect);
        assert_eq!(e.target, Addr::new(0x40));
    }

    #[test]
    fn update_in_place_returns_false() {
        let mut btb = Btb::new(64, 2);
        let pc = Addr::new(0x1000);
        btb.insert(pc, BranchKind::CondDirect, Addr::new(0x40));
        assert!(!btb.insert(pc, BranchKind::CondDirect, Addr::new(0x80)));
        assert_eq!(btb.lookup(pc).unwrap().target, Addr::new(0x80));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut btb = Btb::new(1, 2);
        // All PCs map to set 0.
        let a = Addr::new(0x0);
        let b = Addr::new(0x4);
        let c = Addr::new(0x8);
        btb.insert(a, BranchKind::CondDirect, Addr::new(0x100));
        btb.insert(b, BranchKind::CondDirect, Addr::new(0x200));
        btb.lookup(a); // refresh a; b becomes LRU
        btb.insert(c, BranchKind::CondDirect, Addr::new(0x300));
        assert!(btb.peek(a).is_some());
        assert!(btb.peek(b).is_none());
        assert!(btb.peek(c).is_some());
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut btb = Btb::new(1, 2);
        let a = Addr::new(0x0);
        let b = Addr::new(0x4);
        let c = Addr::new(0x8);
        btb.insert(a, BranchKind::CondDirect, Addr::new(0x100));
        btb.insert(b, BranchKind::CondDirect, Addr::new(0x200));
        btb.peek(a); // must NOT refresh; a stays LRU
        btb.insert(c, BranchKind::CondDirect, Addr::new(0x300));
        assert!(btb.peek(a).is_none());
        assert!(btb.peek(b).is_some());
    }

    #[test]
    fn distinct_pcs_do_not_alias_within_capacity() {
        let mut btb = Btb::new(256, 4);
        for i in 0..256u64 {
            btb.insert(Addr::new(i * 4), BranchKind::UncondDirect, Addr::new(i));
        }
        for i in 0..256u64 {
            assert_eq!(
                btb.peek(Addr::new(i * 4)).unwrap().target,
                Addr::new(i),
                "pc {i} lost"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        let _ = Btb::new(3, 2);
    }

    #[test]
    fn capacity() {
        assert_eq!(Btb::new(1024, 8).capacity(), 8192);
    }

    /// One way of the layout this BTB replaced.
    #[derive(Copy, Clone)]
    struct ModelWay {
        valid: bool,
        tag: u64,
        kind: BranchKind,
        target: Addr,
        lru: u64,
    }

    /// The layout this BTB replaced: a `Vec` of ways per set, each with
    /// its own valid bit, and one tick shared by every set.
    struct SetModel {
        sets: Vec<Vec<ModelWay>>,
        set_bits: u32,
        tick: u64,
    }

    impl SetModel {
        fn new(sets: usize, assoc: usize) -> SetModel {
            let invalid = ModelWay {
                valid: false,
                tag: 0,
                kind: BranchKind::CondDirect,
                target: Addr::ZERO,
                lru: 0,
            };
            SetModel {
                sets: vec![vec![invalid; assoc]; sets],
                set_bits: sets.trailing_zeros(),
                tick: 0,
            }
        }

        fn set_and_tag(&self, pc: Addr) -> (usize, u64) {
            let x = pc.raw() >> 2;
            let mixed = x ^ (x >> self.set_bits) ^ (x >> (2 * self.set_bits));
            ((mixed & ((1u64 << self.set_bits) - 1)) as usize, x)
        }

        fn entry(pc: Addr, way: &ModelWay) -> BtbEntry {
            BtbEntry {
                pc,
                kind: way.kind,
                target: way.target,
            }
        }

        fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
            let (set, tag) = self.set_and_tag(pc);
            self.tick += 1;
            let tick = self.tick;
            let way = self.sets[set]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)?;
            way.lru = tick;
            Some(Self::entry(pc, way))
        }

        fn peek(&self, pc: Addr) -> Option<BtbEntry> {
            let (set, tag) = self.set_and_tag(pc);
            self.sets[set]
                .iter()
                .find(|w| w.valid && w.tag == tag)
                .map(|w| Self::entry(pc, w))
        }

        fn insert(&mut self, pc: Addr, kind: BranchKind, target: Addr) -> bool {
            let (set, tag) = self.set_and_tag(pc);
            self.tick += 1;
            let fill = ModelWay {
                valid: true,
                tag,
                kind,
                target,
                lru: self.tick,
            };
            let ways = &mut self.sets[set];
            if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
                *way = fill;
                return false;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|w| if w.valid { w.lru } else { 0 })
                .expect("a set has ways");
            *victim = fill;
            true
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Drives the BTB and the per-set model with one seeded stream of
    /// inserts, lookups and peeks over `pcs` branch addresses, asserting
    /// every return value agrees.
    fn agrees_with_the_set_model(sets: usize, assoc: usize, pcs: u64, seed: u64) {
        const KINDS: [BranchKind; 6] = [
            BranchKind::CondDirect,
            BranchKind::UncondDirect,
            BranchKind::IndirectJump,
            BranchKind::DirectCall,
            BranchKind::IndirectCall,
            BranchKind::Return,
        ];
        let mut btb = Btb::new(sets, assoc);
        let mut model = SetModel::new(sets, assoc);
        let mut rng = seed;
        let (mut hits, mut fills) = (0, 0);
        for call in 0..5000 {
            let pc = Addr::new(0x40_0000 + (splitmix64(&mut rng) % pcs) * 4);
            match splitmix64(&mut rng) % 3 {
                0 => {
                    let kind = KINDS[(splitmix64(&mut rng) % 6) as usize];
                    let target = Addr::new(splitmix64(&mut rng) % 0x100_0000 * 4);
                    let filled = btb.insert(pc, kind, target);
                    assert_eq!(
                        filled,
                        model.insert(pc, kind, target),
                        "insert, call {call}"
                    );
                    fills += u64::from(filled);
                }
                1 => {
                    let entry = btb.lookup(pc);
                    assert_eq!(entry, model.lookup(pc), "lookup, call {call}");
                    hits += u64::from(entry.is_some());
                }
                _ => assert_eq!(btb.peek(pc), model.peek(pc), "peek, call {call}"),
            }
        }
        // More branches than ways: the stream both hits and evicts.
        assert!(hits > 0 && fills as usize > sets * assoc);
    }

    #[test]
    fn one_set_agrees_with_the_layout_it_replaced() {
        agrees_with_the_set_model(1, 4, 9, 1);
    }

    #[test]
    fn many_sets_agree_with_the_layout_it_replaced() {
        agrees_with_the_set_model(64, 4, 600, 2);
    }
}
