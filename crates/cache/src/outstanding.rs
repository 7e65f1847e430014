//! Miss-status holding registers (outstanding-miss tracking).

use swip_types::{Cycle, LineAddr};

/// Tracks in-flight misses for one cache level.
///
/// A request to a line that is already outstanding *merges*: it completes at
/// the already-scheduled fill time and consumes no new MSHR. Entries are
/// retired lazily as the clock advances. A bounded MSHR file refuses new
/// allocations when full, which back-pressures the fetch engine exactly as a
/// real L1-I MSHR file throttles FDP.
///
/// # Examples
///
/// ```
/// use swip_types::Addr;
/// use swip_cache::Outstanding;
///
/// let mut mshrs = Outstanding::new(2);
/// let line = Addr::new(0x40).line();
/// assert_eq!(mshrs.lookup(line, 0), None);
/// assert!(mshrs.allocate(line, 100, 0));
/// assert_eq!(mshrs.lookup(line, 50), Some(100)); // merged
/// assert_eq!(mshrs.lookup(line, 101), None);     // retired
/// ```
#[derive(Clone, Debug)]
pub struct Outstanding {
    /// Each in-flight line with its completion cycle, in no order. A
    /// bounded file holds at most `capacity` (8 or 16 in the presets), so
    /// a linear search beats hashing.
    inflight: Vec<(LineAddr, Cycle)>,
    /// No entry completes before this cycle, so none retires before it.
    next_done: Cycle,
    capacity: usize,
}

impl Outstanding {
    /// Creates an MSHR file with `capacity` entries (`0` = unlimited).
    pub fn new(capacity: usize) -> Self {
        Outstanding {
            inflight: Vec::with_capacity(capacity),
            next_done: Cycle::MAX,
            capacity,
        }
    }

    fn retire(&mut self, now: Cycle) {
        if now < self.next_done {
            return;
        }
        self.inflight.retain(|&(_, done)| done > now);
        self.next_done = self
            .inflight
            .iter()
            .map(|&(_, done)| done)
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// If `line` is still in flight at `now`, returns its completion cycle.
    pub fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.retire(now);
        self.inflight
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, done)| done)
    }

    /// Attempts to allocate an entry completing at `done`, replacing the
    /// completion of an entry already held for `line`. Returns `false`
    /// when the file is full at `now`.
    pub fn allocate(&mut self, line: LineAddr, done: Cycle, now: Cycle) -> bool {
        self.retire(now);
        if self.capacity != 0 && self.inflight.len() >= self.capacity {
            return false;
        }
        match self.inflight.iter_mut().find(|(l, _)| *l == line) {
            Some(entry) => entry.1 = done,
            None => self.inflight.push((line, done)),
        }
        // A replaced completion may leave `next_done` early, which only
        // costs one needless retire pass.
        self.next_done = self.next_done.min(done);
        true
    }

    /// True when no further misses can be allocated at `now`.
    pub fn is_full(&mut self, now: Cycle) -> bool {
        self.capacity != 0 && self.len(now) >= self.capacity
    }

    /// Number of in-flight entries at `now`.
    pub fn len(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn merge_returns_existing_completion() {
        let mut m = Outstanding::new(4);
        assert!(m.allocate(line(1), 50, 0));
        assert_eq!(m.lookup(line(1), 10), Some(50));
        // A merge takes no entry of its own.
        assert_eq!(m.len(10), 1);
    }

    #[test]
    fn entries_retire_at_completion() {
        let mut m = Outstanding::new(4);
        m.allocate(line(1), 50, 0);
        assert_eq!(m.lookup(line(1), 49), Some(50));
        assert_eq!(m.lookup(line(1), 50), None); // done == now => retired
        assert_eq!(m.len(50), 0);
    }

    #[test]
    fn capacity_enforced() {
        let mut m = Outstanding::new(2);
        assert!(m.allocate(line(1), 100, 0));
        assert!(m.allocate(line(2), 100, 0));
        assert!(!m.allocate(line(3), 100, 0));
        assert!(m.is_full(0));
        // The refused line took no entry.
        assert_eq!(m.lookup(line(3), 0), None);
        assert_eq!(m.len(0), 2);
        // After the first two retire there is room again.
        assert!(m.allocate(line(3), 200, 150));
        assert_eq!(m.len(150), 1);
    }

    #[test]
    fn unlimited_capacity() {
        let mut m = Outstanding::new(0);
        for n in 0..100 {
            assert!(m.allocate(line(n), 1000, 0));
        }
        assert_eq!(m.len(0), 100);
    }

    /// The map this file replaced: a `HashMap` retained on every call.
    struct MapModel {
        inflight: HashMap<LineAddr, Cycle>,
        capacity: usize,
    }

    impl MapModel {
        fn retire(&mut self, now: Cycle) {
            self.inflight.retain(|_, &mut done| done > now);
        }

        fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle> {
            self.retire(now);
            self.inflight.get(&line).copied()
        }

        fn allocate(&mut self, line: LineAddr, done: Cycle, now: Cycle) -> bool {
            self.retire(now);
            if self.capacity != 0 && self.inflight.len() >= self.capacity {
                return false;
            }
            self.inflight.insert(line, done);
            true
        }

        fn len(&mut self, now: Cycle) -> usize {
            self.retire(now);
            self.inflight.len()
        }

        fn is_full(&mut self, now: Cycle) -> bool {
            self.capacity != 0 && self.len(now) >= self.capacity
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Drives the file and the map with one seeded call stream at
    /// advancing cycles and asserts every return value agrees.
    fn agrees_with_the_map(capacity: usize, seed: u64) {
        let mut file = Outstanding::new(capacity);
        let mut map = MapModel {
            inflight: HashMap::new(),
            capacity,
        };
        let mut rng = seed;
        let mut now = 0;
        let mut refused = 0;
        let mut merged = 0;
        for call in 0..4000 {
            now += splitmix64(&mut rng) % 2;
            // Few enough lines that lookups and re-allocations often hit.
            let l = line(splitmix64(&mut rng) % 48);
            match splitmix64(&mut rng) % 4 {
                0 | 1 => {
                    let done = now + 1 + splitmix64(&mut rng) % 80;
                    let ok = file.allocate(l, done, now);
                    assert_eq!(ok, map.allocate(l, done, now), "allocate, call {call}");
                    refused += u64::from(!ok);
                }
                2 => {
                    let done = file.lookup(l, now);
                    assert_eq!(done, map.lookup(l, now), "lookup, call {call}");
                    merged += u64::from(done.is_some());
                }
                _ => {
                    assert_eq!(file.len(now), map.len(now), "len, call {call}");
                    assert_eq!(file.is_full(now), map.is_full(now), "is_full, call {call}");
                }
            }
        }
        // The stream merges, and fills a bounded file, or the check saw
        // neither.
        assert!(merged > 0);
        assert_eq!(refused > 0, capacity != 0);
    }

    #[test]
    fn bounded_file_agrees_with_the_map_it_replaced() {
        agrees_with_the_map(4, 1);
        agrees_with_the_map(16, 2);
    }

    #[test]
    fn unlimited_file_agrees_with_the_map_it_replaced() {
        agrees_with_the_map(0, 3);
    }
}
