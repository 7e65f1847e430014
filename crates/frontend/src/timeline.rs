//! Cycle-sampled scenario timeline.
//!
//! The taxonomy counters ([`crate::FtqStats`]) say how *much* time a run
//! spends in each FTQ state; they cannot say *when*. The timeline records a
//! bounded, strided sample of the per-cycle [`Scenario`] classification so a
//! run's phase behavior (cold-start shadow stalls, steady-state
//! shoot-through, loop transitions) can be inspected after the fact — e.g.
//! exported as a Chrome trace by `swip-report`.

use std::collections::VecDeque;

use swip_types::Cycle;

use crate::stats::Scenario;

/// Configuration of the scenario timeline sampler.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TimelineConfig {
    /// Record one sample every `stride` cycles (1 = every cycle). A stride
    /// of 0 is treated as 1.
    pub stride: u64,
    /// Maximum retained samples; once full, the *oldest* samples are
    /// dropped so the timeline always covers the tail of the run.
    pub capacity: usize,
}

impl Default for TimelineConfig {
    /// 4096 samples at stride 64: ~256 K cycles of coverage for free.
    fn default() -> Self {
        TimelineConfig {
            stride: 64,
            capacity: 4096,
        }
    }
}

/// One retained sample: the scenario observed at a cycle.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TimelineSample {
    /// The cycle the sample was taken at.
    pub cycle: Cycle,
    /// The FTQ scenario classification that cycle.
    pub scenario: Scenario,
}

/// A bounded ring buffer of strided scenario samples.
///
/// # Examples
///
/// ```
/// use swip_frontend::{Scenario, ScenarioTimeline, TimelineConfig};
///
/// let mut t = ScenarioTimeline::new(TimelineConfig { stride: 2, capacity: 8 });
/// for c in 0..10 {
///     t.record(c, Scenario::ShootThrough);
/// }
/// assert_eq!(t.samples().count(), 5); // cycles 0, 2, 4, 6, 8
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioTimeline {
    config: TimelineConfig,
    samples: VecDeque<TimelineSample>,
    /// Samples evicted because the buffer was full (not stride-skipped).
    dropped: u64,
}

impl ScenarioTimeline {
    /// Creates an empty timeline with the given sampling policy.
    pub fn new(config: TimelineConfig) -> Self {
        let capacity = config.capacity.max(1);
        ScenarioTimeline {
            config: TimelineConfig {
                stride: config.stride.max(1),
                capacity,
            },
            samples: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// The (normalized) sampling policy.
    pub fn config(&self) -> TimelineConfig {
        self.config
    }

    /// Offers this cycle's classification; retained only on stride
    /// boundaries. Evicts the oldest sample when full.
    pub fn record(&mut self, cycle: Cycle, scenario: Scenario) {
        if !cycle.is_multiple_of(self.config.stride) {
            return;
        }
        if self.samples.len() >= self.config.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(TimelineSample { cycle, scenario });
    }

    /// Offers the same classification for each of the `cycles` cycles
    /// starting at `start`, as that many [`record`](Self::record) calls
    /// would, visiting only the stride boundaries.
    pub fn record_span(&mut self, start: Cycle, cycles: u64, scenario: Scenario) {
        let first = start.next_multiple_of(self.config.stride);
        for cycle in (first..start + cycles).step_by(self.config.stride as usize) {
            self.record(cycle, scenario);
        }
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TimelineSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted to bound memory (the head of the run is lost first).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the timeline, returning the retained samples oldest-first.
    pub fn into_samples(self) -> Vec<TimelineSample> {
        self.samples.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_skips_between_samples() {
        let mut t = ScenarioTimeline::new(TimelineConfig {
            stride: 4,
            capacity: 100,
        });
        for c in 0..17 {
            t.record(c, Scenario::Empty);
        }
        let cycles: Vec<u64> = t.samples().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![0, 4, 8, 12, 16]);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut t = ScenarioTimeline::new(TimelineConfig {
            stride: 1,
            capacity: 3,
        });
        for c in 0..5 {
            t.record(c, Scenario::StallingHead);
        }
        let cycles: Vec<u64> = t.samples().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]); // tail of the run survives
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn zero_stride_and_capacity_are_normalized() {
        let mut t = ScenarioTimeline::new(TimelineConfig {
            stride: 0,
            capacity: 0,
        });
        assert_eq!(t.config().stride, 1);
        assert_eq!(t.config().capacity, 1);
        t.record(0, Scenario::ShootThrough);
        t.record(1, Scenario::ShadowStall);
        assert_eq!(t.len(), 1);
        assert_eq!(t.samples().next().unwrap().scenario, Scenario::ShadowStall);
    }

    #[test]
    fn a_span_records_as_its_cycles_would_one_by_one() {
        let config = TimelineConfig {
            stride: 7,
            capacity: 5,
        };
        let spans = [
            (0, 3, Scenario::Empty),
            (3, 1, Scenario::ShootThrough),
            (4, 40, Scenario::StallingHead),
            (44, 6, Scenario::ShootThrough),
            (50, 0, Scenario::Empty),
            (50, 13, Scenario::ShadowStall),
        ];
        let mut bulk = ScenarioTimeline::new(config);
        let mut each = ScenarioTimeline::new(config);
        for (start, cycles, scenario) in spans {
            bulk.record_span(start, cycles, scenario);
            for c in start..start + cycles {
                each.record(c, scenario);
            }
        }
        assert!(each.dropped() > 0, "the spans must overflow the capacity");
        assert_eq!(bulk.dropped(), each.dropped());
        assert_eq!(
            bulk.samples().collect::<Vec<_>>(),
            each.samples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn into_samples_preserves_order() {
        let mut t = ScenarioTimeline::new(TimelineConfig {
            stride: 1,
            capacity: 8,
        });
        t.record(0, Scenario::ShootThrough);
        t.record(1, Scenario::ShadowStall);
        let v = t.into_samples();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].scenario, Scenario::ShootThrough);
        assert_eq!(v[1].scenario, Scenario::ShadowStall);
    }
}
