//! The experiment configuration axis: the paper's six simulation
//! configurations, the prefetcher-zoo extensions, and the named AsmDB
//! tunings.

use std::fmt;

use swip_asmdb::AsmdbConfig;
use swip_core::SimConfig;
use swip_types::PrefetcherId;

/// One simulation configuration of the experiment matrix.
///
/// The paper's six points ([`ConfigId::PAPER`]): the first three run on
/// the conservative 2-entry-FTQ front-end, the last three on the
/// industry-standard 24-entry-FTQ FDP. `Asmdb*` variants simulate the
/// AsmDB-rewritten trace; `*Noov` variants simulate the original trace
/// with no-overhead prefetch hints. The zoo extensions ([`ConfigId::Mana`]
/// and [`ConfigId::ShadowBtb`]) run the original trace on the
/// industry-standard front-end with the corresponding hardware prefetcher
/// installed (DESIGN.md §16).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ConfigId {
    /// Conservative baseline (2-entry FTQ FDP).
    Base,
    /// AsmDB on the conservative front-end.
    AsmdbCons,
    /// AsmDB with no insertion overhead on the conservative front-end.
    AsmdbConsNoov,
    /// Industry-standard FDP (24-entry FTQ).
    Fdp,
    /// AsmDB on the industry-standard FDP.
    AsmdbFdp,
    /// AsmDB with no insertion overhead on the industry-standard FDP.
    AsmdbFdpNoov,
    /// MANA-style metadata record-and-replay on the industry-standard FDP.
    Mana,
    /// Shadow-branch BTB pre-fill on the industry-standard FDP.
    ShadowBtb,
}

/// A failed [`ConfigId::from_label`] parse, carrying the rejected label.
/// The `Display` form lists every valid label.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigParseError {
    /// The label that did not match any configuration.
    pub label: String,
}

impl fmt::Display for ConfigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<&str> = ConfigId::ALL.iter().map(|id| id.label()).collect();
        write!(
            f,
            "unknown configuration {:?} (expected one of: {})",
            self.label,
            labels.join(", ")
        )
    }
}

impl std::error::Error for ConfigParseError {}

impl ConfigId {
    /// Every configuration, in the canonical (figure-column) order: the
    /// paper's six followed by the zoo extensions.
    pub const ALL: [ConfigId; 8] = [
        ConfigId::Base,
        ConfigId::AsmdbCons,
        ConfigId::AsmdbConsNoov,
        ConfigId::Fdp,
        ConfigId::AsmdbFdp,
        ConfigId::AsmdbFdpNoov,
        ConfigId::Mana,
        ConfigId::ShadowBtb,
    ];

    /// The paper's six configurations (Figure 1) — the default sweep.
    pub const PAPER: [ConfigId; 6] = [
        ConfigId::Base,
        ConfigId::AsmdbCons,
        ConfigId::AsmdbConsNoov,
        ConfigId::Fdp,
        ConfigId::AsmdbFdp,
        ConfigId::AsmdbFdpNoov,
    ];

    /// Stable index into the canonical order (0–7).
    pub fn index(self) -> usize {
        match self {
            ConfigId::Base => 0,
            ConfigId::AsmdbCons => 1,
            ConfigId::AsmdbConsNoov => 2,
            ConfigId::Fdp => 3,
            ConfigId::AsmdbFdp => 4,
            ConfigId::AsmdbFdpNoov => 5,
            ConfigId::Mana => 6,
            ConfigId::ShadowBtb => 7,
        }
    }

    /// Short label used in progress lines and TSV columns.
    pub fn label(self) -> &'static str {
        match self {
            ConfigId::Base => "ftq2_fdp",
            ConfigId::AsmdbCons => "ftq2_asmdb",
            ConfigId::AsmdbConsNoov => "ftq2_asmdb_noov",
            ConfigId::Fdp => "ftq24_fdp",
            ConfigId::AsmdbFdp => "ftq24_asmdb",
            ConfigId::AsmdbFdpNoov => "ftq24_asmdb_noov",
            ConfigId::Mana => "ftq24_mana",
            ConfigId::ShadowBtb => "ftq24_shadow_btb",
        }
    }

    /// The inverse of [`ConfigId::label`]: resolves a label from a wire
    /// plan (`swip-serve` job submissions) or a report back to its id.
    ///
    /// # Errors
    ///
    /// A [`ConfigParseError`] naming the rejected label; its `Display`
    /// lists the valid ones.
    pub fn from_label(label: &str) -> Result<Self, ConfigParseError> {
        ConfigId::ALL
            .into_iter()
            .find(|id| id.label() == label)
            .ok_or_else(|| ConfigParseError {
                label: label.to_string(),
            })
    }

    /// The prefetch mechanism this configuration characterizes (the
    /// `prefetcher` column of the zoo comparison sweep).
    pub fn prefetcher(self) -> PrefetcherId {
        match self {
            ConfigId::Base | ConfigId::Fdp => PrefetcherId::Fdp,
            ConfigId::AsmdbCons
            | ConfigId::AsmdbConsNoov
            | ConfigId::AsmdbFdp
            | ConfigId::AsmdbFdpNoov => PrefetcherId::Asmdb,
            ConfigId::Mana => PrefetcherId::Mana,
            ConfigId::ShadowBtb => PrefetcherId::ShadowBtb,
        }
    }

    /// The canonical industry-standard-front-end configuration that
    /// characterizes `prefetcher` (the zoo comparison runs one
    /// configuration per mechanism, all on the 24-entry FTQ so the
    /// front-end is held constant).
    pub fn for_prefetcher(prefetcher: PrefetcherId) -> ConfigId {
        match prefetcher {
            PrefetcherId::Fdp => ConfigId::Fdp,
            PrefetcherId::Asmdb => ConfigId::AsmdbFdp,
            PrefetcherId::Mana => ConfigId::Mana,
            PrefetcherId::ShadowBtb => ConfigId::ShadowBtb,
        }
    }

    /// Whether this configuration consumes the AsmDB pipeline's output
    /// (rewritten trace or no-overhead hints).
    pub fn needs_asmdb(self) -> bool {
        !matches!(
            self,
            ConfigId::Base | ConfigId::Fdp | ConfigId::Mana | ConfigId::ShadowBtb
        )
    }

    /// The simulator configuration this runs under.
    pub fn sim_config(self) -> SimConfig {
        match self {
            ConfigId::Base | ConfigId::AsmdbCons | ConfigId::AsmdbConsNoov => {
                SimConfig::conservative()
            }
            ConfigId::Fdp | ConfigId::AsmdbFdp | ConfigId::AsmdbFdpNoov => {
                SimConfig::sunny_cove_like()
            }
            ConfigId::Mana => SimConfig {
                prefetcher: PrefetcherId::Mana,
                ..SimConfig::sunny_cove_like()
            },
            ConfigId::ShadowBtb => SimConfig {
                prefetcher: PrefetcherId::ShadowBtb,
                ..SimConfig::sunny_cove_like()
            },
        }
    }
}

/// Named AsmDB tunings, selectable with `swip bench --asmdb`.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum AsmdbTuning {
    /// The paper-default tuning ([`AsmdbConfig::default`]).
    #[default]
    Default,
    /// Lower reach threshold, more sites per target
    /// ([`AsmdbConfig::aggressive`]).
    Aggressive,
    /// Wider windows and a lower reach threshold than the default (see
    /// EXPERIMENTS.md for what each tuning measures).
    Wide,
}

impl AsmdbTuning {
    /// Parses a tuning name (`default` / `aggressive` / `wide`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "default" => Some(AsmdbTuning::Default),
            "aggressive" => Some(AsmdbTuning::Aggressive),
            "wide" => Some(AsmdbTuning::Wide),
            _ => None,
        }
    }

    /// The tuning's concrete knob values.
    pub fn config(self) -> AsmdbConfig {
        match self {
            AsmdbTuning::Default => AsmdbConfig::default(),
            AsmdbTuning::Aggressive => AsmdbConfig::aggressive(),
            AsmdbTuning::Wide => AsmdbConfig {
                min_reach: 0.25,
                max_sites_per_target: 3,
                window_factor: 8,
                miss_coverage: 0.95,
                min_misses: 4,
                ..AsmdbConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_is_self_consistent() {
        for (i, id) in ConfigId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn paper_set_is_a_prefix_of_all() {
        assert_eq!(&ConfigId::ALL[..6], &ConfigId::PAPER[..]);
    }

    #[test]
    fn asmdb_need_matches_variants() {
        assert!(!ConfigId::Base.needs_asmdb());
        assert!(!ConfigId::Fdp.needs_asmdb());
        assert!(ConfigId::AsmdbCons.needs_asmdb());
        assert!(ConfigId::AsmdbFdpNoov.needs_asmdb());
        assert!(!ConfigId::Mana.needs_asmdb());
        assert!(!ConfigId::ShadowBtb.needs_asmdb());
    }

    #[test]
    fn ftq_depth_per_config() {
        assert_eq!(ConfigId::Base.sim_config().frontend.ftq_entries, 2);
        assert_eq!(ConfigId::AsmdbFdp.sim_config().frontend.ftq_entries, 24);
        assert_eq!(ConfigId::Mana.sim_config().frontend.ftq_entries, 24);
        assert_eq!(ConfigId::ShadowBtb.sim_config().frontend.ftq_entries, 24);
    }

    #[test]
    fn zoo_configs_select_their_prefetcher() {
        assert_eq!(ConfigId::Mana.sim_config().prefetcher, PrefetcherId::Mana);
        assert_eq!(
            ConfigId::ShadowBtb.sim_config().prefetcher,
            PrefetcherId::ShadowBtb
        );
        assert_eq!(ConfigId::Fdp.sim_config().prefetcher, PrefetcherId::Fdp);
        for id in PrefetcherId::ALL {
            assert_eq!(ConfigId::for_prefetcher(id).prefetcher(), id);
        }
    }

    #[test]
    fn labels_round_trip() {
        for id in ConfigId::ALL {
            assert_eq!(ConfigId::from_label(id.label()), Ok(id));
        }
        let err = ConfigId::from_label("ftq48_fdp").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("ftq48_fdp"), "{msg}");
        for id in ConfigId::ALL {
            assert!(msg.contains(id.label()), "{msg} missing {}", id.label());
        }
    }

    #[test]
    fn tuning_names_round_trip() {
        assert_eq!(AsmdbTuning::parse("default"), Some(AsmdbTuning::Default));
        assert_eq!(
            AsmdbTuning::parse("aggressive"),
            Some(AsmdbTuning::Aggressive)
        );
        assert_eq!(AsmdbTuning::parse("wide"), Some(AsmdbTuning::Wide));
        assert_eq!(AsmdbTuning::parse("bogus"), None);
    }
}
