//! The algorithm registry: one place that maps scheduler *specs* — typed
//! values or their string spellings — to runnable [`Scheduler`] instances.
//!
//! Front ends (CLI flags, bench configs, service requests) should never
//! string-match algorithm names themselves; they parse a [`SchedulerSpec`]
//! and hand it to [`build`]. Unknown names come back as a typed
//! [`UnknownScheduler`] error that lists every valid spelling.
//!
//! ```
//! use ses_core::registry::{self, SchedulerSpec};
//!
//! let spec: SchedulerSpec = "GRD+LS".parse().unwrap();
//! assert_eq!(spec, SchedulerSpec::GreedyLocalSearch);
//! assert_eq!(spec.name(), "GRD+LS");
//! let scheduler = registry::build(spec);
//! assert_eq!(scheduler.name(), "LS"); // the pipeline's final stage
//!
//! // Stochastic specs carry their seed; `RAND:42` pins it in the string.
//! assert_eq!("RAND:42".parse(), Ok(SchedulerSpec::Random(42)));
//!
//! // Unknown names are typed errors listing the valid specs.
//! let err = "FANCY".parse::<SchedulerSpec>().unwrap_err();
//! assert!(err.to_string().contains("GRD"));
//! ```

use crate::algorithms::{
    AnnealingScheduler, ExactScheduler, GreedyHeapScheduler, GreedyScheduler, LocalSearchScheduler,
    RandomScheduler, Scheduler, TopScheduler,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A typed description of *which* scheduler to run (and with what seed).
///
/// Specs are plain data: serializable, comparable, and cheap to copy — the
/// wire-format counterpart of a `Box<dyn Scheduler>`. [`build`] turns a spec
/// into the live algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// The paper's greedy, list-based (Algorithm 1), with a dirty-interval
    /// filtered rescan after each commit. Name: `GRD`.
    Greedy,
    /// CELF-style lazy greedy: stale-tagged max-heap over the engine's
    /// dirty-interval generations. Name: `GRD-PQ` (aliases `LAZY`, `CELF`,
    /// `GRD-PQ-LAZY`).
    GreedyHeap,
    /// The TOP baseline. Name: `TOP`.
    Top,
    /// The RAND baseline with its RNG seed. Name: `RAND` (or `RAND:seed`).
    Random(u64),
    /// GRD followed by local search. Name: `GRD+LS`.
    GreedyLocalSearch,
    /// GRD followed by simulated annealing. Name: `GRD+SA`.
    GreedyAnnealing,
    /// The exact branch-and-bound oracle (small instances). Name: `EXACT`.
    Exact,
}

/// The canonical spec names [`SchedulerSpec::parse`] accepts, in display
/// order. Aliases (`PQ`, `LAZY`, `CELF`, `LS`, `RANDOM`, …) and a `:seed`
/// suffix on `RAND` are accepted too.
pub const SPEC_NAMES: &[&str] = &["GRD", "GRD-PQ", "TOP", "RAND", "GRD+LS", "GRD+SA", "EXACT"];

/// Accepted alias spellings, shown alongside [`SPEC_NAMES`] in the
/// [`UnknownScheduler`] message so a near-miss (`lazy-grd`, `celf2`, …)
/// surfaces every spelling that *would* have worked. Keep in lockstep with
/// the `match` in [`SchedulerSpec::parse`] (pinned by a test).
pub const SPEC_ALIASES: &[&str] = &[
    "LAZY",
    "CELF",
    "GRD-PQ-LAZY",
    "PQ",
    "GRDPQ",
    "LS",
    "GRDLS",
    "SA",
    "GRDSA",
    "RANDOM",
    "GREEDY",
];

impl SchedulerSpec {
    /// The paper's method set (Fig. 1): GRD, TOP, RAND (seed 0).
    pub fn paper_set() -> Vec<SchedulerSpec> {
        vec![
            SchedulerSpec::Greedy,
            SchedulerSpec::Top,
            SchedulerSpec::Random(0),
        ]
    }

    /// Parses a spec from its CLI/config spelling (case-insensitive).
    ///
    /// Accepted: `GRD`; `GRD-PQ`/`GRDPQ`/`PQ`/`LAZY`/`CELF`/`GRD-PQ-LAZY`;
    /// `TOP`; `RAND`/`RANDOM` (optionally `RAND:seed`);
    /// `GRD+LS`/`GRDLS`/`LS`; `GRD+SA`/`GRDSA`/`SA`; `EXACT`. Anything else
    /// is an [`UnknownScheduler`] listing the valid spellings.
    pub fn parse(s: &str) -> Result<Self, UnknownScheduler> {
        let upper = s.trim().to_ascii_uppercase();
        let (name, seed) = match upper.split_once(':') {
            Some((name, seed_str)) => {
                let seed = seed_str.parse::<u64>().map_err(|_| UnknownScheduler {
                    name: s.trim().to_owned(),
                })?;
                (name, Some(seed))
            }
            None => (upper.as_str(), None),
        };
        let spec = match name {
            "GRD" | "GREEDY" => SchedulerSpec::Greedy,
            "GRD-PQ" | "GRDPQ" | "PQ" | "LAZY" | "CELF" | "GRD-PQ-LAZY" => {
                SchedulerSpec::GreedyHeap
            }
            "TOP" => SchedulerSpec::Top,
            "RAND" | "RANDOM" => SchedulerSpec::Random(seed.unwrap_or(0)),
            "GRD+LS" | "GRDLS" | "LS" => SchedulerSpec::GreedyLocalSearch,
            "GRD+SA" | "GRDSA" | "SA" => SchedulerSpec::GreedyAnnealing,
            "EXACT" => SchedulerSpec::Exact,
            _ => {
                return Err(UnknownScheduler {
                    name: s.trim().to_owned(),
                })
            }
        };
        // A seed suffix only makes sense on the stochastic spec.
        match (spec, seed) {
            (SchedulerSpec::Random(_), _) | (_, None) => Ok(spec),
            _ => Err(UnknownScheduler {
                name: s.trim().to_owned(),
            }),
        }
    }

    /// Re-seeds the spec if it is stochastic; deterministic specs are
    /// returned unchanged. Lets front ends apply a global `--seed` flag
    /// without matching on variants.
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            SchedulerSpec::Random(_) => SchedulerSpec::Random(seed),
            other => other,
        }
    }

    /// The stable display name used in reports and figures. Composite specs
    /// report the full pipeline (`GRD+LS`), while the built scheduler's own
    /// [`Scheduler::name`] reports only the post-optimizer stage (`LS`).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::Greedy => "GRD",
            SchedulerSpec::GreedyHeap => "GRD-PQ",
            SchedulerSpec::Top => "TOP",
            SchedulerSpec::Random(_) => "RAND",
            SchedulerSpec::GreedyLocalSearch => "GRD+LS",
            SchedulerSpec::GreedyAnnealing => "GRD+SA",
            SchedulerSpec::Exact => "EXACT",
        }
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerSpec::Random(seed) => write!(f, "RAND:{seed}"),
            other => f.write_str(other.name()),
        }
    }
}

impl FromStr for SchedulerSpec {
    type Err = UnknownScheduler;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchedulerSpec::parse(s)
    }
}

/// A scheduler spec string that matched no registered algorithm.
///
/// The `Display` form lists every valid canonical spelling, so surfacing
/// this error verbatim gives users an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheduler {
    /// The rejected input.
    pub name: String,
}

impl fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheduler '{}' (valid specs: {}; aliases: {})",
            self.name,
            SPEC_NAMES.join(", "),
            SPEC_ALIASES.join(", ")
        )
    }
}

impl std::error::Error for UnknownScheduler {}

/// Instantiates the scheduler a spec describes.
///
/// The returned box is `Send + Sync`, so built schedulers can be shared
/// across the bench harness's scoped threads or stored in services.
pub fn build(spec: SchedulerSpec) -> Box<dyn Scheduler + Send + Sync> {
    match spec {
        SchedulerSpec::Greedy => Box::new(GreedyScheduler::new()),
        SchedulerSpec::GreedyHeap => Box::new(GreedyHeapScheduler::new()),
        SchedulerSpec::Top => Box::new(TopScheduler::new()),
        SchedulerSpec::Random(seed) => Box::new(RandomScheduler::new(seed)),
        SchedulerSpec::GreedyLocalSearch => {
            Box::new(LocalSearchScheduler::new(GreedyScheduler::new()))
        }
        SchedulerSpec::GreedyAnnealing => Box::new(AnnealingScheduler::new(GreedyScheduler::new())),
        SchedulerSpec::Exact => Box::new(ExactScheduler::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn parses_canonical_names_and_aliases() {
        assert_eq!(SchedulerSpec::parse("grd"), Ok(SchedulerSpec::Greedy));
        assert_eq!(SchedulerSpec::parse("GREEDY"), Ok(SchedulerSpec::Greedy));
        assert_eq!(SchedulerSpec::parse("PQ"), Ok(SchedulerSpec::GreedyHeap));
        assert_eq!(
            SchedulerSpec::parse("grd-pq"),
            Ok(SchedulerSpec::GreedyHeap)
        );
        // The CELF lazy greedy's alias family all lands on GRD-PQ.
        assert_eq!(SchedulerSpec::parse("LAZY"), Ok(SchedulerSpec::GreedyHeap));
        assert_eq!(SchedulerSpec::parse("celf"), Ok(SchedulerSpec::GreedyHeap));
        assert_eq!(
            SchedulerSpec::parse("grd-pq-lazy"),
            Ok(SchedulerSpec::GreedyHeap)
        );
        assert_eq!(SchedulerSpec::parse("TOP"), Ok(SchedulerSpec::Top));
        assert_eq!(SchedulerSpec::parse("random"), Ok(SchedulerSpec::Random(0)));
        assert_eq!(
            SchedulerSpec::parse("RAND:123"),
            Ok(SchedulerSpec::Random(123))
        );
        assert_eq!(
            SchedulerSpec::parse(" ls "),
            Ok(SchedulerSpec::GreedyLocalSearch)
        );
        assert_eq!(
            SchedulerSpec::parse("GRD+SA"),
            Ok(SchedulerSpec::GreedyAnnealing)
        );
        assert_eq!(SchedulerSpec::parse("exact"), Ok(SchedulerSpec::Exact));
    }

    #[test]
    fn rejects_unknown_names_with_listing() {
        let err = SchedulerSpec::parse("GRD2").unwrap_err();
        assert_eq!(err.name, "GRD2");
        let msg = err.to_string();
        for name in SPEC_NAMES {
            assert!(msg.contains(name), "message must list {name}: {msg}");
        }
        for alias in SPEC_ALIASES {
            assert!(
                msg.contains(alias),
                "message must list alias {alias}: {msg}"
            );
        }
        // Seed suffixes only apply to RAND; a bad seed is rejected too.
        assert!(SchedulerSpec::parse("GRD:4").is_err());
        assert!(SchedulerSpec::parse("LAZY:4").is_err());
        assert!(SchedulerSpec::parse("RAND:notanumber").is_err());
    }

    #[test]
    fn every_listed_alias_parses() {
        // SPEC_ALIASES documents working spellings; a listed alias that
        // fails to parse (or a canonical name missing from SPEC_NAMES)
        // would make the UnknownScheduler message lie.
        for spelling in SPEC_NAMES.iter().chain(SPEC_ALIASES) {
            assert!(
                SchedulerSpec::parse(spelling).is_ok(),
                "listed spelling '{spelling}' does not parse"
            );
        }
    }

    #[test]
    fn with_seed_touches_only_stochastic_specs() {
        assert_eq!(
            SchedulerSpec::Random(0).with_seed(9),
            SchedulerSpec::Random(9)
        );
        assert_eq!(SchedulerSpec::Greedy.with_seed(9), SchedulerSpec::Greedy);
    }

    #[test]
    fn display_round_trips_through_parse() {
        let specs = [
            SchedulerSpec::Greedy,
            SchedulerSpec::GreedyHeap,
            SchedulerSpec::Top,
            SchedulerSpec::Random(77),
            SchedulerSpec::GreedyLocalSearch,
            SchedulerSpec::GreedyAnnealing,
            SchedulerSpec::Exact,
        ];
        for spec in specs {
            let text = spec.to_string();
            assert_eq!(SchedulerSpec::parse(&text), Ok(spec), "spec {text}");
        }
    }

    #[test]
    fn built_schedulers_match_spec_names_and_run() {
        let inst = testkit::small_instance(3);
        for name in SPEC_NAMES {
            let spec = SchedulerSpec::parse(name).unwrap();
            let scheduler = build(spec);
            // Composite specs (GRD+LS, GRD+SA) report the full pipeline
            // while the built scheduler names its final stage.
            assert!(
                spec.name().contains(scheduler.name()),
                "spec {} vs scheduler {}",
                spec.name(),
                scheduler.name()
            );
            let out = scheduler.run(&inst, 2).unwrap();
            inst.check_schedule(&out.schedule).unwrap();
        }
    }

    #[test]
    fn paper_set_is_the_figure_one_lineup() {
        let names: Vec<&str> = SchedulerSpec::paper_set()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, ["GRD", "TOP", "RAND"]);
    }
}
