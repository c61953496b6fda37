//! # ses-core — Social Event Scheduling
//!
//! A faithful, production-quality implementation of the **Social Event
//! Scheduling (SES)** problem introduced by Bikakis, Kalogeraki and
//! Gunopulos (*ICDE 2018*): given candidate events, disjoint candidate time
//! intervals, competing third-party events and a population of users with
//! per-event interests and per-interval activity probabilities, schedule `k`
//! events so that the total expected attendance is maximized, subject to
//! per-interval location and resource constraints.
//!
//! ## What lives where
//!
//! * [`model`] — intervals, candidate events, competing events, organizer;
//! * [`interest`] / [`activity`] — the `µ(u,h)` and `σ(u,t)` inputs: per-event
//!   posting lists ([`Interest`]) and a by-user CSR of active intervals
//!   ([`Activity`]);
//! * [`instance`] — validated problem instances ([`SesInstance`]);
//! * [`schedule`] — assignments and schedules;
//! * [`engine`] — the Luce-choice attendance engine: probabilities (Eq. 1),
//!   expected attendance (Eq. 2), total utility (Eq. 3) and incremental
//!   assignment scores (Eq. 4). The aggregates live in a **columnar slot
//!   index** (flat `B`/`M`/count/`σ` columns over ranked posting-list
//!   users, `DESIGN.md` §2) with batch scoring APIs
//!   ([`AttendanceEngine::score_all`], [`AttendanceEngine::score_frontier`])
//!   that count into the engine's own [`EngineCounters`];
//! * [`algorithms`] — the paper's greedy **GRD** (Algorithm 1), the **TOP**
//!   and **RAND** baselines, a priority-queue greedy (**GRD-PQ**), an exact
//!   branch-and-bound oracle and a local-search post-optimizer;
//! * [`registry`] — the algorithm registry: [`SchedulerSpec`] parsing and
//!   [`registry::build`], the single mapping from spec strings to runnable
//!   schedulers (front ends must not string-match algorithm names);
//! * [`online`] — live schedule maintenance under disruptions
//!   ([`OnlineSession`]);
//! * [`error`] — the unified [`Error`] hierarchy folding every subsystem
//!   error into one type with `From` conversions;
//! * [`reduction`] — the Theorem 1 MKPI → SES reduction, executable;
//! * [`store`] — the persisted columnar instance store: pack a validated
//!   instance once, cold-open it later bit-identically (versioned,
//!   checksummed sections; `DESIGN.md` §12);
//! * [`testkit`] — deterministic instance factories for tests and benches.
//!
//! ## Ownership model
//!
//! [`SesInstance`] is immutable after construction and always handled as an
//! `Arc<SesInstance>` (`InstanceBuilder::build_shared` returns one).
//! [`AttendanceEngine`] and [`OnlineSession`] *own* a shared handle rather
//! than borrowing, so both are `Send + 'static`: a long-lived server can
//! keep sessions for many tenants in a map, move them across threads, and
//! drop instances only when the last engine is done. The higher-level
//! `ses-service` crate builds its request/response facade on exactly this
//! property.
//!
//! ## Quick example
//!
//! ```
//! use ses_core::prelude::*;
//!
//! // 2 users, 2 candidate events, 2 evening slots, 1 competing event.
//! let mut interest = InterestBuilder::new(2, 2, 1);
//! interest.set(UserId::new(0), EventId::new(0), 0.9).unwrap();
//! interest.set(UserId::new(1), EventId::new(1), 0.7).unwrap();
//! interest.set(UserId::new(0), CompetingEventId::new(0), 0.4).unwrap();
//!
//! let instance = SesInstance::builder()
//!     .organizer(Organizer::new(10.0))
//!     .intervals(uniform_grid(2, 180))
//!     .events(vec![
//!         CandidateEvent::new(EventId::new(0), LocationId::new(0), 2.0),
//!         CandidateEvent::new(EventId::new(1), LocationId::new(1), 2.0),
//!     ])
//!     .competing(vec![CompetingEvent::new(CompetingEventId::new(0), IntervalId::new(0))])
//!     .interest(interest.build().unwrap())
//!     .activity(Activity::constant(2, 2, 0.8).unwrap())
//!     .build_shared() // Arc<SesInstance> — the handle engines consume
//!     .unwrap();
//!
//! let outcome = GreedyScheduler::new().run(&instance, 2).unwrap();
//! assert_eq!(outcome.len(), 2);
//! assert!(outcome.total_utility > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activity;
pub mod algorithms;
pub mod engine;
pub mod error;
pub mod ids;
pub mod instance;
pub mod interest;
pub mod metrics;
pub mod model;
pub mod online;
pub mod reduction;
pub mod registry;
pub mod schedule;
pub mod store;
pub mod testkit;
pub mod util;

pub use activity::Activity;
pub use algorithms::{
    AnnealingConfig, AnnealingScheduler, ExactScheduler, GreedyHeapScheduler, GreedyScheduler,
    LocalSearchConfig, LocalSearchScheduler, RandomScheduler, RunStats, ScheduleOutcome, Scheduler,
    SesError, TopScheduler,
};
pub use engine::{
    evaluate, AttendanceEngine, EngineCounters, EngineIndex, EngineMemoryStats, Evaluation,
};
pub use error::Error;
pub use ids::{CompetingEventId, EventId, EventRef, IntervalId, LocationId, UserId};
pub use instance::{FeasibilityViolation, InstanceBuilder, SesInstance, ValidationError};
pub use interest::{Interest, InterestBuilder};
pub use metrics::{schedule_metrics, IntervalReport, ScheduleMetrics};
pub use model::{
    spaced_grid, uniform_grid, CandidateEvent, CompetingEvent, Organizer, TimeInterval,
};
pub use online::{OnlineSession, RepairReport};
pub use registry::{SchedulerSpec, UnknownScheduler, SPEC_NAMES};
pub use schedule::{Assignment, Schedule, ScheduleError};
pub use store::{FoldState, StoreError};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::activity::Activity;
    pub use crate::algorithms::{
        AnnealingScheduler, ExactScheduler, GreedyHeapScheduler, GreedyScheduler,
        LocalSearchScheduler, RandomScheduler, RunStats, ScheduleOutcome, Scheduler, SesError,
        TopScheduler,
    };
    pub use crate::engine::{evaluate, AttendanceEngine, EngineMemoryStats, Evaluation};
    pub use crate::error::Error;
    pub use crate::ids::{CompetingEventId, EventId, EventRef, IntervalId, LocationId, UserId};
    pub use crate::instance::{FeasibilityViolation, InstanceBuilder, SesInstance};
    pub use crate::interest::{Interest, InterestBuilder};
    pub use crate::metrics::{schedule_metrics, ScheduleMetrics};
    pub use crate::model::{
        spaced_grid, uniform_grid, CandidateEvent, CompetingEvent, Organizer, TimeInterval,
    };
    pub use crate::online::{OnlineSession, RepairReport};
    pub use crate::registry::{self, SchedulerSpec};
    pub use crate::schedule::{Assignment, Schedule};
}
