//! # ses-service — the owned, handle-based service facade
//!
//! `ses-core` exposes the engine as a library: `Arc<SesInstance>` handles,
//! [`OnlineSession`](ses_core::OnlineSession)s, typed errors. This crate
//! shapes that into what a server, CLI or simulator actually speaks:
//! **serde-serializable requests and responses**. The stateless work is
//! free functions any thread may run; the only state is a
//! [`SchedulerService`] holding any number of *named* live sessions, each
//! bound to its own owned instance (multi-tenant by construction).
//!
//! * [`solve`] / [`evaluate`]: [`SolveRequest`] / [`EvalRequest`] →
//!   [`SolveResponse`] / [`EvalResponse`] — stateless scheduling and
//!   evaluation;
//! * [`SessionOpen`] → open a named session: [`prepare_session`] solves
//!   and builds it (stateless), [`SchedulerService::adopt_session`] names
//!   it, and [`SchedulerService::open_session`] is the two in one call;
//!   [`SessionEvent`] (announce /
//!   cancel / arrive / capacity / availability / extend) → [`EventReport`]
//!   with the repair accounting ([`RepairReport`](ses_core::RepairReport));
//! * [`SessionReport`] — point-in-time session summaries;
//! * [`InstanceRegistry`] — the multi-tenant map of *named* instances
//!   (in-memory or lazily opened from `ses pack` files); requests carry an
//!   [`InstanceName`] that defaults to `"default"` so legacy wire JSON
//!   parses unchanged.
//!
//! Everything the service owns is `Send + 'static`, so a service can live
//! behind a lock, move across threads, and outlive the scope that built its
//! instances. The `ses` CLI and the `ses-sim` simulator both drive this
//! facade — one code path from the command line to any future network
//! front end.
//!
//! ## Open a session, stream events, read the report
//!
//! ```
//! use ses_core::{testkit, SchedulerSpec, UserId};
//! use ses_service::{
//!     Announcement, Cancellation, SchedulerService, SessionEvent, SessionOpen,
//! };
//!
//! let inst = testkit::medium_instance(7); // Arc<SesInstance>
//! let mut service = SchedulerService::new();
//!
//! // Open: solve an initial schedule and keep it live under a name.
//! let solved = service
//!     .open_session(
//!         &inst,
//!         &SessionOpen {
//!             name: "main".into(),
//!             spec: SchedulerSpec::Greedy,
//!             k: 6,
//!             instance: Default::default(),
//!         },
//!     )
//!     .unwrap();
//! assert_eq!(solved.scheduled(), 6);
//!
//! // Stream disruptions: a rival lands on a busy interval…
//! let busy = service.session("main").unwrap().schedule()
//!     .occupied_intervals().next().unwrap();
//! let rival = SessionEvent::Announce(Announcement {
//!     interval: busy,
//!     postings: (0..inst.num_users())
//!         .map(|u| (UserId::new(u as u32), 0.8))
//!         .collect(),
//! });
//! let hit = service.apply("main", &rival).unwrap();
//! assert!(hit.applied && hit.report.is_some());
//!
//! // …an act cancels, the session backfills…
//! let victim = service.session("main").unwrap().schedule().scheduled_events()[0];
//! service
//!     .apply("main", &SessionEvent::Cancel(Cancellation { event: victim }))
//!     .unwrap();
//!
//! // …and the report sums it all up.
//! let report = service.report("main").unwrap();
//! assert_eq!(report.events_applied, 2);
//! assert!(report.utility > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod registry;
mod service;
mod types;

pub use error::ServiceError;
pub use registry::{InstanceInfo, InstanceRegistry};
pub use service::{evaluate, prepare_session, solve, SchedulerService};
pub use types::{
    Announcement, Arrival, Availability, Cancellation, CapacityChange, EvalRequest, EvalResponse,
    EventAttendance, EventReport, InstanceName, SessionEvent, SessionOpen, SessionReport,
    SolveRequest, SolveResponse,
};
