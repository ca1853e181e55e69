//! The chase: the paper's baseline and the engine of GFD+GGD reasoning.
//!
//! The paper compares its algorithms against a chase implementation for
//! RDF FDs (`ParImpRDF`, Fig. 5 and Fig. 6(f)). This crate provides:
//!
//! * [`chase`] — the one round-based fixpoint chase over canonical graphs
//!   ([`chase::dep_chase_with_config`]): no ordering, no inverted index,
//!   full premise re-scans. Each round's premise scan runs as a
//!   `gfd_runtime::Task` on the shared work-stealing scheduler and
//!   reports unified `RunMetrics`. A literal-only set commits each round
//!   serially; a set with generating rules plans its firings on the
//!   scheduler and commits them through the conflict partition under a
//!   fresh-node budget (DESIGN.md §10, §12);
//! * [`sat_chase::chase_sat`] — satisfiability via the chase over `GΣ`;
//! * [`imp_rdf::chase_imp`] — implication via the chase over `G^X_Q`;
//! * [`rule`] — RDF triple-pattern FDs and their embedding into GFDs
//!   (GFDs subsume the constraints of Hellings et al., §VIII);
//! * [`ggd`] — the router for generalized dependency sets (GFDs + GGDs):
//!   literal-only sets go to the `gfd-core` driver, sets with a
//!   generating rule to `chase_sat` / `chase_imp`. On a literal set those
//!   two are the paper's chase baseline.

#![warn(missing_docs)]

pub mod chase;
pub mod ggd;
pub mod imp_rdf;
pub mod rule;
pub mod sat_chase;

pub use chase::{dep_chase_with_config, ChaseConfig, ChaseStats, DepChaseOutcome};
pub use ggd::{
    dep_imp, dep_imp_with_config, dep_sat, dep_sat_with_config, DepImpOutcome, DepImpResult,
    DepSatOutcome, DepSatResult,
};
pub use imp_rdf::{chase_imp, chase_imp_with_config};
pub use rule::{RdfConstraint, RdfFd, TriplePattern};
pub use sat_chase::{chase_sat, chase_sat_with_config};
