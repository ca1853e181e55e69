//! Graph functional dependencies: the core of the ICDE 2018 reproduction.
//!
//! A GFD `ϕ = Q[x̄](X → Y)` combines a topological constraint (the graph
//! pattern `Q`) with an attribute dependency (`X → Y` over the pattern
//! variables). This crate implements:
//!
//! * the GFD model itself ([`Gfd`], [`Literal`], [`GfdSet`]) and direct
//!   validation `G |= ϕ` on data graphs ([`validate`]);
//! * canonical graphs `GΣ` / `G^X_Q` — the small models of Theorems 1 and 3
//!   ([`canonical`]);
//! * the equivalence relation `Eq` with constant bindings, conflicts,
//!   watcher-based pending rechecks and replayable deltas ([`eq`]);
//! * the enforcement engine shared by every algorithm ([`enforce`]);
//! * the unified reasoning driver ([`driver`]) — the one goal-parameterized
//!   fixpoint loop, run on the `gfd-runtime` work-stealing scheduler. Each
//!   goal has one entry point taking a [`ReasonConfig`]:
//!   [`sat_with_config()`] and [`imp_with_config()`] are **SeqSat**/**SeqImp**
//!   at `workers = 1` and **ParSat**/**ParImp** above it; [`seq_sat()`] and
//!   [`seq_imp()`] are their one-argument sequential defaults;
//! * pivoted work units and their dependency-graph ordering ([`mod@unit`]);
//! * model extraction ([`model`]) and dependency ordering ([`ordering`]).

#![warn(missing_docs)]

pub mod budget;
pub mod canonical;
pub mod dependency;
pub mod driver;
pub mod enforce;
pub mod eq;
pub mod error;
pub mod gfd;
pub mod literal;
pub mod model;
pub mod ordering;
pub mod seq_imp;
pub mod seq_sat;
pub mod sigma;
pub mod unit;
pub mod validate;

pub use budget::{Budget, Interrupt};
pub use canonical::{
    build_plans, build_plans_lazy, choose_pivot, consequence_deducible, consequence_lits_deducible,
    CanonicalGraph,
};
pub use dependency::{generate_deducible, Consequence, DepSet, Dependency, GenerateConsequence};
pub use driver::{run_reason, Goal, ReasonConfig, ReasonRun, TerminalEvent};
pub use enforce::{eval_premise, eval_premise_lits, EnforceEngine, EngineStats, PremiseStatus};
pub use eq::{EqOp, EqRel};
pub use error::{AttrKey, Conflict};
pub use gfd::{Gfd, FALSE_ATTR_NAME};
pub use literal::{Literal, Operand};
pub use model::extract_model;
pub use ordering::order_gfds;
pub use seq_imp::{
    ggd_imp_with_config, imp_with_config, seq_imp, ImpOutcome, ImpResult, ImpliedVia,
};
pub use seq_sat::{sat_with_config, seq_sat, SatOutcome, SatResult};
pub use sigma::GfdSet;
pub use unit::{generate_units, order_units, WorkUnit};
pub use validate::{find_violations, graph_satisfies, graph_satisfies_all, Violation};
