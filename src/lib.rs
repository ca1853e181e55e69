//! # gfd — reasoning about Graph Functional Dependencies
//!
//! A Rust implementation of *"Parallel Reasoning of Graph Functional
//! Dependencies"* (Fan, Liu, Cao — ICDE 2018): exact sequential and
//! parallel-scalable algorithms for the two classical static analyses of
//! GFDs,
//!
//! * **satisfiability** — does a set Σ of GFDs have a model? (coNP-complete)
//! * **implication** — does Σ entail another GFD ϕ? (NP-complete)
//!
//! plus the substrates they need: property graphs, homomorphism matching,
//! graph simulation, a chase baseline, generators and a text format.
//!
//! ## Quick start
//!
//! ```
//! use gfd::prelude::*;
//!
//! let mut vocab = Vocab::new();
//! // Two rules about the same (wildcard) entities that cannot coexist:
//! let sigma = gfd::dsl::parse_document(
//!     "gfd phi5 { pattern { node x: _ } then { x.A = 0 } }
//!      gfd phi6 { pattern { node x: _ } then { x.A = 1 } }",
//!     &mut vocab,
//! ).unwrap().gfds;
//!
//! // SeqSat is the one-argument sequential default …
//! assert!(!gfd::seq_sat(&sigma).is_satisfiable());
//! // … and ParSat the same entry point run with p workers.
//! let par = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(4));
//! assert!(!par.is_satisfiable());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | graphs, patterns, vocabularies, neighborhoods |
//! | [`matching`] | homomorphism search, splitting, simulation |
//! | [`runtime`] | the work-stealing scheduler every workload runs on |
//! | [`core`] | GFDs, canonical graphs, the unified reasoning driver — Sat and Imp at any worker count (`sat_with_config`, `imp_with_config`) — and validation |
//! | [`chase`] | GFD+GGD reasoning (`dep_sat_with_config`, `dep_imp_with_config`) and the chase baselines (`ParImpRDF`) |
//! | [`gen`] | schema-driven GFD/graph generators and workloads |
//! | [`dsl`] | the text format |
//! | [`detect`] | parallel violation detection on data graphs |
//! | [`incr`] | incremental detection over streaming delta batches |
//! | [`ged`] | GEDs: id literals, order predicates, disjunction (§IX) |
//! | [`io`] | JSON and SNAP edge-list interchange |

#![warn(missing_docs)]

/// Property-graph substrate (re-export of `gfd-graph`).
pub use gfd_graph as graph;

/// Homomorphism matching (re-export of `gfd-match`).
pub use gfd_match as matching;

/// The shared work-stealing scheduler (re-export of `gfd-runtime`).
pub use gfd_runtime as runtime;

/// GFDs and sequential and parallel reasoning (re-export of `gfd-core`).
pub use gfd_core as core;

/// Chase baselines (re-export of `gfd-chase`).
pub use gfd_chase as chase;

/// Generators and workloads (re-export of `gfd-gen`).
pub use gfd_gen as gen;

/// Text format (re-export of `gfd-dsl`).
pub use gfd_dsl as dsl;

/// Parallel violation detection on data graphs (re-export of `gfd-detect`).
pub use gfd_detect as detect;

/// Incremental detection over streaming delta batches (re-export of
/// `gfd-incr`).
pub use gfd_incr as incr;

/// Graph entity dependencies — the §IX extension (re-export of `gfd-ged`).
pub use gfd_ged as ged;

/// Interchange formats: JSON and SNAP edge lists (re-export of `gfd-io`).
pub use gfd_io as io;

pub use gfd_chase::{chase_imp, chase_sat, dep_imp, dep_sat};
pub use gfd_core::{
    find_violations, graph_satisfies, graph_satisfies_all, imp_with_config, sat_with_config,
    seq_imp, seq_sat, Consequence, DepSet, Dependency, GenerateConsequence, Gfd, GfdSet,
    ImpOutcome, Literal, ReasonConfig, SatOutcome,
};
pub use gfd_graph::{Graph, LabelId, Pattern, Value, ValueId, ValueTable, Vocab};

/// The most commonly used names in one import.
pub mod prelude {
    pub use gfd_core::{
        find_violations, graph_satisfies, graph_satisfies_all, imp_with_config, sat_with_config,
        seq_imp, seq_sat, Consequence, DepSet, Dependency, GenerateConsequence, Gfd, GfdSet,
        ImpOutcome, ImpliedVia, Literal, Operand, ReasonConfig, SatOutcome,
    };
    pub use gfd_graph::{
        AttrId, Graph, LabelId, NodeId, Pattern, Value, ValueId, ValueTable, VarId, Vocab,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work_together() {
        use crate::prelude::*;
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        let x = p.add_node(vocab.label("t"), "x");
        let a = vocab.attr("a");
        let sigma = GfdSet::from_vec(vec![Gfd::new(
            "g",
            p,
            vec![],
            vec![Literal::eq_const(x, a, 1i64)],
        )]);
        assert!(seq_sat(&sigma).is_satisfiable());
        assert!(sat_with_config(&sigma, &ReasonConfig::with_workers(2)).is_satisfiable());
    }
}
