//! RDF-style FDs over triple patterns, and their embedding into GFDs.
//!
//! The related-work comparison (§VIII) notes that GFDs subsume the
//! RDF functional/constant constraints of Hellings et al. \[5\]: a set of
//! triple patterns is a graph pattern, and value constraints become
//! literals over a distinguished `val` attribute. This module provides
//! that embedding, which is how the `ParImpRDF` baseline receives its
//! inputs.

use gfd_core::{Gfd, Literal};
use gfd_graph::{LabelId, Pattern, Value, VarId, Vocab};

/// A triple pattern `?s --predicate--> ?o` over RDF-style variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject variable (index into the FD's variable space).
    pub subject: u32,
    /// Predicate label.
    pub predicate: LabelId,
    /// Object variable.
    pub object: u32,
}

/// A value constraint on an RDF variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RdfConstraint {
    /// `?x = ?y` — the two variables denote equal values.
    VarEq(u32, u32),
    /// `?x = c` — constant constraint.
    ConstEq(u32, Value),
}

/// An RDF functional dependency: triple patterns scoping variables plus a
/// premise/consequence over their values.
#[derive(Clone, Debug)]
pub struct RdfFd {
    /// Rule name.
    pub name: String,
    /// The body: a set of triple patterns.
    pub triples: Vec<TriplePattern>,
    /// Premise constraints.
    pub premise: Vec<RdfConstraint>,
    /// Consequence constraints.
    pub consequence: Vec<RdfConstraint>,
}

/// The distinguished attribute carrying an RDF node's value.
pub const VAL_ATTR: &str = "val";

impl RdfFd {
    /// Number of distinct variables (max index + 1).
    pub fn var_count(&self) -> usize {
        self.triples
            .iter()
            .flat_map(|t| [t.subject, t.object])
            .max()
            .map_or(0, |m| m as usize + 1)
    }

    /// Embed as a GFD: variables become wildcard-labelled pattern nodes,
    /// triples become edges, constraints become `val` literals.
    pub fn to_gfd(&self, vocab: &mut Vocab) -> Gfd {
        let val = vocab.attr(VAL_ATTR);
        let n = self.var_count();
        let mut pattern = Pattern::new();
        for i in 0..n {
            pattern.add_node(LabelId::WILDCARD, format!("v{i}"));
        }
        for t in &self.triples {
            pattern.add_edge(
                VarId::new(t.subject as usize),
                t.predicate,
                VarId::new(t.object as usize),
            );
        }
        let conv = |cs: &[RdfConstraint]| -> Vec<Literal> {
            cs.iter()
                .map(|c| match c {
                    RdfConstraint::VarEq(x, y) => {
                        Literal::eq_attr(VarId::new(*x as usize), val, VarId::new(*y as usize), val)
                    }
                    RdfConstraint::ConstEq(x, v) => {
                        Literal::eq_const(VarId::new(*x as usize), val, v.clone())
                    }
                })
                .collect()
        };
        Gfd::new(
            self.name.clone(),
            pattern,
            conv(&self.premise),
            conv(&self.consequence),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imp_rdf::chase_imp;
    use gfd_core::{seq_imp, DepSet, Dependency, GfdSet};

    /// A functional-property FD: if x --p--> y and x --p--> z then
    /// y.val = z.val (the paper's ϕ2 in RDF form).
    fn functional_property(vocab: &mut Vocab) -> RdfFd {
        let p = vocab.label("topSpeed");
        RdfFd {
            name: "functional_p".into(),
            triples: vec![
                TriplePattern {
                    subject: 0,
                    predicate: p,
                    object: 1,
                },
                TriplePattern {
                    subject: 0,
                    predicate: p,
                    object: 2,
                },
            ],
            premise: vec![],
            consequence: vec![RdfConstraint::VarEq(1, 2)],
        }
    }

    #[test]
    fn embedding_produces_a_wellformed_gfd() {
        let mut vocab = Vocab::new();
        let fd = functional_property(&mut vocab);
        assert_eq!(fd.var_count(), 3);
        let gfd = fd.to_gfd(&mut vocab);
        assert_eq!(gfd.pattern.node_count(), 3);
        assert_eq!(gfd.pattern.edge_count(), 2);
        assert!(gfd.has_empty_premise());
        assert_eq!(gfd.consequence.len(), 1);
    }

    #[test]
    fn rdf_implication_through_the_embedding() {
        let mut vocab = Vocab::new();
        let fd = functional_property(&mut vocab);
        let sigma = GfdSet::from_vec(vec![fd.to_gfd(&mut vocab)]);
        let deps = DepSet::from_gfds(sigma.clone());
        // The same FD with premise/consequence constants:
        // x -p-> y, x -p-> z, y.val = 1 → z.val = 1. Follows from the
        // functional property.
        let p = vocab.label("topSpeed");
        let derived = RdfFd {
            name: "derived".into(),
            triples: vec![
                TriplePattern {
                    subject: 0,
                    predicate: p,
                    object: 1,
                },
                TriplePattern {
                    subject: 0,
                    predicate: p,
                    object: 2,
                },
            ],
            premise: vec![RdfConstraint::ConstEq(1, Value::int(1))],
            consequence: vec![RdfConstraint::ConstEq(2, Value::int(1))],
        }
        .to_gfd(&mut vocab);
        assert!(chase_imp(&deps, &Dependency::from_gfd(derived.clone())).is_implied());
        assert!(seq_imp(&sigma, &derived).is_implied());

        // But a constant out of nowhere does not follow.
        let bogus = RdfFd {
            name: "bogus".into(),
            triples: vec![TriplePattern {
                subject: 0,
                predicate: p,
                object: 1,
            }],
            premise: vec![],
            consequence: vec![RdfConstraint::ConstEq(1, Value::int(9))],
        }
        .to_gfd(&mut vocab);
        assert!(!chase_imp(&deps, &Dependency::from_gfd(bogus)).is_implied());
    }

    #[test]
    fn empty_fd_has_no_vars() {
        let fd = RdfFd {
            name: "empty".into(),
            triples: vec![],
            premise: vec![],
            consequence: vec![],
        };
        assert_eq!(fd.var_count(), 0);
    }
}
