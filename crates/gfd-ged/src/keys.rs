//! Recursively-defined keys and entity resolution.
//!
//! A *key* for graphs (Fan et al., PVLDB 2015 — reference \[27\] of the
//! paper) is a GED whose consequence is an id literal: when the pattern
//! matches two candidate entities and the premise holds, the two entities
//! are the *same* real-world object. Keys are **recursively defined**:
//! identifying two artists may enable identifying two albums (whose key
//! pattern requires *the same* artist node), which may enable further
//! identifications — a fixpoint over node merging.
//!
//! [`resolve_entities`] runs that fixpoint over a data graph: in each
//! round it matches every key against the current quotient graph, merges
//! the nodes its id literals connect, and rebuilds the quotient (merging
//! attribute tuples, recording clashes) until no key fires.

use crate::ged::{Ged, GedLiteral};
use crate::validate::{ged_literal_holds, ged_premise_holds};
#[allow(unused_imports)]
use gfd_graph::ValueTable as _;
use gfd_graph::{AttrId, Graph, LabelIndex, NodeId, ValueId};
use gfd_match::find_all_matches;

/// A key: a GED whose consequence is a single conjunction of id literals.
#[derive(Clone, Debug)]
pub struct Key {
    /// The underlying GED.
    pub ged: Ged,
}

impl Key {
    /// Wrap a GED as a key, checking its consequence shape.
    ///
    /// # Panics
    /// Panics unless the consequence is exactly one disjunct consisting of
    /// id literals only.
    pub fn new(ged: Ged) -> Self {
        assert_eq!(
            ged.disjuncts.len(),
            1,
            "key `{}` must have a single consequence disjunct",
            ged.name
        );
        assert!(
            ged.disjuncts[0]
                .iter()
                .all(|l| matches!(l, GedLiteral::Id { .. })),
            "key `{}` consequence must contain only id literals",
            ged.name
        );
        assert!(
            !ged.disjuncts[0].is_empty(),
            "key `{}` must identify something",
            ged.name
        );
        Key { ged }
    }

    /// The id pairs `(x, y)` the key equates.
    fn id_pairs(&self) -> impl Iterator<Item = (gfd_graph::VarId, gfd_graph::VarId)> + '_ {
        self.ged.disjuncts[0].iter().map(|l| match l {
            GedLiteral::Id { left, right } => (*left, *right),
            _ => unreachable!("checked in Key::new"),
        })
    }
}

/// An attribute clash discovered while merging entities.
#[derive(Clone, Debug)]
pub struct AttrConflict {
    /// The resolved node carrying the clash.
    pub node: NodeId,
    /// The attribute with two values.
    pub attr: AttrId,
    /// The value kept.
    pub kept: ValueId,
    /// The value discarded.
    pub dropped: ValueId,
}

/// The result of entity resolution.
#[derive(Clone, Debug)]
pub struct ResolutionResult {
    /// The resolved (quotient) graph with merged attribute tuples.
    pub resolved: Graph,
    /// Mapping from original node to resolved node.
    pub class_of: Vec<NodeId>,
    /// Number of merge operations performed.
    pub merges: usize,
    /// Number of fixpoint rounds (≥ 1; > 1 demonstrates recursion).
    pub rounds: usize,
    /// Attribute clashes between merged entities (data-quality signal).
    pub conflicts: Vec<AttrConflict>,
}

/// Union-find over data-graph nodes.
struct Uf {
    parent: Vec<u32>,
}

impl Uf {
    fn new(n: usize) -> Self {
        Uf {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, i: u32) -> u32 {
        let mut i = i;
        while self.parent[i as usize] != i {
            let p = self.parent[i as usize];
            self.parent[i as usize] = self.parent[p as usize];
            i = self.parent[i as usize];
        }
        i
    }

    /// Union by root index (smaller root wins, for determinism).
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }
}

/// Build the quotient of `graph` under `uf`, merging attribute tuples.
fn quotient_with_attrs(
    graph: &Graph,
    uf: &mut Uf,
    conflicts: &mut Vec<AttrConflict>,
) -> (Graph, Vec<NodeId>) {
    let n = graph.node_count();
    let mut root_to_new: rustc_hash::FxHashMap<u32, NodeId> = rustc_hash::FxHashMap::default();
    let mut mapping = vec![NodeId::new(0); n];
    let mut q = Graph::new();
    for v in graph.nodes() {
        let root = uf.find(v.index() as u32);
        let new = *root_to_new
            .entry(root)
            .or_insert_with(|| q.add_node(graph.label(NodeId::new(root as usize))));
        mapping[v.index()] = new;
    }
    for (src, label, dst) in graph.edges() {
        q.add_edge(mapping[src.index()], label, mapping[dst.index()]);
    }
    for v in graph.nodes() {
        let new = mapping[v.index()];
        for &(attr, value) in graph.attrs(v) {
            match q.attr(new, attr) {
                None => q.set_attr_id(new, attr, value),
                Some(existing) if existing == value => {}
                Some(existing) => conflicts.push(AttrConflict {
                    node: new,
                    attr,
                    kept: existing,
                    dropped: value,
                }),
            }
        }
    }
    (q, mapping)
}

/// Run entity resolution with `keys` over `graph` to a fixpoint.
///
/// Key labels must be concrete enough for matching; premises are checked
/// on the *current* quotient's concrete attributes (so a premise
/// `x.email = y.email` uses merged attribute tuples).
pub fn resolve_entities(graph: &Graph, keys: &[Key]) -> ResolutionResult {
    let mut uf = Uf::new(graph.node_count());
    let mut merges = 0usize;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut throwaway = Vec::new();
        let (q, mapping) = quotient_with_attrs(graph, &mut uf, &mut throwaway);
        // Representative original node per quotient node (for union ops).
        let sentinel = NodeId::new(u32::MAX as usize);
        let mut rep = vec![sentinel; q.node_count()];
        for v in graph.nodes() {
            let m = mapping[v.index()];
            if rep[m.index()] == sentinel {
                rep[m.index()] = v;
            }
        }
        let index = LabelIndex::build(&q);
        let mut changed = false;
        for key in keys {
            for m in find_all_matches(&q, &index, &key.ged.pattern) {
                if !ged_premise_holds(&q, &key.ged, &m) {
                    continue;
                }
                for (x, y) in key.id_pairs() {
                    if ged_literal_holds(&q, &GedLiteral::id(x, y), &m) {
                        continue; // already the same quotient node
                    }
                    let a = rep[m[x.index()].index()];
                    let b = rep[m[y.index()].index()];
                    if uf.union(a.index() as u32, b.index() as u32) {
                        merges += 1;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            // Final quotient, now collecting attribute conflicts.
            let mut conflicts = Vec::new();
            let (resolved, class_of) = quotient_with_attrs(graph, &mut uf, &mut conflicts);
            return ResolutionResult {
                resolved,
                class_of,
                merges,
                rounds,
                conflicts,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{Pattern, Value, Vocab};

    /// Two artist nodes with the same name, each with an album of the same
    /// title pointing at *their own* artist node. The album key requires
    /// the same artist entity, so albums can only merge *after* artists
    /// merge: resolution takes two effective rounds.
    fn music_graph(vocab: &mut Vocab) -> Graph {
        let artist = vocab.label("artist");
        let album = vocab.label("album");
        let by = vocab.label("by");
        let name = vocab.attr("name");
        let title = vocab.attr("title");
        let mut g = Graph::new();
        let a1 = g.add_node(artist);
        let a2 = g.add_node(artist);
        g.set_attr(a1, name, Value::str("Miles"));
        g.set_attr(a2, name, Value::str("Miles"));
        let b1 = g.add_node(album);
        let b2 = g.add_node(album);
        g.set_attr(b1, title, Value::str("Kind of Blue"));
        g.set_attr(b2, title, Value::str("Kind of Blue"));
        g.add_edge(b1, by, a1);
        g.add_edge(b2, by, a2);
        g
    }

    fn artist_key(vocab: &mut Vocab) -> Key {
        let artist = vocab.label("artist");
        let name = vocab.attr("name");
        let mut p = Pattern::new();
        let x = p.add_node(artist, "x");
        let y = p.add_node(artist, "y");
        Key::new(Ged::conjunctive(
            "artist-by-name",
            p,
            vec![GedLiteral::eq_attr(x, name, y, name)],
            vec![GedLiteral::id(x, y)],
        ))
    }

    fn album_key(vocab: &mut Vocab) -> Key {
        let artist = vocab.label("artist");
        let album = vocab.label("album");
        let by = vocab.label("by");
        let title = vocab.attr("title");
        let mut p = Pattern::new();
        let x = p.add_node(album, "x");
        let y = p.add_node(album, "y");
        let a = p.add_node(artist, "a");
        p.add_edge(x, by, a);
        p.add_edge(y, by, a);
        Key::new(Ged::conjunctive(
            "album-by-title-and-artist",
            p,
            vec![GedLiteral::eq_attr(x, title, y, title)],
            vec![GedLiteral::id(x, y)],
        ))
    }

    #[test]
    fn recursive_keys_need_multiple_rounds() {
        let mut vocab = Vocab::new();
        let g = music_graph(&mut vocab);
        let keys = [artist_key(&mut vocab), album_key(&mut vocab)];
        let r = resolve_entities(&g, &keys);
        // Both artists and both albums merge: 4 nodes → 2.
        assert_eq!(r.resolved.node_count(), 2);
        assert_eq!(r.merges, 2);
        assert!(r.rounds >= 2, "albums can only merge after artists");
        assert!(r.conflicts.is_empty());
        // The mapping sends both artists to one class.
        assert_eq!(r.class_of[0], r.class_of[1]);
        assert_eq!(r.class_of[2], r.class_of[3]);
    }

    #[test]
    fn album_key_alone_cannot_merge() {
        let mut vocab = Vocab::new();
        let g = music_graph(&mut vocab);
        let keys = [album_key(&mut vocab)];
        let r = resolve_entities(&g, &keys);
        assert_eq!(r.resolved.node_count(), 4);
        assert_eq!(r.merges, 0);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn premise_gates_merging() {
        let mut vocab = Vocab::new();
        let mut g = music_graph(&mut vocab);
        // Rename one artist: the name key no longer fires.
        let name = vocab.attr("name");
        g.set_attr(NodeId::new(1), name, Value::str("Trane"));
        let keys = [artist_key(&mut vocab), album_key(&mut vocab)];
        let r = resolve_entities(&g, &keys);
        assert_eq!(r.merges, 0);
        assert_eq!(r.resolved.node_count(), 4);
    }

    #[test]
    fn attribute_conflicts_are_reported() {
        let mut vocab = Vocab::new();
        let mut g = music_graph(&mut vocab);
        // Give the two artists different birth years: merging keeps one
        // and reports the clash.
        let born = vocab.attr("born");
        g.set_attr(NodeId::new(0), born, Value::int(1926));
        g.set_attr(NodeId::new(1), born, Value::int(1927));
        let keys = [artist_key(&mut vocab)];
        let r = resolve_entities(&g, &keys);
        assert_eq!(r.merges, 1);
        assert_eq!(r.conflicts.len(), 1);
        let c = &r.conflicts[0];
        assert_eq!(vocab.attr_name(c.attr), "born");
        assert_ne!(c.kept, c.dropped);
    }

    #[test]
    fn resolution_is_idempotent() {
        let mut vocab = Vocab::new();
        let g = music_graph(&mut vocab);
        let keys = [artist_key(&mut vocab), album_key(&mut vocab)];
        let r1 = resolve_entities(&g, &keys);
        let r2 = resolve_entities(&r1.resolved, &keys);
        assert_eq!(r2.merges, 0);
        assert_eq!(r2.resolved.node_count(), r1.resolved.node_count());
    }

    #[test]
    #[should_panic(expected = "single consequence disjunct")]
    fn key_rejects_disjunctive_consequence() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        Key::new(Ged::new(
            "bad",
            p,
            vec![],
            vec![vec![GedLiteral::id(x, y)], vec![GedLiteral::id(y, x)]],
        ));
    }

    #[test]
    #[should_panic(expected = "only id literals")]
    fn key_rejects_attribute_consequence() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        Key::new(Ged::conjunctive(
            "bad",
            p,
            vec![],
            vec![GedLiteral::eq_const(x, a, 1i64)],
        ));
    }
}
