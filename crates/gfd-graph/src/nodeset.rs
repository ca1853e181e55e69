//! A compact bitset over node ids, used for neighborhood restriction during
//! pivoted matching.

use crate::ids::NodeId;

/// Fixed-capacity bitset over `NodeId`s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set able to hold nodes `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Insert a node; returns `true` if it was not already present.
    /// Inlined and branchless on the in-capacity path: the bitset anchor
    /// fold calls this once per streamed adjacency edge.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let word = &mut self.words[w];
        let fresh = *word & mask == 0;
        *word |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Remove a node; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        let mask = 1u64 << b;
        match self.words.get_mut(w) {
            Some(word) if *word & mask != 0 => {
                *word &= !mask;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Membership test. Nodes beyond the capacity are absent.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no node is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(NodeId::new(wi * 64 + b))
            })
        })
    }

    /// Remove all members, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Remove the listed nodes without zeroing the whole word array —
    /// the cheap way to reset a large scratch set that only ever held
    /// these members.
    pub fn clear_sparse(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        for n in nodes {
            let (w, b) = (n.index() / 64, n.index() % 64);
            if let Some(word) = self.words.get_mut(w) {
                *word &= !(1u64 << b);
            }
        }
        self.len = 0;
    }

    /// Intersect in place: `self ∩= other`, one `AND` per 64 nodes.
    /// Returns the new cardinality.
    pub fn intersect_with(&mut self, other: &NodeSet) -> usize {
        let n = self.words.len().min(other.words.len());
        let mut len = 0usize;
        for i in 0..n {
            let w = self.words[i] & other.words[i];
            self.words[i] = w;
            len += w.count_ones() as usize;
        }
        for w in &mut self.words[n..] {
            *w = 0;
        }
        self.len = len;
        len
    }

    /// Intersect in place while draining `other`: `self ∩= other` and
    /// every word of `other` is zeroed in the same pass. Fuses the
    /// scratch reset into the merge, so a large reused scratch set
    /// needs neither a full [`NodeSet::clear`] nor a
    /// [`NodeSet::clear_sparse`] replay of its members afterwards.
    /// Returns the new cardinality of `self`.
    pub fn intersect_with_drain(&mut self, other: &mut NodeSet) -> usize {
        let n = self.words.len().min(other.words.len());
        let mut len = 0usize;
        for i in 0..n {
            let w = self.words[i] & other.words[i];
            other.words[i] = 0;
            self.words[i] = w;
            len += w.count_ones() as usize;
        }
        for w in &mut self.words[n..] {
            *w = 0;
        }
        for w in &mut other.words[n..] {
            *w = 0;
        }
        other.len = 0;
        self.len = len;
        len
    }

    /// Subtract in place: `self ∖= other`, one `AND NOT` per 64 nodes.
    /// Returns the new cardinality.
    pub fn difference_with(&mut self, other: &NodeSet) -> usize {
        let n = self.words.len().min(other.words.len());
        let mut len = 0usize;
        for i in 0..n {
            let w = self.words[i] & !other.words[i];
            self.words[i] = w;
            len += w.count_ones() as usize;
        }
        for w in &self.words[n..] {
            len += w.count_ones() as usize;
        }
        self.len = len;
        len
    }

    /// Ensure the word array spans nodes `0..capacity` (for scratch
    /// sets sized once to the graph and reused across frames).
    pub fn reserve_nodes(&mut self, capacity: usize) {
        let need = capacity.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::default();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_clears_single_bits() {
        let mut s = NodeSet::with_capacity(128);
        s.insert(NodeId::new(3));
        s.insert(NodeId::new(100));
        assert!(s.remove(NodeId::new(3)));
        assert!(!s.remove(NodeId::new(3)));
        assert!(!s.remove(NodeId::new(4000)));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(NodeId::new(3)));
        assert!(s.contains(NodeId::new(100)));
    }

    #[test]
    fn insert_contains_len() {
        let mut s = NodeSet::with_capacity(10);
        assert!(s.is_empty());
        assert!(s.insert(NodeId::new(3)));
        assert!(!s.insert(NodeId::new(3)));
        assert!(s.insert(NodeId::new(64)));
        assert!(s.contains(NodeId::new(3)));
        assert!(s.contains(NodeId::new(64)));
        assert!(!s.contains(NodeId::new(4)));
        assert!(!s.contains(NodeId::new(1000)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn grows_beyond_capacity() {
        let mut s = NodeSet::with_capacity(1);
        assert!(s.insert(NodeId::new(500)));
        assert!(s.contains(NodeId::new(500)));
    }

    #[test]
    fn iter_is_sorted() {
        let s: NodeSet = [5usize, 1, 130, 64].into_iter().map(NodeId::new).collect();
        let got: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(got, vec![1, 5, 64, 130]);
    }

    #[test]
    fn word_ops_intersect_and_subtract() {
        let a: NodeSet = [1usize, 5, 64, 130, 200]
            .into_iter()
            .map(NodeId::new)
            .collect();
        let b: NodeSet = [5usize, 64, 300].into_iter().map(NodeId::new).collect();
        let mut i = a.clone();
        assert_eq!(i.intersect_with(&b), 2);
        assert_eq!(i.iter().map(|n| n.index()).collect::<Vec<_>>(), vec![5, 64]);
        let mut d = a.clone();
        assert_eq!(d.difference_with(&b), 3);
        assert_eq!(
            d.iter().map(|n| n.index()).collect::<Vec<_>>(),
            vec![1, 130, 200]
        );
        // Shorter `other` word array: the tail survives difference,
        // dies under intersection.
        let small: NodeSet = [1usize].into_iter().map(NodeId::new).collect();
        let mut d2 = a.clone();
        assert_eq!(d2.difference_with(&small), 4);
        assert!(d2.contains(NodeId::new(200)));
        let mut i2 = a.clone();
        assert_eq!(i2.intersect_with(&small), 1);
        assert!(!i2.contains(NodeId::new(200)));
    }

    #[test]
    fn intersect_with_drain_merges_and_resets_other() {
        let mut cand: NodeSet = [1usize, 5, 64, 130, 200]
            .into_iter()
            .map(NodeId::new)
            .collect();
        let mut adj: NodeSet = [5usize, 64, 300].into_iter().map(NodeId::new).collect();
        adj.reserve_nodes(1024);
        assert_eq!(cand.intersect_with_drain(&mut adj), 2);
        assert_eq!(
            cand.iter().map(|n| n.index()).collect::<Vec<_>>(),
            vec![5, 64]
        );
        assert!(adj.is_empty());
        assert!(!adj.contains(NodeId::new(300)));
        // The drained scratch is reusable immediately.
        adj.insert(NodeId::new(64));
        assert_eq!(cand.intersect_with_drain(&mut adj), 1);
        assert!(cand.contains(NodeId::new(64)));
        assert!(adj.is_empty());
    }

    #[test]
    fn clear_sparse_resets_only_listed_bits() {
        let mut s = NodeSet::with_capacity(256);
        s.reserve_nodes(1024);
        s.insert(NodeId::new(3));
        s.insert(NodeId::new(700));
        s.clear_sparse([NodeId::new(3), NodeId::new(700)]);
        assert!(s.is_empty());
        assert!(!s.contains(NodeId::new(3)));
        assert!(!s.contains(NodeId::new(700)));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = NodeSet::with_capacity(128);
        s.insert(NodeId::new(100));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(NodeId::new(100)));
    }
}
