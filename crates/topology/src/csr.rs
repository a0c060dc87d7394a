//! Compressed-sparse-row adjacency cache.
//!
//! The simulator's mapping layer consults neighbour lists on every message;
//! computing them through the [`Topology`] trait each time costs a virtual
//! dispatch plus coordinate arithmetic. [`Csr`] precomputes the whole
//! adjacency structure once into two flat arrays, giving cache-friendly
//! O(1) slice lookups — the standard HPC graph layout.

use crate::{NodeId, Topology};

/// Precomputed adjacency lists in CSR (compressed sparse row) form.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// Builds the CSR image of `topo`'s adjacency structure.
    pub fn build(topo: &dyn Topology) -> Self {
        let n = topo.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for node in 0..n as NodeId {
            total += topo.degree(node) as u32;
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total as usize);
        for node in 0..n as NodeId {
            for port in 0..topo.degree(node) {
                targets.push(topo.neighbour(node, port));
            }
        }
        Csr { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbours of `node`, in port order.
    #[inline]
    pub fn neighbours(&self, node: NodeId) -> &[NodeId] {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        (self.offsets[node as usize + 1] - self.offsets[node as usize]) as usize
    }

    /// Whether `a` lists `b` as a neighbour.
    #[inline]
    pub fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbours(a).contains(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FullyConnected, Hypercube, Torus};

    fn check_matches(topo: &dyn Topology) {
        let csr = Csr::build(topo);
        assert_eq!(csr.num_nodes(), topo.num_nodes());
        for node in 0..topo.num_nodes() as NodeId {
            assert_eq!(csr.neighbours(node), topo.neighbours(node).as_slice());
            assert_eq!(csr.degree(node), topo.degree(node));
        }
    }

    #[test]
    fn csr_matches_trait_torus() {
        check_matches(&Torus::new_2d(6, 5));
        check_matches(&Torus::new_3d(3, 3, 3));
    }

    #[test]
    fn csr_matches_trait_hypercube() {
        check_matches(&Hypercube::new(4));
    }

    #[test]
    fn csr_matches_trait_full() {
        check_matches(&FullyConnected::new(9));
    }
}
