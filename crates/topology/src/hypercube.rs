//! Binary n-cube (hypercube) topologies, NCUBE-style (Figure 1B).
//!
//! Nodes carry n-bit addresses; two nodes are adjacent iff their addresses
//! differ in exactly one bit (§II-A). Distance is the Hamming distance and
//! routing is e-cube: correct the lowest differing bit first.

use crate::{NodeId, Topology};

/// A binary hypercube of dimension `dim`, containing `2^dim` nodes.
#[derive(Clone, Debug)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// Creates a hypercube with `2^dim` nodes. `dim` must be in `1..=31`.
    pub fn new(dim: u32) -> Self {
        assert!(
            (1..=31).contains(&dim),
            "hypercube dimension must be 1..=31"
        );
        Hypercube { dim }
    }

    /// The dimension `n` such that the machine has `2^n` nodes.
    pub fn dim(&self) -> u32 {
        self.dim
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> usize {
        1usize << self.dim
    }

    fn degree(&self, _node: NodeId) -> usize {
        self.dim as usize
    }

    fn neighbour(&self, node: NodeId, port: usize) -> NodeId {
        debug_assert!(port < self.dim as usize);
        node ^ (1 << port)
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (a ^ b).count_ones()
    }

    fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        if from == to {
            return from;
        }
        let diff = from ^ to;
        from ^ (1 << diff.trailing_zeros())
    }

    fn diameter(&self) -> u32 {
        self.dim
    }

    fn name(&self) -> String {
        format!("hypercube-{}", self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_is_single_bit_flip() {
        let h = Hypercube::new(4);
        assert!(h.are_adjacent(0b0000, 0b0001));
        assert!(h.are_adjacent(0b1010, 0b0010));
        assert!(!h.are_adjacent(0b0000, 0b0011));
        assert!(!h.are_adjacent(5, 5));
    }

    #[test]
    fn hamming_distance() {
        let h = Hypercube::new(5);
        assert_eq!(h.distance(0b00000, 0b11111), 5);
        assert_eq!(h.distance(0b10101, 0b10101), 0);
        assert_eq!(h.diameter(), 5);
    }

    #[test]
    fn ecube_routing_fixes_lowest_bit_first() {
        let h = Hypercube::new(4);
        assert_eq!(h.next_hop(0b0000, 0b1010), 0b0010);
        assert_eq!(h.next_hop(0b0010, 0b1010), 0b1010);
    }

    #[test]
    fn paper_link_scaling() {
        // "for 2^n nodes, there are nN/2 links and any two nodes are at most
        // n links apart" (§II-A).
        for dim in 1..8 {
            let h = Hypercube::new(dim);
            let n = h.num_nodes();
            assert_eq!(h.num_links(), dim as usize * n / 2);
            assert_eq!(h.diameter(), dim);
        }
    }
}
