//! Tickets: the layer-3 replacement for sender identities (§IV-B).
//!
//! "We introduce a slightly modified receive handler that replaces sender
//! identity with a unique identifier (a ticket) that can be quoted to send
//! reply messages."

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hyperspace_topology::NodeId;

/// A globally unique call identifier.
///
/// The high 32 bits are the issuing node's id and the low 32 bits a
/// per-node counter, so tickets are unique machine-wide without any global
/// coordination, and a reply can always be routed: it goes to
/// [`Ticket::node`]. (Because sub-problems are only ever mapped to
/// neighbours, the issuing node is always adjacent to the replier.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// Builds a ticket from an issuing node and a per-node serial number.
    #[inline]
    pub fn new(node: NodeId, serial: u32) -> Self {
        Ticket(((node as u64) << 32) | serial as u64)
    }

    /// The node that issued this ticket (where the reply must go).
    #[inline]
    pub fn node(self) -> NodeId {
        (self.0 >> 32) as NodeId
    }

    /// The issuing node's serial number.
    #[inline]
    pub fn serial(self) -> u32 {
        self.0 as u32
    }

    /// The raw 64-bit representation.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A table keyed by [`Ticket::raw`] values (or other system-issued
/// serials), as layers 3 and 4 keep per node and probe several times per
/// activation. Iteration order is unspecified; nothing observable may
/// depend on it.
pub type TicketMap<V> = HashMap<u64, V, BuildHasherDefault<TicketHasher>>;

/// The [`TicketMap`] hasher: one widening multiply per key, its two halves
/// folded together. The keys are issued by this system, never by outside
/// input, so the flooding resistance of the default SipHash buys nothing
/// here.
#[derive(Clone, Copy, Debug, Default)]
pub struct TicketHasher(u64);

impl Hasher for TicketHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        let wide = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}#{}", self.node(), self.serial())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = Ticket::new(196, 12345);
        assert_eq!(t.node(), 196);
        assert_eq!(t.serial(), 12345);
        assert_eq!(Ticket::new(t.node(), t.serial()), t);
    }

    #[test]
    fn uniqueness_across_nodes_and_serials() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for node in 0..50 {
            for serial in 0..50 {
                assert!(seen.insert(Ticket::new(node, serial).raw()));
            }
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(Ticket::new(3, 7).to_string(), "t3#7");
    }

    #[test]
    fn extreme_values() {
        let t = Ticket::new(u32::MAX, u32::MAX);
        assert_eq!(t.node(), u32::MAX);
        assert_eq!(t.serial(), u32::MAX);
    }
}
