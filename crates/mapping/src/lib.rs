//! **Layer 3 — Mapping** (paper §III-A3, §IV-B).
//!
//! This layer is "responsible for balancing work across the mesh". It
//! "prevents communication between arbitrary nodes and instead allows the
//! application to request that a message be delivered without specifying
//! its destination. The destination is then chosen based on estimated
//! activity levels in subregions of the mesh."
//!
//! Concretely:
//!
//! * applications implement [`TicketHandler`]: requests arrive with a
//!   [`Ticket`] instead of a sender identity, and replies quote tickets
//!   (§IV-B's modified `receive` handler);
//! * new sub-problems are issued with [`CallCtx::call`], whose destination
//!   is chosen by a pluggable [`Mapper`]:
//!   [`RoundRobinMapper`] (static, the paper's RR), [`LeastBusyMapper`]
//!   (adaptive, the paper's least-busy-neighbour), [`RandomMapper`]
//!   (static baseline) and [`WeightAwareMapper`] (cross-layer hints,
//!   §III-B3);
//! * the per-node tables keyed by ticket, here and in layer 4, are
//!   [`TicketMap`]s: tickets are issued by the system itself, so they hash
//!   with one multiply ([`TicketHasher`]) instead of SipHash;
//! * every outgoing message piggy-backs the sender's total received count,
//!   which is the activity estimate least-busy-neighbour feeds on (§V-D);
//!   optionally nodes broadcast periodic `Status` messages, whose
//!   interconnect cost is the adaptive-mapping overhead visible below ~100
//!   cores in Figure 4.

#![warn(missing_docs)]

mod host;
mod mapper;
mod msg;
mod ticket;

pub use host::{bound, trigger, CallCtx, MapConfig, MapState, MappingHost, TicketHandler};
pub use mapper::{
    GlobalRandomMapper, LeastBusyMapper, MapView, Mapper, MapperFactory, RandomMapper,
    RoundRobinMapper, Target, WeightAwareMapper,
};
pub use msg::{MapMsg, MapPayload, Weight};
pub use ticket::{Ticket, TicketHasher, TicketMap};
