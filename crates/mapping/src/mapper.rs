//! Mapping algorithms: where does the next sub-problem go?
//!
//! §V-D classifies mappers as *static* (behaviour fixed a-priori) or
//! *adaptive* (influenced by runtime activity). The paper evaluates one of
//! each — round-robin and least-busy-neighbour — which are implemented
//! here together with a random static baseline and a hint-aware mapper
//! demonstrating §III-B3's cross-layer optimisation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::msg::Weight;
use hyperspace_topology::NodeId;

/// Destination chosen by a mapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Evaluate the sub-problem on this node itself.
    Local,
    /// Ship the sub-problem through the given local port.
    Port(usize),
    /// Ship the sub-problem to an arbitrary node. Requires a delivery
    /// model that can reach non-neighbours (`Routed` — the virtualised
    /// any-to-any fabric SpiNNaker's NoC provides, §II-A — or `Direct`).
    Node(NodeId),
}

/// What a mapper can see when choosing a destination.
#[derive(Clone, Copy, Debug)]
pub struct MapView {
    /// Number of outgoing ports (node degree).
    pub degree: usize,
    /// Total number of nodes in the machine (for global mappers).
    pub num_nodes: usize,
    /// This node's own total received-message count.
    pub local_load: u64,
    /// The application's size hint for the call being mapped (0 = none).
    pub hint: Weight,
}

/// A per-node mapping policy.
///
/// One mapper instance exists per node (created by a [`MapperFactory`]); it
/// accumulates whatever state its policy needs. `observe` is fed the
/// piggy-backed load of every incoming message, tagged with the arrival
/// port (§V-D(2): "maintain a record of neighbouring node counts").
pub trait Mapper: Send {
    /// Chooses the destination for a new sub-problem.
    fn choose(&mut self, view: &MapView) -> Target;

    /// Records a neighbour's piggy-backed load estimate.
    fn observe(&mut self, _port: usize, _load: u64) {}

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// Boxed mappers forward, enabling heterogeneous mapper selection at
/// runtime (the experiment harness switches policies via configuration).
impl Mapper for Box<dyn Mapper> {
    fn choose(&mut self, view: &MapView) -> Target {
        (**self).choose(view)
    }
    fn observe(&mut self, port: usize, load: u64) {
        (**self).observe(port, load)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Creates the per-node mapper instances.
pub trait MapperFactory: Sync {
    /// The mapper type produced.
    type M: Mapper;
    /// Builds the mapper for `node` with the given degree.
    fn build(&self, node: NodeId, degree: usize) -> Self::M;

    /// Makes `mapper`, which a run left on `node`, the one
    /// `build(node, degree)` would return, keeping its buffers where it
    /// can. The default builds a fresh one.
    fn reinit(&self, mapper: &mut Self::M, node: NodeId, degree: usize) {
        *mapper = self.build(node, degree);
    }
}

/// Any `Fn(NodeId, usize) -> M` is a factory.
impl<M: Mapper, F: Fn(NodeId, usize) -> M + Sync> MapperFactory for F {
    type M = M;
    fn build(&self, node: NodeId, degree: usize) -> M {
        self(node, degree)
    }
}

// ---------------------------------------------------------------------------
// Round robin (static)
// ---------------------------------------------------------------------------

/// §V-D(1): "map sub-problems to adjacent cores in circular order".
#[derive(Clone, Debug, Default)]
pub struct RoundRobinMapper {
    next: usize,
}

impl RoundRobinMapper {
    /// A mapper whose cursor starts at `start` (modulo degree).
    pub fn starting_at(start: usize) -> Self {
        RoundRobinMapper { next: start }
    }

    /// A factory producing one per node, with each node's cursor offset by
    /// its id. Without the offset, machines whose port tables are globally
    /// aligned (most extremely the fully connected machine, where port 0
    /// of *every* node leads to node 0) would stampede their first
    /// sub-call onto a single victim.
    pub fn factory() -> impl MapperFactory<M = Self> {
        |node: NodeId, degree: usize| RoundRobinMapper::starting_at(node as usize % degree.max(1))
    }
}

impl Mapper for RoundRobinMapper {
    fn choose(&mut self, view: &MapView) -> Target {
        debug_assert!(view.degree > 0);
        let port = self.next % view.degree;
        self.next = (self.next + 1) % view.degree;
        Target::Port(port)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

// ---------------------------------------------------------------------------
// Least busy neighbour (adaptive)
// ---------------------------------------------------------------------------

/// §V-D(2): "Map sub-problems to neighbour with the smallest count."
///
/// The count is each neighbour's total received messages, learnt from the
/// piggy-back channel (and from status broadcasts when enabled). Ties are
/// broken by a rotating cursor so that an uninformed mapper (all counts
/// equal, e.g. at start-up) degrades to round-robin rather than hammering
/// port 0.
#[derive(Clone, Debug)]
pub struct LeastBusyMapper {
    counts: Vec<u64>,
    tie_cursor: usize,
}

impl LeastBusyMapper {
    /// A mapper for a node of the given degree, all counts zero.
    pub fn new(degree: usize) -> Self {
        LeastBusyMapper {
            counts: vec![0; degree],
            tie_cursor: 0,
        }
    }

    /// Like [`LeastBusyMapper::new`] with the tie-break cursor offset (see
    /// [`RoundRobinMapper::factory`] for why).
    pub fn with_cursor(degree: usize, start: usize) -> Self {
        LeastBusyMapper {
            counts: vec![0; degree],
            tie_cursor: start % degree.max(1),
        }
    }

    /// A factory producing one per node, cursor offset by node id.
    pub fn factory() -> impl MapperFactory<M = Self> {
        |node: NodeId, degree: usize| LeastBusyMapper::with_cursor(degree, node as usize)
    }

    /// Makes this mapper the one [`LeastBusyMapper::with_cursor`] builds,
    /// keeping the count table's buffer.
    pub fn restart(&mut self, degree: usize, start: usize) {
        self.counts.clear();
        self.counts.resize(degree, 0);
        self.tie_cursor = start % degree.max(1);
    }
}

impl Mapper for LeastBusyMapper {
    fn choose(&mut self, view: &MapView) -> Target {
        debug_assert_eq!(self.counts.len(), view.degree);
        let min = *self.counts.iter().min().expect("degree > 0");
        // Rotating tie-break among minimal ports.
        let d = view.degree;
        for off in 0..d {
            let port = (self.tie_cursor + off) % d;
            if self.counts[port] == min {
                self.tie_cursor = (port + 1) % d;
                return Target::Port(port);
            }
        }
        unreachable!("a minimal port always exists");
    }

    fn observe(&mut self, port: usize, load: u64) {
        if port < self.counts.len() {
            // Counts are monotone; keep the freshest (largest) estimate.
            self.counts[port] = self.counts[port].max(load);
        }
    }

    fn name(&self) -> &'static str {
        "least-busy"
    }
}

// ---------------------------------------------------------------------------
// Random (static baseline)
// ---------------------------------------------------------------------------

/// Maps each sub-problem to a uniformly random port. Deterministic per
/// node via a seeded [`SmallRng`].
#[derive(Clone, Debug)]
pub struct RandomMapper {
    rng: SmallRng,
}

impl RandomMapper {
    /// A mapper seeded from `seed` (typically mixed with the node id).
    pub fn new(seed: u64) -> Self {
        RandomMapper {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A factory giving each node an independent deterministic stream.
    pub fn factory(seed: u64) -> impl MapperFactory<M = Self> {
        move |node: NodeId, _degree: usize| {
            RandomMapper::new(seed ^ ((node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        }
    }
}

impl Mapper for RandomMapper {
    fn choose(&mut self, view: &MapView) -> Target {
        Target::Port(self.rng.gen_range(0..view.degree))
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

// ---------------------------------------------------------------------------
// Global random (static, requires routed delivery)
// ---------------------------------------------------------------------------

/// Maps each sub-problem to a uniformly random node *anywhere* in the
/// machine — the "send to any core" policy a virtualised any-to-any fabric
/// permits (paper §II-A on SpiNNaker: "the underlying communication
/// infrastructure permits arbitrary topologies to be virtualised").
///
/// Only usable with `DeliveryModel::Routed` (messages travel hop-by-hop
/// through the mesh NoC) or `Direct`; the adjacent-only model rejects its
/// choices.
#[derive(Clone, Debug)]
pub struct GlobalRandomMapper {
    rng: SmallRng,
}

impl GlobalRandomMapper {
    /// A mapper seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        GlobalRandomMapper {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A factory giving each node an independent deterministic stream.
    pub fn factory(seed: u64) -> impl MapperFactory<M = Self> {
        move |node: NodeId, _degree: usize| {
            GlobalRandomMapper::new(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
    }
}

impl Mapper for GlobalRandomMapper {
    fn choose(&mut self, view: &MapView) -> Target {
        Target::Node(self.rng.gen_range(0..view.num_nodes as NodeId))
    }

    fn name(&self) -> &'static str {
        "global-random"
    }
}

// ---------------------------------------------------------------------------
// Weight-aware (adaptive + cross-layer hints, §III-B3)
// ---------------------------------------------------------------------------

/// Uses the application's sub-problem size hints: work *lighter* than
/// `local_threshold` is kept on the local node (spawning it remotely would
/// cost more interconnect traffic than the work is worth); heavier work is
/// delegated to the least busy neighbour.
///
/// This implements §III-B3's example: "Mapping algorithms can exploit such
/// knowledge to further optimize load balancing across the mesh (e.g. by
/// delegating larger sub-problems to less utilized sub-regions)".
#[derive(Clone, Debug)]
pub struct WeightAwareMapper {
    inner: LeastBusyMapper,
    local_threshold: Weight,
}

impl WeightAwareMapper {
    /// Builds with the given keep-local threshold.
    pub fn new(degree: usize, local_threshold: Weight) -> Self {
        WeightAwareMapper {
            inner: LeastBusyMapper::new(degree),
            local_threshold,
        }
    }

    /// A factory producing one per node.
    pub fn factory(local_threshold: Weight) -> impl MapperFactory<M = Self> {
        move |_node: NodeId, degree: usize| WeightAwareMapper::new(degree, local_threshold)
    }

    /// Makes this mapper the one [`WeightAwareMapper::new`] builds,
    /// keeping the count table's buffer.
    pub fn restart(&mut self, degree: usize, local_threshold: Weight) {
        self.inner.restart(degree, 0);
        self.local_threshold = local_threshold;
    }
}

impl Mapper for WeightAwareMapper {
    fn choose(&mut self, view: &MapView) -> Target {
        if view.hint != 0 && view.hint < self.local_threshold {
            Target::Local
        } else {
            self.inner.choose(view)
        }
    }

    fn observe(&mut self, port: usize, load: u64) {
        self.inner.observe(port, load);
    }

    fn name(&self) -> &'static str {
        "weight-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(degree: usize) -> MapView {
        MapView {
            degree,
            num_nodes: 64,
            local_load: 0,
            hint: 0,
        }
    }

    #[test]
    fn round_robin_cycles_ports() {
        let mut m = RoundRobinMapper::default();
        let order: Vec<Target> = (0..6).map(|_| m.choose(&view(4))).collect();
        assert_eq!(order, [0, 1, 2, 3, 0, 1].map(Target::Port).to_vec());
    }

    #[test]
    fn least_busy_prefers_smallest_count() {
        let mut m = LeastBusyMapper::new(4);
        m.observe(0, 10);
        m.observe(1, 3);
        m.observe(2, 7);
        m.observe(3, 9);
        assert_eq!(m.choose(&view(4)), Target::Port(1));
    }

    #[test]
    fn least_busy_tie_break_rotates() {
        let mut m = LeastBusyMapper::new(3);
        // All zero: choices rotate like round-robin.
        let order: Vec<Target> = (0..5).map(|_| m.choose(&view(3))).collect();
        assert_eq!(order, [0, 1, 2, 0, 1].map(Target::Port).to_vec());
    }

    #[test]
    fn least_busy_keeps_freshest_estimate() {
        let mut m = LeastBusyMapper::new(2);
        m.observe(0, 5);
        m.observe(0, 3); // stale (smaller) update must not regress the count
        assert_eq!(m.counts, [5, 0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let picks = |seed| -> Vec<Target> {
            let mut m = RandomMapper::new(seed);
            (0..16).map(|_| m.choose(&view(4))).collect()
        };
        assert_eq!(picks(42), picks(42));
        assert_ne!(picks(42), picks(43));
        // All picks are valid ports.
        for t in picks(7) {
            match t {
                Target::Port(p) => assert!(p < 4),
                other => panic!("random mapper only picks ports, got {other:?}"),
            }
        }
    }

    #[test]
    fn global_random_targets_arbitrary_nodes() {
        let mut m = GlobalRandomMapper::new(5);
        let mut seen_far = false;
        for _ in 0..64 {
            match m.choose(&view(4)) {
                Target::Node(n) => {
                    assert!(n < 64);
                    if n > 4 {
                        seen_far = true;
                    }
                }
                other => panic!("global mapper only picks nodes, got {other:?}"),
            }
        }
        assert!(seen_far, "64 draws should reach beyond the neighbourhood");
        // Determinism per seed.
        let picks = |seed| -> Vec<Target> {
            let mut m = GlobalRandomMapper::new(seed);
            (0..8).map(|_| m.choose(&view(4))).collect()
        };
        assert_eq!(picks(9), picks(9));
    }

    #[test]
    fn weight_aware_keeps_small_work_local() {
        let mut m = WeightAwareMapper::new(4, 5);
        let v = |hint| MapView {
            degree: 4,
            num_nodes: 64,
            local_load: 0,
            hint,
        };
        assert_eq!(m.choose(&v(2)), Target::Local);
        assert!(matches!(m.choose(&v(9)), Target::Port(_)));
        // Hint 0 (no estimate) is treated as heavy: delegate.
        assert!(matches!(m.choose(&v(0)), Target::Port(_)));
    }

    #[test]
    fn factories_build_per_node_instances() {
        let f = LeastBusyMapper::factory();
        let a = f.build(0, 4);
        let b = f.build(1, 6);
        assert_eq!(a.counts.len(), 4);
        assert_eq!(b.counts.len(), 6);
    }
}
