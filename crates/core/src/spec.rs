//! Runtime-selectable topology, mapper and backend configurations.

use crate::expr::{LimitKind, LimitSpec};
use hyperspace_mapping::{
    GlobalRandomMapper, LeastBusyMapper, MapView, Mapper, MapperFactory, RandomMapper,
    RoundRobinMapper, Target, WeightAwareMapper,
};
use hyperspace_recursion::Objective;
use hyperspace_sat::{Heuristic, Polarity, RestartPolicy, SimplifyMode};
use hyperspace_sim::{Partition, ShardedConfig};
use hyperspace_topology::{FullyConnected, Grid, Hypercube, NodeId, Ring, Topology, Torus};

/// Machine topologies, as evaluated in §V-A (plus extras).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// 2-D torus, `w x h` cores.
    Torus2D {
        /// Width.
        w: u32,
        /// Height.
        h: u32,
    },
    /// 3-D torus, `x*y*z` cores.
    Torus3D {
        /// X extent.
        x: u32,
        /// Y extent.
        y: u32,
        /// Z extent.
        z: u32,
    },
    /// Arbitrary-dimension torus.
    Torus(Vec<u32>),
    /// Non-wrapping grid (transputer array).
    Grid(Vec<u32>),
    /// Binary hypercube with `2^dim` cores.
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// Ring of `n` cores.
    Ring {
        /// Node count.
        n: u32,
    },
    /// Fully connected baseline of `n` cores.
    Full {
        /// Node count.
        n: u32,
    },
}

impl TopologySpec {
    /// Instantiates the topology.
    pub fn build(&self) -> Box<dyn Topology> {
        match self {
            TopologySpec::Torus2D { w, h } => Box::new(Torus::new_2d(*w, *h)),
            TopologySpec::Torus3D { x, y, z } => Box::new(Torus::new_3d(*x, *y, *z)),
            TopologySpec::Torus(dims) => Box::new(Torus::new(dims)),
            TopologySpec::Grid(dims) => Box::new(Grid::new(dims)),
            TopologySpec::Hypercube { dim } => Box::new(Hypercube::new(*dim)),
            TopologySpec::Ring { n } => Box::new(Ring::new(*n)),
            TopologySpec::Full { n } => Box::new(FullyConnected::new(*n)),
        }
    }

    /// Number of cores this spec instantiates.
    pub fn num_nodes(&self) -> usize {
        self.build().num_nodes()
    }

    /// Human-readable name (matches `Topology::name`).
    pub fn name(&self) -> String {
        self.build().name()
    }

    /// The square-ish 2-D torus with at least `n` cores (for sweeps).
    pub fn torus2d_fitting(n: usize) -> TopologySpec {
        let side = (n as f64).sqrt().ceil() as u32;
        TopologySpec::Torus2D { w: side, h: side }
    }

    /// The cube-ish 3-D torus with at least `n` cores (for sweeps).
    pub fn torus3d_fitting(n: usize) -> TopologySpec {
        let side = (n as f64).cbrt().ceil() as u32;
        TopologySpec::Torus3D {
            x: side,
            y: side,
            z: side,
        }
    }
}

/// Error parsing a [`TopologySpec`] or [`MapperSpec`] from a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecParseError(String);

impl std::fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid spec: {}", self.0)
    }
}

impl std::error::Error for SpecParseError {}

impl SpecParseError {
    /// Crate-internal constructor (the expression parser in
    /// [`crate::expr`] builds positioned errors with it).
    pub(crate) fn new(msg: impl Into<String>) -> SpecParseError {
        SpecParseError(msg.into())
    }
}

fn parse_dims(text: &str, spec: &str) -> Result<Vec<u32>, SpecParseError> {
    let dims: Result<Vec<u32>, _> = text.split('x').map(str::parse::<u32>).collect();
    match dims {
        Ok(dims) if !dims.is_empty() && dims.iter().all(|&d| d > 0) => Ok(dims),
        _ => Err(SpecParseError(format!(
            "{spec:?}: expected positive dimensions like 4x4, got {text:?}"
        ))),
    }
}

fn parse_scalar(text: &str, spec: &str) -> Result<u32, SpecParseError> {
    text.parse::<u32>()
        .map_err(|_| SpecParseError(format!("{spec:?}: expected a number, got {text:?}")))
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let join = |dims: &[u32]| {
            dims.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x")
        };
        match self {
            TopologySpec::Torus2D { w, h } => write!(f, "torus2d:{w}x{h}"),
            TopologySpec::Torus3D { x, y, z } => write!(f, "torus3d:{x}x{y}x{z}"),
            TopologySpec::Torus(dims) => write!(f, "torus:{}", join(dims)),
            TopologySpec::Grid(dims) => write!(f, "grid:{}", join(dims)),
            TopologySpec::Hypercube { dim } => write!(f, "hypercube:{dim}"),
            TopologySpec::Ring { n } => write!(f, "ring:{n}"),
            TopologySpec::Full { n } => write!(f, "full:{n}"),
        }
    }
}

impl std::str::FromStr for TopologySpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `torus2d:14x14`,
    /// `torus3d:6x6x6`, `torus:2x3x4`, `grid:4x8`, `hypercube:5`,
    /// `ring:9`, `full:64`.
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        let (name, args) = s
            .split_once(':')
            .ok_or_else(|| SpecParseError(format!("{s:?}: expected name:dims")))?;
        match name {
            "torus2d" => match parse_dims(args, s)?.as_slice() {
                [w, h] => Ok(TopologySpec::Torus2D { w: *w, h: *h }),
                _ => Err(SpecParseError(format!("{s:?}: torus2d takes WxH"))),
            },
            "torus3d" => match parse_dims(args, s)?.as_slice() {
                [x, y, z] => Ok(TopologySpec::Torus3D {
                    x: *x,
                    y: *y,
                    z: *z,
                }),
                _ => Err(SpecParseError(format!("{s:?}: torus3d takes XxYxZ"))),
            },
            "torus" => Ok(TopologySpec::Torus(parse_dims(args, s)?)),
            "grid" => Ok(TopologySpec::Grid(parse_dims(args, s)?)),
            "hypercube" => Ok(TopologySpec::Hypercube {
                dim: parse_scalar(args, s)?,
            }),
            "ring" => Ok(TopologySpec::Ring {
                n: parse_scalar(args, s)?,
            }),
            "full" => Ok(TopologySpec::Full {
                n: parse_scalar(args, s)?,
            }),
            other => Err(SpecParseError(format!(
                "{s:?}: expected a known topology, got {other:?}"
            ))),
        }
    }
}

/// Mapping policies, as evaluated in §V-D (plus extras).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapperSpec {
    /// Static round robin (the paper's RR).
    RoundRobin,
    /// Adaptive least-busy-neighbour (the paper's LBN), optionally
    /// refreshed by periodic status broadcasts (§III-B2; the broadcasts
    /// cost interconnect capacity — set `None` for pure piggy-backing).
    LeastBusy {
        /// Broadcast period in steps, if enabled.
        status_period: Option<u64>,
    },
    /// Static uniform random over the local ports.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Static uniform random over *all* nodes; requires routed delivery
    /// (the stack builder switches the engine to `DeliveryModel::Routed`
    /// automatically). Models a virtualised any-to-any fabric (§II-A).
    GlobalRandom {
        /// RNG seed.
        seed: u64,
    },
    /// Hint-aware (§III-B3): keep sub-problems lighter than the threshold
    /// local, delegate the rest to the least busy neighbour.
    WeightAware {
        /// Keep-local weight threshold.
        local_threshold: u32,
        /// Optional status broadcast period.
        status_period: Option<u64>,
    },
}

impl MapperSpec {
    /// The status-broadcast period this policy wants, if any.
    pub fn status_period(&self) -> Option<u64> {
        match self {
            MapperSpec::LeastBusy { status_period }
            | MapperSpec::WeightAware { status_period, .. } => *status_period,
            _ => None,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MapperSpec::RoundRobin => "round-robin",
            MapperSpec::LeastBusy { .. } => "least-busy",
            MapperSpec::Random { .. } => "random",
            MapperSpec::GlobalRandom { .. } => "global-random",
            MapperSpec::WeightAware { .. } => "weight-aware",
        }
    }

    /// Whether this policy targets arbitrary nodes and therefore needs a
    /// delivery model that reaches non-neighbours.
    pub fn needs_global_delivery(&self) -> bool {
        matches!(self, MapperSpec::GlobalRandom { .. })
    }

    /// A factory producing this policy's per-node mappers.
    pub fn factory(&self) -> SpecMapperFactory {
        SpecMapperFactory { spec: self.clone() }
    }
}

impl std::fmt::Display for MapperSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapperSpec::RoundRobin => f.write_str("round-robin"),
            MapperSpec::LeastBusy { status_period } => match status_period {
                Some(p) => write!(f, "least-busy:{p}"),
                None => f.write_str("least-busy"),
            },
            MapperSpec::Random { seed } => write!(f, "random:{seed}"),
            MapperSpec::GlobalRandom { seed } => write!(f, "global-random:{seed}"),
            MapperSpec::WeightAware {
                local_threshold,
                status_period,
            } => match status_period {
                Some(p) => write!(f, "weight-aware:{local_threshold}:{p}"),
                None => write!(f, "weight-aware:{local_threshold}"),
            },
        }
    }
}

impl std::str::FromStr for MapperSpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `round-robin`,
    /// `least-busy`, `least-busy:PERIOD`, `random:SEED`,
    /// `global-random:SEED`, `weight-aware:THRESHOLD[:PERIOD]`.
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        let mut parts = s.split(':');
        let name = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        let scalar = |text: &str| -> Result<u64, SpecParseError> {
            text.parse::<u64>()
                .map_err(|_| SpecParseError(format!("{s:?}: expected a number, got {text:?}")))
        };
        let threshold = |text: &str| -> Result<u32, SpecParseError> {
            text.parse::<u32>().map_err(|_| {
                SpecParseError(format!("{s:?}: expected a 32-bit threshold, got {text:?}"))
            })
        };
        match (name, args.as_slice()) {
            ("round-robin", []) => Ok(MapperSpec::RoundRobin),
            ("least-busy", []) => Ok(MapperSpec::LeastBusy {
                status_period: None,
            }),
            ("least-busy", [p]) => Ok(MapperSpec::LeastBusy {
                status_period: Some(scalar(p)?),
            }),
            ("random", [seed]) => Ok(MapperSpec::Random {
                seed: scalar(seed)?,
            }),
            ("global-random", [seed]) => Ok(MapperSpec::GlobalRandom {
                seed: scalar(seed)?,
            }),
            ("weight-aware", [thr]) => Ok(MapperSpec::WeightAware {
                local_threshold: threshold(thr)?,
                status_period: None,
            }),
            ("weight-aware", [thr, p]) => Ok(MapperSpec::WeightAware {
                local_threshold: threshold(thr)?,
                status_period: Some(scalar(p)?),
            }),
            _ => Err(SpecParseError(format!(
                "{s:?}: expected a known mapper policy, got {name:?}"
            ))),
        }
    }
}

/// Optimisation objective of a run (string forms: `enumerate`, `max`,
/// `min`).
///
/// [`ObjectiveSpec::Enumerate`] is the classic behaviour: the program
/// explores its whole search space and the host never tracks incumbents.
/// The other two switch layer 4 into branch-and-bound mode: completed
/// feasible solutions become *incumbents* that gossip through the mesh
/// as ordinary `Bound` envelopes (bit-identical across backends), and —
/// if a [`PruneSpec`] enables it — subtrees that cannot beat the
/// incumbent are answered without expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ObjectiveSpec {
    /// Plain enumeration/decision search (no incumbent machinery).
    #[default]
    Enumerate,
    /// Maximise the program's solution value.
    Maximise,
    /// Minimise the program's solution value.
    Minimise,
}

impl ObjectiveSpec {
    /// The layer-4 objective direction, if this spec is an optimisation.
    pub fn objective(&self) -> Option<Objective> {
        match self {
            ObjectiveSpec::Enumerate => None,
            ObjectiveSpec::Maximise => Some(Objective::Maximise),
            ObjectiveSpec::Minimise => Some(Objective::Minimise),
        }
    }

    /// Short name for reports (matches the `Display`/`FromStr` syntax).
    pub fn name(&self) -> &'static str {
        match self {
            ObjectiveSpec::Enumerate => "enumerate",
            ObjectiveSpec::Maximise => "max",
            ObjectiveSpec::Minimise => "min",
        }
    }
}

impl std::fmt::Display for ObjectiveSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ObjectiveSpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `enumerate`,
    /// `max`, `min`.
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        match s {
            "enumerate" => Ok(ObjectiveSpec::Enumerate),
            "max" => Ok(ObjectiveSpec::Maximise),
            "min" => Ok(ObjectiveSpec::Minimise),
            other => Err(SpecParseError(format!(
                "{s:?}: expected enumerate, max or min, got {other:?}"
            ))),
        }
    }
}

/// Pruning policy of a branch-and-bound run (string forms: `off`,
/// `incumbent`, `incumbent:N`).
///
/// Only meaningful together with an optimisation [`ObjectiveSpec`];
/// under `Enumerate` it is ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PruneSpec {
    /// Exhaustive search: incumbents are still tracked and shared (the
    /// run reports `best_incumbent`), but nothing is cut.
    #[default]
    Off,
    /// Cut subtrees whose [`hyperspace_recursion::RecProgram::bound`]
    /// cannot *strictly* beat the incumbent, optionally warm-started
    /// with an externally known feasible value.
    ///
    /// Under a warm start the authoritative optimum of a completed run
    /// is the report's `best_incumbent` (which includes the warm
    /// start), **not** `result`: solutions merely *tying* the warm
    /// start are pruned — correctly, they cannot improve on it — so
    /// the search fold may come back dominated (e.g. a warm start
    /// equal to the optimum proves optimality while `result` reports
    /// only pruned sentinels).
    Incumbent {
        /// Starting incumbent (e.g. from a greedy heuristic); must be
        /// a *feasible* value or the optimum may be pruned away.
        /// `None` starts cold.
        initial: Option<i64>,
    },
}

impl PruneSpec {
    /// Incumbent pruning with a cold start.
    pub fn incumbent() -> PruneSpec {
        PruneSpec::Incumbent { initial: None }
    }

    /// Whether pruning is enabled.
    pub fn is_enabled(&self) -> bool {
        matches!(self, PruneSpec::Incumbent { .. })
    }

    /// The warm-start incumbent, if any.
    pub fn initial_incumbent(&self) -> Option<i64> {
        match self {
            PruneSpec::Off => None,
            PruneSpec::Incumbent { initial } => *initial,
        }
    }
}

impl std::fmt::Display for PruneSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PruneSpec::Off => f.write_str("off"),
            PruneSpec::Incumbent { initial: None } => f.write_str("incumbent"),
            PruneSpec::Incumbent { initial: Some(v) } => write!(f, "incumbent:{v}"),
        }
    }
}

impl std::str::FromStr for PruneSpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `off`,
    /// `incumbent`, `incumbent:N` (N may be negative).
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        match s {
            "off" => Ok(PruneSpec::Off),
            "incumbent" => Ok(PruneSpec::Incumbent { initial: None }),
            other => match other.strip_prefix("incumbent:") {
                Some(v) => v
                    .parse::<i64>()
                    .map(|initial| PruneSpec::Incumbent {
                        initial: Some(initial),
                    })
                    .map_err(|_| {
                        SpecParseError(format!("{s:?}: expected an integer incumbent, got {v:?}"))
                    }),
                None => Err(SpecParseError(format!(
                    "{s:?}: expected off, incumbent or incumbent:N, got {other:?}"
                ))),
            },
        }
    }
}

/// Checkpoint policy of a run (string forms: `off`, `interval:N`).
///
/// Under `interval:N` the run is driven in slices of `N` simulated
/// steps, each ending at a step barrier where the engine's state is a
/// well-defined checkpoint: a service can suspend the job there (the
/// live machine parks in the queue), resume it later on any worker, or
/// — after a crash — re-derive the checkpoint state by deterministic
/// replay. Checkpointing **never changes what is computed**: a sliced
/// run is bit-identical to an uninterrupted one (enforced by the
/// checkpoint equivalence suite), which is also why this spec is *not*
/// part of service cache keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CheckpointSpec {
    /// No checkpoints: the run is one slice spanning the whole step
    /// cap — it has no barrier to suspend or preempt it at.
    #[default]
    Off,
    /// Checkpoint every `steps` simulated steps.
    Interval {
        /// Slice length in simulated steps (must be > 0).
        steps: u64,
    },
}

impl CheckpointSpec {
    /// A checkpoint every `steps` simulated steps.
    pub fn every(steps: u64) -> CheckpointSpec {
        CheckpointSpec::Interval {
            steps: steps.max(1),
        }
    }

    /// The slice length, if checkpointing is enabled.
    pub fn interval(&self) -> Option<u64> {
        match self {
            CheckpointSpec::Off => None,
            CheckpointSpec::Interval { steps } => Some(*steps),
        }
    }

    /// Whether runs under this spec are suspendable.
    pub fn is_enabled(&self) -> bool {
        matches!(self, CheckpointSpec::Interval { .. })
    }
}

impl std::fmt::Display for CheckpointSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointSpec::Off => f.write_str("off"),
            CheckpointSpec::Interval { steps } => write!(f, "interval:{steps}"),
        }
    }
}

impl std::str::FromStr for CheckpointSpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `off`,
    /// `interval:N` (N > 0).
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        match s {
            "off" => Ok(CheckpointSpec::Off),
            other => match other.strip_prefix("interval:") {
                Some(v) => match v.parse::<u64>() {
                    Ok(steps) if steps > 0 => Ok(CheckpointSpec::Interval { steps }),
                    Ok(_) => Err(SpecParseError(format!(
                        "{s:?}: checkpoint interval must be > 0"
                    ))),
                    Err(_) => Err(SpecParseError(format!(
                        "{s:?}: expected a step count, got {v:?}"
                    ))),
                },
                None => Err(SpecParseError(format!(
                    "{s:?}: expected off or interval:N, got {other:?}"
                ))),
            },
        }
    }
}

/// Which layer-1 execution backend runs the assembled stack.
///
/// Three spellings of one engine: each names how the layer-1 machine is
/// cut into shards and how many threads step them. All produce
/// **bit-identical** runs (states, metrics, trace) — enforced by the
/// cross-backend equivalence suite — so the choice only trades
/// wall-clock time for cores.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// One shard stepped inline on the calling thread (the paper's §IV-A
    /// evaluation backend).
    #[default]
    Sequential,
    /// "Use the machine": one block shard and one worker thread per
    /// available core — the default [`ShardedConfig`].
    Parallel,
    /// State partitioned into shards with their own queues, exchanging
    /// cross-shard envelopes at step barriers.
    Sharded {
        /// Number of shards.
        shards: u32,
        /// Node-to-shard assignment (string forms: `block`, `rr`).
        partition: Partition,
        /// Worker threads (`None` = one per shard, capped by the
        /// machine).
        threads: Option<u32>,
    },
}

impl BackendSpec {
    /// A block-partitioned sharded backend with `shards` shards.
    pub fn sharded(shards: u32) -> BackendSpec {
        BackendSpec::Sharded {
            shards,
            partition: Partition::Block,
            threads: None,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Sequential => "seq",
            BackendSpec::Parallel => "parallel",
            BackendSpec::Sharded { .. } => "sharded",
        }
    }

    /// The layer-1 configuration every spelling lowers to.
    pub(crate) fn lower(&self) -> ShardedConfig {
        match self {
            BackendSpec::Sequential => ShardedConfig::with_shards(1),
            BackendSpec::Parallel => ShardedConfig::default(),
            BackendSpec::Sharded { .. } => self.sharded_config().expect("sharded spelling"),
        }
    }

    /// The explicit sharding, when this spec spells one out.
    pub fn sharded_config(&self) -> Option<ShardedConfig> {
        match self {
            BackendSpec::Sharded {
                shards,
                partition,
                threads,
            } => Some(ShardedConfig {
                shards: *shards as usize,
                partition: *partition,
                threads: threads.map(|t| t as usize),
            }),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendSpec::Sequential => f.write_str("seq"),
            BackendSpec::Parallel => f.write_str("parallel"),
            BackendSpec::Sharded {
                shards,
                partition,
                threads,
            } => {
                write!(f, "sharded:{shards}")?;
                if *partition != Partition::Block {
                    f.write_str(":rr")?;
                }
                if let Some(t) = threads {
                    write!(f, ":{t}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::str::FromStr for BackendSpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `seq`,
    /// `parallel`, `sharded:K`, `sharded:K:block`, `sharded:K:rr`,
    /// `sharded:K[:PARTITION]:THREADS` (e.g. `sharded:8:rr:4`).
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        let mut parts = s.split(':');
        let name = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        match (name, args.as_slice()) {
            ("seq", []) => Ok(BackendSpec::Sequential),
            ("parallel", []) => Ok(BackendSpec::Parallel),
            ("sharded", [shards, rest @ ..]) if rest.len() <= 2 => {
                let shards = parse_scalar(shards, s)?;
                if shards == 0 {
                    return Err(SpecParseError(format!("{s:?}: shard count must be > 0")));
                }
                let mut partition = None;
                let mut threads = None;
                for tok in rest {
                    match *tok {
                        "block" if partition.is_none() => partition = Some(Partition::Block),
                        "rr" if partition.is_none() => partition = Some(Partition::RoundRobin),
                        other if threads.is_none() && other.parse::<u32>().is_ok() => {
                            let t = parse_scalar(other, s)?;
                            if t == 0 {
                                return Err(SpecParseError(format!(
                                    "{s:?}: thread count must be > 0"
                                )));
                            }
                            threads = Some(t);
                        }
                        _ => {
                            return Err(SpecParseError(format!(
                                "{s:?}: expected partition (block/rr) or thread count, got {tok:?}"
                            )))
                        }
                    }
                }
                Ok(BackendSpec::Sharded {
                    shards,
                    partition: partition.unwrap_or_default(),
                    threads,
                })
            }
            _ => Err(SpecParseError(format!(
                "{s:?}: expected seq, parallel or sharded:K[:partition][:threads], got {name:?}"
            ))),
        }
    }
}

/// Which search engine drives one portfolio member.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineSpec {
    /// A full five-layer mesh stack (any workload).
    #[default]
    Mesh,
    /// The sequential clause-learning solver (SAT only); learned clauses
    /// are exported to — and imported from — sibling CDCL members at
    /// every sync epoch.
    Cdcl {
        /// Restart schedule (the classic CDCL diversifier).
        restart: RestartPolicy,
    },
}

/// One diversified member of a solver portfolio: which engine runs and
/// every strategy knob that engine honours. Knobs irrelevant to the
/// selected engine/workload (e.g. [`StrategySpec::heuristic`] on a
/// knapsack job) are simply ignored.
///
/// The string form starts with the engine name followed by
/// `key=value` pairs for non-default knobs:
/// `mesh,h=dlis,s=split-only,pol=neg,seed=7,prune=incumbent:40,map=random:3,backend=sharded:2`
/// or `cdcl,restart=luby:64,pol=neg,seed=3`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategySpec {
    /// The engine.
    pub engine: EngineSpec,
    /// Branching heuristic (mesh SAT members).
    pub heuristic: Heuristic,
    /// Per-activation simplification strength (mesh SAT members).
    pub simplify: SimplifyMode,
    /// First-branch polarity (SAT members, both engines).
    pub polarity: Polarity,
    /// Diversification seed: reseeds `random` heuristics/mappers and
    /// rotates the CDCL branching scan.
    pub seed: u64,
    /// Pruning policy override, including warm starts (mesh B&B
    /// members). [`PruneSpec::Off`] — the default — means "no opinion":
    /// portfolio runners substitute their job-level policy for it.
    pub prune: PruneSpec,
    /// Mapping-policy override; `None` inherits the portfolio's mapper.
    /// Different placements discover incumbents at different
    /// (deterministic) steps — the main B&B diversifier.
    pub mapper: Option<MapperSpec>,
    /// Execution backend of a mesh member. Backends are bit-identical,
    /// so this knob never changes what the member computes — it is
    /// excluded from [`StrategySpec::describe`].
    pub backend: BackendSpec,
    /// Bounds on this member's search (`limit(...)` combinators lowered
    /// onto the flat spec): discrepancy budgets, per-node activation
    /// budgets, logical-time budgets. Empty — the default, and the only
    /// value legacy flat strings produce — renders nothing, so legacy
    /// `Display`/`describe` output (and every cache key built from it)
    /// is byte-for-byte unchanged. Flat syntax: repeatable
    /// `limit=kind:N` pairs.
    pub limits: Vec<LimitSpec>,
}

impl Default for StrategySpec {
    fn default() -> Self {
        StrategySpec {
            engine: EngineSpec::Mesh,
            heuristic: Heuristic::JeroslowWang,
            simplify: SimplifyMode::Fixpoint,
            polarity: Polarity::Positive,
            seed: 0,
            prune: PruneSpec::Off,
            mapper: None,
            backend: BackendSpec::Sequential,
            limits: Vec::new(),
        }
    }
}

impl StrategySpec {
    /// A default mesh member.
    pub fn mesh() -> StrategySpec {
        StrategySpec::default()
    }

    /// A CDCL member with the given restart schedule.
    pub fn cdcl(restart: RestartPolicy) -> StrategySpec {
        StrategySpec {
            engine: EngineSpec::Cdcl { restart },
            ..StrategySpec::default()
        }
    }

    /// Sets the branching heuristic.
    pub fn with_heuristic(mut self, heuristic: Heuristic) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Sets the simplification strength.
    pub fn with_simplify(mut self, simplify: SimplifyMode) -> Self {
        self.simplify = simplify;
        self
    }

    /// Sets the first-branch polarity.
    pub fn with_polarity(mut self, polarity: Polarity) -> Self {
        self.polarity = polarity;
        self
    }

    /// Sets the diversification seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the pruning policy (warm starts included).
    pub fn with_prune(mut self, prune: PruneSpec) -> Self {
        self.prune = prune;
        self
    }

    /// Overrides the mapping policy for this member.
    pub fn with_mapper(mut self, mapper: MapperSpec) -> Self {
        self.mapper = Some(mapper);
        self
    }

    /// Sets the execution backend (mesh members).
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Adds one search bound (repeatable — limits accumulate).
    pub fn with_limit(mut self, limit: LimitSpec) -> Self {
        self.limits.push(limit);
        self
    }

    /// The tightest (smallest) budget among this member's limits of
    /// `kind`, or `None` when it carries none — the one reader of
    /// [`StrategySpec::limits`]; callers apply their own default.
    pub fn tightest(&self, kind: LimitKind) -> Option<u64> {
        let of_kind = |l: &&LimitSpec| l.kind == kind;
        self.limits.iter().filter(of_kind).map(|l| l.n).min()
    }

    /// Rejects the one knob combination that is a contradiction rather
    /// than inert: a discrepancy budget counts deviations from the mesh
    /// search's branching order, which a CDCL engine does not have. Both
    /// grammars end here — the flat member parser below and the
    /// lowering of a [`StrategyExpr`](crate::StrategyExpr) — so a
    /// strategy gets one verdict however it is spelled; whoever accepts
    /// hand-built specs whose rendering must parse again later (a durable
    /// job record) asks too.
    pub fn check_limits_fit_engine(&self) -> Result<(), SpecParseError> {
        let discrepancy = |l: &LimitSpec| l.kind == LimitKind::Discrepancy;
        if matches!(self.engine, EngineSpec::Cdcl { .. }) && self.limits.iter().any(discrepancy) {
            return Err(SpecParseError::new(
                "limit(discrepancy,...): expected a mesh search underneath, got cdcl",
            ));
        }
        Ok(())
    }

    /// The branching heuristic with the member seed folded in (seeded
    /// heuristics only; deterministic ones are returned unchanged).
    pub fn seeded_heuristic(&self) -> Heuristic {
        match self.heuristic {
            Heuristic::Random(s) => Heuristic::Random(s ^ self.seed),
            h => h,
        }
    }

    /// The mapping policy this member actually runs under: its own
    /// override, or `base` otherwise, with the member seed folded into
    /// seeded policies so same-policy members still explore different
    /// placements. Deterministic policies pass through unchanged.
    pub fn seeded_mapper(&self, base: &MapperSpec) -> MapperSpec {
        let mapper = self.mapper.clone().unwrap_or_else(|| base.clone());
        match mapper {
            MapperSpec::Random { seed } => MapperSpec::Random {
                seed: seed ^ self.seed,
            },
            MapperSpec::GlobalRandom { seed } => MapperSpec::GlobalRandom {
                seed: seed ^ self.seed,
            },
            other => other,
        }
    }

    /// Renders every non-default knob whatever the engine (knobs the
    /// engine ignores stay inert but must round-trip — a spec written
    /// out and re-parsed compares equal).
    fn render(&self, f: &mut std::fmt::Formatter<'_>, with_backend: bool) -> std::fmt::Result {
        let defaults = StrategySpec::default();
        match self.engine {
            EngineSpec::Mesh => f.write_str("mesh")?,
            EngineSpec::Cdcl { restart } => {
                f.write_str("cdcl")?;
                if restart != RestartPolicy::Off {
                    write!(f, ",restart={restart}")?;
                }
            }
        }
        if self.heuristic != defaults.heuristic {
            write!(f, ",h={}", self.heuristic)?;
        }
        if self.simplify != defaults.simplify {
            write!(f, ",s={}", self.simplify)?;
        }
        if self.polarity != defaults.polarity {
            write!(f, ",pol={}", self.polarity)?;
        }
        if self.seed != defaults.seed {
            write!(f, ",seed={}", self.seed)?;
        }
        if self.prune != defaults.prune {
            write!(f, ",prune={}", self.prune)?;
        }
        if let Some(mapper) = &self.mapper {
            write!(f, ",map={mapper}")?;
        }
        for limit in &self.limits {
            write!(f, ",limit={limit}")?;
        }
        if with_backend && self.backend != defaults.backend {
            write!(f, ",backend={}", self.backend)?;
        }
        Ok(())
    }

    /// Canonical *computation-identifying* rendering: the full strategy
    /// minus the execution backend (backends are bit-identical, so two
    /// members differing only there are the same computation). This is
    /// what report labels and service cache keys use.
    pub fn describe(&self) -> String {
        struct NoBackend<'a>(&'a StrategySpec);
        impl std::fmt::Display for NoBackend<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.render(f, false)
            }
        }
        NoBackend(self).to_string()
    }
}

impl std::fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.render(f, true)
    }
}

impl std::str::FromStr for StrategySpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax (see the type
    /// docs). Every knob key is accepted for every engine (mirroring
    /// the renderer — knobs irrelevant to the engine are simply inert);
    /// only `restart` is engine-bound, since it lives inside the CDCL
    /// engine itself, and a `limit=discrepancy:N` is refused on `cdcl`.
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        let mut parts = s.split(',');
        let engine = parts.next().unwrap_or_default();
        let mut spec = match engine {
            "mesh" => StrategySpec::mesh(),
            "cdcl" => StrategySpec::cdcl(RestartPolicy::Off),
            other => {
                return Err(SpecParseError(format!(
                    "{s:?}: expected engine mesh or cdcl, got {other:?}"
                )))
            }
        };
        for pair in parts {
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                SpecParseError(format!("{s:?}: expected key=value, got {pair:?}"))
            })?;
            let bad = |what: &str| {
                SpecParseError(format!("{s:?}: expected a valid {what}, got {value:?}"))
            };
            match key {
                "h" => spec.heuristic = value.parse().map_err(|_| bad("heuristic"))?,
                "s" => spec.simplify = value.parse().map_err(|_| bad("simplify mode"))?,
                "pol" => spec.polarity = value.parse().map_err(|_| bad("polarity"))?,
                "seed" => spec.seed = value.parse().map_err(|_| bad("seed"))?,
                "prune" => spec.prune = value.parse().map_err(|_| bad("prune policy"))?,
                "map" => spec.mapper = Some(value.parse().map_err(|_| bad("mapper"))?),
                "backend" => spec.backend = value.parse().map_err(|_| bad("backend"))?,
                "limit" => spec
                    .limits
                    .push(value.parse().map_err(|_| bad("limit (kind:N)"))?),
                "restart" if engine == "cdcl" => {
                    spec.engine = EngineSpec::Cdcl {
                        restart: value.parse().map_err(|_| bad("restart policy"))?,
                    };
                }
                other => {
                    return Err(SpecParseError(format!(
                        "{s:?}: expected a known {engine} member key, got {other:?}"
                    )))
                }
            }
        }
        spec.check_limits_fit_engine()?;
        Ok(spec)
    }
}

/// One portfolio member: a sequence of flat [`StrategySpec`] attempts,
/// tried in order. A plan with one attempt is an ordinary member (every
/// flat [`StrategySpec`] converts into one); multi-attempt plans come
/// from `or(...)` expressions and hand over to the next attempt when the
/// current one exhausts its limits.
///
/// String form: the attempts' [`StrategySpec`] syntax joined by `>>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberPlan {
    /// The attempts, in trial order (never empty in a plan that runs:
    /// parsing and lowering cannot produce an empty one, and the service
    /// rejects hand-built ones at submission).
    pub attempts: Vec<StrategySpec>,
}

impl From<StrategySpec> for MemberPlan {
    fn from(spec: StrategySpec) -> MemberPlan {
        MemberPlan {
            attempts: vec![spec],
        }
    }
}

impl MemberPlan {
    fn render(&self, attempt: fn(&StrategySpec) -> String) -> String {
        let attempts: Vec<String> = self.attempts.iter().map(attempt).collect();
        attempts.join(">>")
    }

    /// Canonical *computation-identifying* label (attempts via
    /// [`StrategySpec::describe`], so backends are left out). This is
    /// what report labels and service cache keys use.
    pub fn describe(&self) -> String {
        self.render(StrategySpec::describe)
    }
}

impl std::fmt::Display for MemberPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render(StrategySpec::to_string))
    }
}

impl std::str::FromStr for MemberPlan {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax:
    /// `attempt>>attempt>>...`.
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        let attempts = s.split(">>").map(str::parse).collect::<Result<_, _>>()?;
        Ok(MemberPlan { attempts })
    }
}

/// A portfolio of diversified members racing the same job, synchronised
/// at deterministic epochs where they exchange learned clauses (CDCL
/// members) and incumbents (B&B members). This is the one description of
/// "what to race" every layer above `core` carries: a
/// [`StrategyExpr`](crate::StrategyExpr) is an input grammar that lowers
/// into it once, at parse time.
///
/// String form: `epoch=E;len=L;lbd=B;member|member|...` (members use the
/// [`MemberPlan`] syntax). Parsing also accepts a strategy expression,
/// lowered under the default exchange budgets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioSpec {
    /// Sync-epoch length, in simulated steps (mesh members) or search
    /// operations (CDCL members). Knowledge is exchanged — and winners
    /// decided — only at epoch barriers, which is what makes the race
    /// deterministic.
    pub epoch_steps: u64,
    /// Longest learned clause the knowledge bus accepts.
    pub max_clause_len: u32,
    /// Highest learned-clause LBD the bus accepts (equals length for the
    /// decision-negation clauses CDCL-lite learns).
    pub max_clause_lbd: u32,
    /// The members, raced in index order.
    pub members: Vec<MemberPlan>,
}

impl PortfolioSpec {
    /// A portfolio over the given members with the default exchange
    /// budgets (epoch 32, clause length/LBD ≤ 8).
    pub fn new(members: Vec<impl Into<MemberPlan>>) -> PortfolioSpec {
        PortfolioSpec {
            epoch_steps: 32,
            max_clause_len: 8,
            max_clause_lbd: 8,
            members: members.into_iter().map(Into::into).collect(),
        }
    }

    /// Sets the sync-epoch length.
    pub fn epoch(mut self, steps: u64) -> Self {
        self.epoch_steps = steps.max(1);
        self
    }

    /// A `k`-member diversified SAT portfolio: mesh members rotating
    /// through the branching heuristics and polarities, plus CDCL
    /// members on Luby restarts once `k > 4`.
    pub fn diversified_sat(k: usize) -> PortfolioSpec {
        let heuristics = [
            Heuristic::JeroslowWang,
            Heuristic::Dlis,
            Heuristic::MostFrequent,
            Heuristic::FirstUnassigned,
        ];
        let members: Vec<StrategySpec> = (0..k.max(1))
            .map(|i| {
                if i >= 4 {
                    // Cap the shift so arbitrarily large member counts
                    // degrade gracefully instead of overflowing.
                    StrategySpec::cdcl(RestartPolicy::Luby(8u64 << (i - 4).min(56)))
                        .with_seed(i as u64)
                        .with_polarity(if i % 2 == 0 {
                            Polarity::Positive
                        } else {
                            Polarity::Negative
                        })
                } else {
                    StrategySpec::mesh()
                        .with_heuristic(heuristics[i % heuristics.len()])
                        .with_polarity(if i % 2 == 0 {
                            Polarity::Positive
                        } else {
                            Polarity::Negative
                        })
                        .with_seed(i as u64)
                }
            })
            .collect();
        PortfolioSpec::new(members)
    }

    fn render(&self, member: fn(&MemberPlan) -> String) -> String {
        let members: Vec<String> = self.members.iter().map(member).collect();
        format!(
            "epoch={};len={};lbd={};{}",
            self.epoch_steps,
            self.max_clause_len,
            self.max_clause_lbd,
            members.join("|")
        )
    }

    /// Canonical *computation-identifying* rendering (members via
    /// [`MemberPlan::describe`], so member backends do not split
    /// service caches).
    pub fn describe(&self) -> String {
        self.render(MemberPlan::describe)
    }
}

impl std::fmt::Display for PortfolioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render(MemberPlan::to_string))
    }
}

impl std::str::FromStr for PortfolioSpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax
    /// `epoch=E;len=L;lbd=B;member|member|...`, or — for text that does
    /// not start with `epoch=`, which no combinator name shares — a
    /// [`StrategyExpr`](crate::StrategyExpr), lowered into members under
    /// the default budgets of [`PortfolioSpec::new`].
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        if !s.starts_with("epoch=") {
            let expr: crate::expr::StrategyExpr = s.parse()?;
            return Ok(PortfolioSpec::new(expr.members()?));
        }
        let parts: Vec<&str> = s.splitn(4, ';').collect();
        let [epoch, len, lbd, members] = parts.as_slice() else {
            return Err(SpecParseError(format!(
                "{s:?}: expected epoch=E;len=L;lbd=B;members"
            )));
        };
        let field = |text: &str, key: &str| -> Result<u64, SpecParseError> {
            text.strip_prefix(key)
                .and_then(|v| v.strip_prefix('='))
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| SpecParseError(format!("{s:?}: expected {key}=N, got {text:?}")))
        };
        let epoch_steps = field(epoch, "epoch")?;
        if epoch_steps == 0 {
            return Err(SpecParseError(format!("{s:?}: epoch must be > 0")));
        }
        let narrow = |value: u64, key: &str| -> Result<u32, SpecParseError> {
            u32::try_from(value)
                .map_err(|_| SpecParseError(format!("{s:?}: {key} must fit in 32 bits")))
        };
        let max_clause_len = narrow(field(len, "len")?, "len")?;
        let max_clause_lbd = narrow(field(lbd, "lbd")?, "lbd")?;
        let members: Vec<MemberPlan> = members
            .split('|')
            .filter(|m| !m.is_empty())
            .map(str::parse)
            .collect::<Result<_, _>>()?;
        if members.is_empty() {
            return Err(SpecParseError(format!(
                "{s:?}: a portfolio needs at least one member"
            )));
        }
        Ok(PortfolioSpec {
            epoch_steps,
            max_clause_len,
            max_clause_lbd,
            members,
        })
    }
}

/// The per-node mapper of an assembled stack: any built-in policy, held
/// by value, so that one stack type serves every policy.
pub enum SpecMapper {
    /// [`MapperSpec::RoundRobin`].
    RoundRobin(RoundRobinMapper),
    /// [`MapperSpec::LeastBusy`].
    LeastBusy(LeastBusyMapper),
    /// [`MapperSpec::Random`].
    Random(RandomMapper),
    /// [`MapperSpec::GlobalRandom`].
    GlobalRandom(GlobalRandomMapper),
    /// [`MapperSpec::WeightAware`].
    WeightAware(WeightAwareMapper),
}

impl SpecMapper {
    fn inner(&mut self) -> &mut dyn Mapper {
        match self {
            SpecMapper::RoundRobin(m) => m,
            SpecMapper::LeastBusy(m) => m,
            SpecMapper::Random(m) => m,
            SpecMapper::GlobalRandom(m) => m,
            SpecMapper::WeightAware(m) => m,
        }
    }
}

impl Mapper for SpecMapper {
    fn choose(&mut self, view: &MapView) -> Target {
        self.inner().choose(view)
    }

    fn observe(&mut self, port: usize, load: u64) {
        self.inner().observe(port, load)
    }

    fn name(&self) -> &'static str {
        match self {
            SpecMapper::RoundRobin(m) => m.name(),
            SpecMapper::LeastBusy(m) => m.name(),
            SpecMapper::Random(m) => m.name(),
            SpecMapper::GlobalRandom(m) => m.name(),
            SpecMapper::WeightAware(m) => m.name(),
        }
    }
}

/// The [`MapperFactory`] of a [`MapperSpec`]: each node's mapper as the
/// `hyperspace_mapping` factories make it, seeded mappers from the spec's
/// seed mixed with the node id.
pub struct SpecMapperFactory {
    spec: MapperSpec,
}

impl MapperFactory for SpecMapperFactory {
    type M = SpecMapper;

    fn build(&self, node: NodeId, degree: usize) -> SpecMapper {
        let mix = |seed: u64| seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match &self.spec {
            MapperSpec::RoundRobin => {
                SpecMapper::RoundRobin(RoundRobinMapper::starting_at(node as usize % degree.max(1)))
            }
            MapperSpec::LeastBusy { .. } => {
                SpecMapper::LeastBusy(LeastBusyMapper::with_cursor(degree, node as usize))
            }
            MapperSpec::Random { seed } => SpecMapper::Random(RandomMapper::new(mix(*seed))),
            MapperSpec::GlobalRandom { seed } => {
                SpecMapper::GlobalRandom(GlobalRandomMapper::new(mix(*seed)))
            }
            MapperSpec::WeightAware {
                local_threshold, ..
            } => SpecMapper::WeightAware(WeightAwareMapper::new(degree, *local_threshold)),
        }
    }

    /// A mapper of this policy's kind restarts in its own count table;
    /// any other is built afresh (only the count tables live on the heap).
    fn reinit(&self, mapper: &mut SpecMapper, node: NodeId, degree: usize) {
        match (&self.spec, mapper) {
            (MapperSpec::LeastBusy { .. }, SpecMapper::LeastBusy(m)) => {
                m.restart(degree, node as usize)
            }
            (
                MapperSpec::WeightAware {
                    local_threshold, ..
                },
                SpecMapper::WeightAware(m),
            ) => m.restart(degree, *local_threshold),
            (_, mapper) => *mapper = self.build(node, degree),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_mapping::MapView;

    #[test]
    fn topology_specs_build() {
        assert_eq!(TopologySpec::Torus2D { w: 14, h: 14 }.num_nodes(), 196);
        assert_eq!(TopologySpec::Torus3D { x: 6, y: 6, z: 6 }.num_nodes(), 216);
        assert_eq!(TopologySpec::Hypercube { dim: 5 }.num_nodes(), 32);
        assert_eq!(TopologySpec::Full { n: 100 }.num_nodes(), 100);
        assert_eq!(TopologySpec::Ring { n: 9 }.num_nodes(), 9);
        assert_eq!(TopologySpec::Grid(vec![3, 4]).num_nodes(), 12);
        assert_eq!(TopologySpec::Torus(vec![2, 3, 4]).num_nodes(), 24);
    }

    #[test]
    fn fitting_helpers() {
        assert_eq!(
            TopologySpec::torus2d_fitting(196),
            TopologySpec::Torus2D { w: 14, h: 14 }
        );
        assert_eq!(
            TopologySpec::torus3d_fitting(216),
            TopologySpec::Torus3D { x: 6, y: 6, z: 6 }
        );
        assert!(TopologySpec::torus2d_fitting(100).num_nodes() >= 100);
        assert!(TopologySpec::torus3d_fitting(100).num_nodes() >= 100);
    }

    #[test]
    fn mapper_specs_build_named_policies() {
        let view = MapView {
            degree: 4,
            num_nodes: 16,
            local_load: 0,
            hint: 0,
        };
        for (spec, name) in [
            (MapperSpec::RoundRobin, "round-robin"),
            (
                MapperSpec::LeastBusy {
                    status_period: None,
                },
                "least-busy",
            ),
            (MapperSpec::Random { seed: 1 }, "random"),
            (
                MapperSpec::WeightAware {
                    local_threshold: 4,
                    status_period: None,
                },
                "weight-aware",
            ),
        ] {
            assert_eq!(spec.name(), name);
            let factory = spec.factory();
            let mut mapper = factory.build(3, 4);
            assert_eq!(mapper.name(), name);
            let _ = mapper.choose(&view);
        }
    }

    #[test]
    fn topology_spec_display_round_trips() {
        let specs = [
            TopologySpec::Torus2D { w: 14, h: 14 },
            TopologySpec::Torus3D { x: 6, y: 6, z: 6 },
            TopologySpec::Torus(vec![2, 3, 4]),
            TopologySpec::Grid(vec![4, 8]),
            TopologySpec::Hypercube { dim: 5 },
            TopologySpec::Ring { n: 9 },
            TopologySpec::Full { n: 64 },
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: TopologySpec = text.parse().unwrap_or_else(|e| {
                panic!("{text:?} failed to parse: {e}");
            });
            assert_eq!(parsed, spec, "round-trip through {text:?}");
        }
    }

    #[test]
    fn mapper_spec_display_round_trips() {
        let specs = [
            MapperSpec::RoundRobin,
            MapperSpec::LeastBusy {
                status_period: None,
            },
            MapperSpec::LeastBusy {
                status_period: Some(8),
            },
            MapperSpec::Random { seed: 42 },
            MapperSpec::GlobalRandom { seed: 7 },
            MapperSpec::WeightAware {
                local_threshold: 4,
                status_period: None,
            },
            MapperSpec::WeightAware {
                local_threshold: 4,
                status_period: Some(16),
            },
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: MapperSpec = text.parse().unwrap_or_else(|e| {
                panic!("{text:?} failed to parse: {e}");
            });
            assert_eq!(parsed, spec, "round-trip through {text:?}");
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "torus2d",
            "torus2d:",
            "torus2d:4",
            "torus2d:4x0",
            "torus2d:4x4x4",
            "mobius:4",
            "hypercube:x",
            "torus:",
        ] {
            assert!(bad.parse::<TopologySpec>().is_err(), "{bad:?} should fail");
        }
        for bad in [
            "",
            "least-busy:x",
            "random",
            "weight-aware",
            "rr:1",
            // Out of u32 range: must be rejected, not truncated.
            "weight-aware:4294967296",
        ] {
            assert!(bad.parse::<MapperSpec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn backend_spec_display_round_trips() {
        let specs = [
            BackendSpec::Sequential,
            BackendSpec::Parallel,
            BackendSpec::sharded(4),
            BackendSpec::Sharded {
                shards: 8,
                partition: Partition::RoundRobin,
                threads: None,
            },
            BackendSpec::Sharded {
                shards: 8,
                partition: Partition::Block,
                threads: Some(2),
            },
            BackendSpec::Sharded {
                shards: 16,
                partition: Partition::RoundRobin,
                threads: Some(3),
            },
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: BackendSpec = text.parse().unwrap_or_else(|e| {
                panic!("{text:?} failed to parse: {e}");
            });
            assert_eq!(parsed, spec, "round-trip through {text:?}");
        }
        // Explicit `block` parses to the same spec the default renders.
        assert_eq!(
            "sharded:4:block".parse::<BackendSpec>().unwrap(),
            BackendSpec::sharded(4)
        );
        assert_eq!(
            "sharded:4:2:rr".parse::<BackendSpec>().unwrap(),
            "sharded:4:rr:2".parse::<BackendSpec>().unwrap()
        );
    }

    #[test]
    fn malformed_backend_specs_are_rejected() {
        for bad in [
            "",
            "seq:1",
            "parallel:4",
            "sharded",
            "sharded:",
            "sharded:0",
            "sharded:x",
            "sharded:4:diag",
            "sharded:4:rr:0",
            "sharded:4:rr:2:9",
            "sharded:4:rr:block",
            "threaded:4",
        ] {
            assert!(bad.parse::<BackendSpec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn objective_and_prune_specs_display_round_trip() {
        for spec in [
            ObjectiveSpec::Enumerate,
            ObjectiveSpec::Maximise,
            ObjectiveSpec::Minimise,
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<ObjectiveSpec>().unwrap(), spec, "{text:?}");
        }
        for spec in [
            PruneSpec::Off,
            PruneSpec::incumbent(),
            PruneSpec::Incumbent { initial: Some(42) },
            PruneSpec::Incumbent {
                initial: Some(-1000),
            },
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<PruneSpec>().unwrap(), spec, "{text:?}");
        }
        assert_eq!(
            ObjectiveSpec::Maximise.objective(),
            Some(Objective::Maximise)
        );
        assert_eq!(
            ObjectiveSpec::Minimise.objective(),
            Some(Objective::Minimise)
        );
        assert_eq!(ObjectiveSpec::Enumerate.objective(), None);
        assert!(PruneSpec::incumbent().is_enabled());
        assert!(!PruneSpec::Off.is_enabled());
        assert_eq!(
            PruneSpec::Incumbent { initial: Some(7) }.initial_incumbent(),
            Some(7)
        );
    }

    #[test]
    fn malformed_objective_and_prune_specs_are_rejected() {
        for bad in ["", "maximize", "max:1", "enumerate:2", "best"] {
            assert!(bad.parse::<ObjectiveSpec>().is_err(), "{bad:?} should fail");
        }
        for bad in ["", "on", "incumbent:", "incumbent:x", "incumbent:1:2"] {
            assert!(bad.parse::<PruneSpec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn checkpoint_spec_display_round_trips_and_rejects_garbage() {
        for spec in [
            CheckpointSpec::Off,
            CheckpointSpec::every(1),
            CheckpointSpec::Interval { steps: 4096 },
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<CheckpointSpec>().unwrap(), spec, "{text:?}");
        }
        assert_eq!(
            CheckpointSpec::every(0),
            CheckpointSpec::Interval { steps: 1 }
        );
        assert_eq!(CheckpointSpec::Off.interval(), None);
        assert_eq!(CheckpointSpec::every(64).interval(), Some(64));
        assert!(CheckpointSpec::every(64).is_enabled());
        assert!(!CheckpointSpec::Off.is_enabled());
        for bad in [
            "",
            "on",
            "interval",
            "interval:",
            "interval:0",
            "interval:x",
        ] {
            assert!(
                bad.parse::<CheckpointSpec>().is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn backend_spec_resolves_sharded_config() {
        let cfg = BackendSpec::Sharded {
            shards: 6,
            partition: Partition::RoundRobin,
            threads: Some(2),
        }
        .sharded_config()
        .expect("sharded");
        assert_eq!(cfg.shards, 6);
        assert_eq!(cfg.partition, Partition::RoundRobin);
        assert_eq!(cfg.threads, Some(2));
        assert!(BackendSpec::Sequential.sharded_config().is_none());
        assert!(BackendSpec::Parallel.sharded_config().is_none());
    }

    #[test]
    fn strategy_spec_display_round_trips() {
        let specs = [
            StrategySpec::mesh(),
            StrategySpec::mesh()
                .with_heuristic(Heuristic::Dlis)
                .with_simplify(SimplifyMode::SplitOnly)
                .with_polarity(Polarity::Negative)
                .with_seed(7)
                .with_prune(PruneSpec::Incumbent { initial: Some(40) })
                .with_mapper(MapperSpec::Random { seed: 3 })
                .with_backend(BackendSpec::sharded(2)),
            StrategySpec::mesh().with_heuristic(Heuristic::Random(99)),
            StrategySpec::cdcl(RestartPolicy::Off),
            StrategySpec::cdcl(RestartPolicy::Luby(64))
                .with_polarity(Polarity::Negative)
                .with_seed(3),
            // Knobs the engine ignores still round-trip (a spec written
            // out and re-parsed must compare equal).
            StrategySpec::cdcl(RestartPolicy::Luby(4))
                .with_heuristic(Heuristic::Dlis)
                .with_backend(BackendSpec::Parallel)
                .with_prune(PruneSpec::incumbent()),
            // Limits render as repeatable limit= pairs, in order.
            StrategySpec::mesh()
                .with_limit(LimitSpec::discrepancy(2))
                .with_limit(LimitSpec::nodes(4096))
                .with_backend(BackendSpec::sharded(2)),
            StrategySpec::cdcl(RestartPolicy::Luby(8)).with_limit(LimitSpec::time(1 << 20)),
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: StrategySpec = text.parse().unwrap_or_else(|e| {
                panic!("{text:?} failed to parse: {e}");
            });
            assert_eq!(parsed, spec, "round-trip through {text:?}");
        }
    }

    #[test]
    fn strategy_describe_strips_only_the_backend() {
        let a = StrategySpec::mesh()
            .with_heuristic(Heuristic::Dlis)
            .with_backend(BackendSpec::sharded(4));
        let b = a.clone().with_backend(BackendSpec::Parallel);
        assert_eq!(a.describe(), b.describe());
        assert_ne!(a.to_string(), b.to_string());
        let c = a.clone().with_seed(5);
        assert_ne!(a.describe(), c.describe());
        assert_eq!(
            StrategySpec::mesh()
                .with_heuristic(Heuristic::Random(1))
                .describe(),
            "mesh,h=random:1"
        );
    }

    #[test]
    fn malformed_strategy_specs_are_rejected() {
        for bad in [
            "",
            "mesh,h=jw",
            "mesh,restart=luby:4", // restart lives inside the cdcl engine
            "cdcl,restart=luby:0",
            "mesh,seed=x",
            "mesh,pol",
            "turbo",
            "mesh,limit=nodes",
            "mesh,limit=nodes:0",
            "mesh,limit=fuel:9",
        ] {
            assert!(bad.parse::<StrategySpec>().is_err(), "{bad:?} should fail");
        }
        // Inert-but-valid knobs parse on any engine.
        assert!("cdcl,h=dlis,backend=parallel"
            .parse::<StrategySpec>()
            .is_ok());
        // Repeatable limit= pairs accumulate in order.
        let spec: StrategySpec = "mesh,limit=discrepancy:2,limit=nodes:64".parse().unwrap();
        assert_eq!(
            spec.limits,
            vec![LimitSpec::discrepancy(2), LimitSpec::nodes(64)]
        );
        assert_eq!(spec.describe(), "mesh,limit=discrepancy:2,limit=nodes:64");
    }

    #[test]
    fn parse_errors_share_the_expected_got_shape() {
        // The normalised error contract: `invalid spec: "<spec>":
        // expected ..., got ...` across every spec grammar.
        let no_discrepancy_on_cdcl =
            "invalid spec: limit(discrepancy,...): expected a mesh search underneath, got cdcl";
        for (err, want) in [
            (
                "mobius:4".parse::<TopologySpec>().unwrap_err().to_string(),
                "invalid spec: \"mobius:4\": expected a known topology, got \"mobius\"",
            ),
            (
                "rr:1".parse::<MapperSpec>().unwrap_err().to_string(),
                "invalid spec: \"rr:1\": expected a known mapper policy, got \"rr\"",
            ),
            (
                "best".parse::<ObjectiveSpec>().unwrap_err().to_string(),
                "invalid spec: \"best\": expected enumerate, max or min, got \"best\"",
            ),
            (
                "on".parse::<PruneSpec>().unwrap_err().to_string(),
                "invalid spec: \"on\": expected off, incumbent or incumbent:N, got \"on\"",
            ),
            (
                "always".parse::<CheckpointSpec>().unwrap_err().to_string(),
                "invalid spec: \"always\": expected off or interval:N, got \"always\"",
            ),
            (
                "threaded:4".parse::<BackendSpec>().unwrap_err().to_string(),
                "invalid spec: \"threaded:4\": expected seq, parallel or \
                 sharded:K[:partition][:threads], got \"threaded\"",
            ),
            (
                "turbo".parse::<StrategySpec>().unwrap_err().to_string(),
                "invalid spec: \"turbo\": expected engine mesh or cdcl, got \"turbo\"",
            ),
            (
                "mesh,warp=1"
                    .parse::<StrategySpec>()
                    .unwrap_err()
                    .to_string(),
                "invalid spec: \"mesh,warp=1\": expected a known mesh member key, got \"warp\"",
            ),
            (
                "mesh,h=jw".parse::<StrategySpec>().unwrap_err().to_string(),
                "invalid spec: \"mesh,h=jw\": expected a valid heuristic, got \"jw\"",
            ),
            (
                "fuel:9".parse::<LimitSpec>().unwrap_err().to_string(),
                "invalid spec: \"fuel:9\": expected limit kind discrepancy, nodes or time, \
                 got \"fuel\"",
            ),
            // One rule, one message, whichever grammar spells the member.
            (
                "cdcl,limit=discrepancy:2"
                    .parse::<StrategySpec>()
                    .unwrap_err()
                    .to_string(),
                no_discrepancy_on_cdcl,
            ),
            (
                "mesh>>cdcl,restart=luby:8,limit=nodes:9,limit=discrepancy:0"
                    .parse::<MemberPlan>()
                    .unwrap_err()
                    .to_string(),
                no_discrepancy_on_cdcl,
            ),
            (
                "epoch=32;len=8;lbd=8;mesh|cdcl,limit=discrepancy:2"
                    .parse::<PortfolioSpec>()
                    .unwrap_err()
                    .to_string(),
                no_discrepancy_on_cdcl,
            ),
            (
                "limit(discrepancy,2,cdcl)"
                    .parse::<PortfolioSpec>()
                    .unwrap_err()
                    .to_string(),
                no_discrepancy_on_cdcl,
            ),
        ] {
            assert_eq!(err, want);
        }
    }

    #[test]
    fn portfolio_spec_display_round_trips() {
        let specs = [
            PortfolioSpec::new(vec![StrategySpec::mesh()]),
            PortfolioSpec::new(vec![
                StrategySpec::mesh().with_heuristic(Heuristic::Dlis),
                StrategySpec::cdcl(RestartPolicy::Luby(16)).with_seed(2),
            ])
            .epoch(128),
            PortfolioSpec::diversified_sat(6),
            // Born from an expression: an `or(...)` chain and a backend.
            "portfolio(or(limit(nodes,64,backend(parallel)),mesh),restart(luby:64,cdcl))"
                .parse()
                .expect("expression lowers"),
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: PortfolioSpec = text.parse().unwrap_or_else(|e| {
                panic!("{text:?} failed to parse: {e}");
            });
            assert_eq!(parsed, spec, "round-trip through {text:?}");
        }
    }

    #[test]
    fn member_plans_round_trip_and_describe_strips_only_the_backend() {
        let text = "mesh,h=dlis,limit=nodes:64,backend=sharded:4>>cdcl,restart=luby:8";
        let plan: MemberPlan = text.parse().expect("parses");
        assert_eq!(plan.attempts.len(), 2);
        assert_eq!(plan.to_string(), text);
        assert_eq!(
            plan.describe(),
            "mesh,h=dlis,limit=nodes:64>>cdcl,restart=luby:8"
        );
        for bad in ["", "mesh>>", ">>mesh", "mesh>>warp"] {
            assert!(bad.parse::<MemberPlan>().is_err(), "{bad:?} should fail");
        }
        // `backend(...)` in an expression changes the plan's Display, not
        // its describe(): backends never split a cache.
        let lower = |expr: &str| expr.parse::<PortfolioSpec>().expect("lowers");
        let a = lower("and(branch(dlis),backend(sharded:4))");
        let b = lower("and(branch(dlis),backend(parallel))");
        assert_ne!(a.to_string(), b.to_string());
        assert_eq!(a.describe(), b.describe());
        assert_eq!(a.describe(), "epoch=32;len=8;lbd=8;mesh,h=dlis");
        assert_eq!(
            lower("backend(sharded:4)").describe(),
            lower("mesh").describe()
        );
    }

    #[test]
    fn malformed_portfolio_specs_are_rejected() {
        for bad in [
            "",
            "epoch=0;len=8;lbd=8;mesh",
            "epoch=32;len=8;lbd=8;",
            "epoch=32;len=8;mesh",
            "epoch=32;len=8;lbd=8;warp",
            // 2^32: must be rejected, not truncated to a zero budget.
            "epoch=32;len=4294967296;lbd=8;mesh",
            "epoch=32;len=8;lbd=4294967297;mesh",
            // An expression that parses but does not lower.
            "restart(luby:64,mesh)",
        ] {
            assert!(bad.parse::<PortfolioSpec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn diversified_sat_members_are_distinct_computations() {
        let spec = PortfolioSpec::diversified_sat(6);
        assert_eq!(spec.members.len(), 6);
        // Large member counts saturate the Luby base instead of
        // overflowing the shift.
        assert_eq!(PortfolioSpec::diversified_sat(80).members.len(), 80);
        let mut tokens: Vec<String> = spec.members.iter().map(|m| m.describe()).collect();
        tokens.sort();
        tokens.dedup();
        assert_eq!(tokens.len(), 6, "members must differ: {tokens:?}");
        assert!(spec
            .members
            .iter()
            .any(|m| matches!(m.attempts[0].engine, EngineSpec::Cdcl { .. })));
    }

    #[test]
    fn seeded_heuristic_folds_the_member_seed() {
        let m = StrategySpec::mesh()
            .with_heuristic(Heuristic::Random(4))
            .with_seed(1);
        assert_eq!(m.seeded_heuristic(), Heuristic::Random(5));
        let fixed = StrategySpec::mesh()
            .with_heuristic(Heuristic::Dlis)
            .with_seed(9);
        assert_eq!(fixed.seeded_heuristic(), Heuristic::Dlis);
    }

    #[test]
    fn seeded_mapper_folds_the_member_seed() {
        let base = MapperSpec::Random { seed: 4 };
        // Inherited seeded mappers are reseeded per member...
        let m = StrategySpec::mesh().with_seed(1);
        assert_eq!(m.seeded_mapper(&base), MapperSpec::Random { seed: 5 });
        // ...as are explicit overrides...
        let m = StrategySpec::mesh()
            .with_mapper(MapperSpec::GlobalRandom { seed: 8 })
            .with_seed(2);
        assert_eq!(
            m.seeded_mapper(&base),
            MapperSpec::GlobalRandom { seed: 10 }
        );
        // ...while deterministic policies pass through unchanged.
        let m = StrategySpec::mesh()
            .with_mapper(MapperSpec::RoundRobin)
            .with_seed(7);
        assert_eq!(m.seeded_mapper(&base), MapperSpec::RoundRobin);
    }

    #[test]
    fn status_period_propagates() {
        assert_eq!(MapperSpec::RoundRobin.status_period(), None);
        assert_eq!(
            MapperSpec::LeastBusy {
                status_period: Some(4)
            }
            .status_period(),
            Some(4)
        );
    }
}
