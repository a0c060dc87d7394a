//! Deterministic, dependency-free fuzzing of every durable decode path.
//!
//! Crash recovery means the process will feed itself bytes that survived
//! a kill — or a disk that mangled them. Every decoder on that path
//! (checkpoint header + body, store manifest framing, job records) must
//! treat its input as hostile: return [`hyperspace_sim::CodecError`],
//! never panic, and never size an allocation from an attacker-controlled
//! length. This module enforces that by mutation fuzzing: take *valid*
//! encodings (a real simulation checkpoint, real manifests, real job
//! records), mangle them — byte flips, truncations, inflated length
//! prefixes, cross-corpus splices, appended garbage — and decode the
//! wreckage under `catch_unwind`.
//!
//! Everything is seeded xorshift64*: a failing case reproduces from
//! `(seed, iteration)` alone, with no external fuzzing engine.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hyperspace_apps::{Item, TspInstance};
use hyperspace_core::TopologySpec;
use hyperspace_sat::gen;
use hyperspace_service::persist;
use hyperspace_service::JobKind;
use hyperspace_sim::{InitCtx, NodeId, NodeProgram, Outbox, SimCheckpoint, SimConfig, Simulation};
use hyperspace_store::Manifest;

/// A tiny deterministic generator (xorshift64*), the same construction
/// the engine's scatter tests use — no external RNG crate on this path.
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// A generator seeded by `seed` (zero is mapped to a fixed odd
    /// constant: xorshift has no zero state).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..n` (`n = 0` returns 0).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// The deterministic scatter program the checkpoint corpus is built
/// from: plain `u64` state and messages, so its checkpoints exercise
/// the full body codec.
#[derive(Clone)]
struct Scatter;

fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v
}

impl NodeProgram for Scatter {
    type Msg = u64;
    type State = u64;

    fn init(&self, node: NodeId, _ctx: &InitCtx) -> u64 {
        mix(node as u64)
    }

    fn on_message(&self, state: &mut u64, msg: u64, ctx: &mut Outbox<'_, u64>) {
        *state = state.wrapping_add(mix(msg));
        let ttl = msg & 0xFF;
        if ttl > 0 {
            let degree = ctx.degree();
            ctx.send_port((msg >> 8) as usize % degree, msg - 1);
        }
    }
}

const FUZZ_TOPOLOGY: TopologySpec = TopologySpec::Torus2D { w: 3, h: 3 };

/// Real checkpoint bytes: a scatter flood on a 3x3 torus, snapshotted
/// at several cut points (including step 0 and the terminal step).
fn checkpoint_corpus() -> Vec<Vec<u8>> {
    let mut corpus = Vec::new();
    for cut in [0u64, 2, 7, u64::MAX] {
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(FUZZ_TOPOLOGY.build(), Scatter, cfg);
        sim.inject(4, (0xABCD << 8) | 12);
        sim.set_max_steps(cut);
        sim.run_to_quiescence().expect("corpus run");
        corpus.push(sim.snapshot().to_bytes());
    }
    corpus
}

/// Decodes checkpoint bytes the way crash recovery would: parse the
/// durable framing, then restore a full simulation from the body.
fn decode_checkpoint(bytes: &[u8]) -> bool {
    let Ok(ckpt) = SimCheckpoint::from_bytes(bytes) else {
        return false;
    };
    Simulation::restore(FUZZ_TOPOLOGY.build(), Scatter, SimConfig::default(), &ckpt).is_ok()
}

/// Real store manifests, both current (v1) and frozen legacy (v0).
fn manifest_corpus() -> Vec<Vec<u8>> {
    let mut corpus = vec![
        Manifest::new(0, 0, Vec::new()).to_bytes(),
        Manifest::new(7, 3, b"short payload".to_vec()).to_bytes(),
        Manifest::new(u64::MAX, u64::MAX, vec![0xA5; 512]).to_bytes(),
        Manifest::new(42, 0, b"legacy".to_vec()).to_bytes_v0(),
    ];
    // A manifest whose payload is itself a real job record — the bytes
    // recovery actually reads.
    for record in record_corpus() {
        corpus.push(Manifest::new(9, 1, record).to_bytes());
    }
    corpus
}

fn decode_manifest(bytes: &[u8]) -> bool {
    Manifest::decode_any(bytes).is_ok()
}

/// Real durable job records over every persistable workload kind.
fn record_corpus() -> Vec<Vec<u8>> {
    let kinds = vec![
        (JobKind::sat(gen::uf20_91(5)), 0),
        (
            JobKind::knapsack(
                vec![
                    Item {
                        weight: 2,
                        value: 3,
                    },
                    Item {
                        weight: 4,
                        value: 9,
                    },
                ],
                6,
            ),
            -20,
        ),
        (JobKind::tsp(TspInstance::random(3, 4, 50)), 7),
        (JobKind::nqueens(6), 1),
        (JobKind::fib(19), i32::MAX),
        (JobKind::sum(100), i32::MIN),
    ];
    kinds
        .into_iter()
        .map(|(kind, priority)| {
            let spec = persist::encode_spec(priority, &kind, &Default::default())
                .expect("persistable corpus kind");
            let checkpoint = (priority % 2 == 0).then(|| vec![0xC5; 24]);
            persist::encode_record(&spec, 4096, checkpoint.as_deref())
        })
        .collect()
}

fn decode_record(bytes: &[u8]) -> bool {
    persist::decode_record(bytes).is_ok()
}

/// Real strategy expressions spanning the whole combinator grammar:
/// primitives, conjunction, retry chains, restart schedules, every
/// limit kind, portfolios and deep nesting near the depth bound.
fn strategy_corpus() -> Vec<Vec<u8>> {
    [
        "mesh",
        "cdcl",
        "and(branch(dlis),value(neg),simplify(single-pass),mesh)",
        "or(limit(discrepancy,1,mesh),limit(discrepancy,4,mesh),mesh)",
        "or(limit(nodes,64,mesh),limit(nodes,4096,mesh),mesh)",
        "restart(luby:64,cdcl)",
        "restart(fixed:256,and(probe(9),cdcl))",
        "limit(time,10000,and(branch(random:7),mesh))",
        "portfolio(limit(discrepancy,2,mesh),restart(luby:64,cdcl),mesh)",
        "and(prune(incumbent:40),backend(sharded:4),limit(nodes,512,or(mesh,cdcl)))",
        "limit(nodes,1,limit(nodes,2,limit(nodes,3,limit(nodes,4,mesh))))",
        "epoch=32;len=8;lbd=8;mesh,h=dlis,pol=neg,seed=1|cdcl,restart=luby:8,seed=4",
        "epoch=16;len=4;lbd=4;mesh,limit=nodes:64,backend=sharded:2>>mesh|mesh,limit=discrepancy:2",
    ]
    .into_iter()
    .map(|s| s.as_bytes().to_vec())
    .collect()
}

/// Decodes portfolio text the way the service would: the one
/// `PortfolioSpec` grammar, which takes the flat `epoch=...` form or a
/// strategy expression (bounded depth and token count) and lowers the
/// latter to member plans — every half must reject hostile text without
/// panicking.
fn decode_strategy(bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    text.parse::<hyperspace_core::PortfolioSpec>().is_ok()
}

/// One decode surface under fuzz: a corpus of valid encodings and the
/// decoder that must survive their mutations.
pub struct FuzzTarget {
    /// Display name (also the per-target report key).
    pub name: &'static str,
    /// Valid encodings to mutate.
    pub corpus: Vec<Vec<u8>>,
    /// Returns whether the bytes decoded cleanly. Must never panic.
    pub decode: fn(&[u8]) -> bool,
}

/// Every durable decode surface in the workspace.
pub fn targets() -> Vec<FuzzTarget> {
    vec![
        FuzzTarget {
            name: "checkpoint",
            corpus: checkpoint_corpus(),
            decode: decode_checkpoint,
        },
        FuzzTarget {
            name: "manifest",
            corpus: manifest_corpus(),
            decode: decode_manifest,
        },
        FuzzTarget {
            name: "job-record",
            corpus: record_corpus(),
            decode: decode_record,
        },
        FuzzTarget {
            name: "strategy-expr",
            corpus: strategy_corpus(),
            decode: decode_strategy,
        },
    ]
}

/// Applies one random mutation in place.
fn mutate(bytes: &mut Vec<u8>, donor: &[u8], rng: &mut XorShift64) {
    match rng.below(5) {
        // Flip 1-8 bytes.
        0 => {
            if !bytes.is_empty() {
                for _ in 0..1 + rng.below(8) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= (rng.next_u64() & 0xFF) as u8;
                }
            }
        }
        // Truncate at a random point.
        1 => bytes.truncate(rng.below(bytes.len() + 1)),
        // Inflate a (potential) length prefix: stamp a huge LE u64 at a
        // random offset — the classic `with_capacity(attacker_len)` bait.
        2 => {
            if bytes.len() >= 8 {
                let at = rng.below(bytes.len() - 7);
                let huge = match rng.below(3) {
                    0 => u64::MAX,
                    1 => u64::MAX / 2,
                    _ => 1 << (32 + rng.below(31)),
                };
                bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            }
        }
        // Splice a window of another corpus item over this one.
        3 => {
            if !bytes.is_empty() && !donor.is_empty() {
                let from = rng.below(donor.len());
                let len = 1 + rng.below(donor.len() - from);
                let at = rng.below(bytes.len());
                let len = len.min(bytes.len() - at);
                bytes[at..at + len].copy_from_slice(&donor[from..from + len]);
            }
        }
        // Append random garbage.
        _ => {
            for _ in 0..1 + rng.below(16) {
                bytes.push((rng.next_u64() & 0xFF) as u8);
            }
        }
    }
}

/// What a fuzz run observed.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Mutated inputs decoded, across all targets.
    pub iterations: u64,
    /// Inputs the decoder accepted (mutations that happened to stay
    /// valid, e.g. flips inside a payload that carries no checksum).
    pub accepted: u64,
    /// Inputs rejected with a clean `CodecError`.
    pub rejected: u64,
    /// Per-target `(name, accepted, rejected)` tallies, in target
    /// order — a finer fingerprint than the aggregate counts, which
    /// can coincide across seeds by chance.
    pub per_target: Vec<(&'static str, u64, u64)>,
}

/// Fuzzes every target for `iterations` mutated inputs (total, spread
/// round-robin). Returns `Err` describing the first panicking input —
/// reproducible from the seed and iteration in the message.
pub fn run(iterations: u64, seed: u64) -> Result<FuzzReport, String> {
    let targets = targets();
    // Unmutated corpus entries must decode cleanly, or the fuzz run
    // would "pass" while exercising a dead corpus.
    for t in &targets {
        for (i, input) in t.corpus.iter().enumerate() {
            if !(t.decode)(input) {
                return Err(format!("{} corpus entry {i} failed to decode", t.name));
            }
        }
    }
    let mut rng = XorShift64::new(seed);
    let mut report = FuzzReport {
        per_target: targets.iter().map(|t| (t.name, 0, 0)).collect(),
        ..FuzzReport::default()
    };
    for i in 0..iterations {
        let slot = (i % targets.len() as u64) as usize;
        let t = &targets[slot];
        let mut input = t.corpus[rng.below(t.corpus.len())].clone();
        let donor = &t.corpus[rng.below(t.corpus.len())];
        for _ in 0..1 + rng.below(3) {
            mutate(&mut input, donor, &mut rng);
        }
        let decode = t.decode;
        match catch_unwind(AssertUnwindSafe(|| decode(&input))) {
            Ok(true) => {
                report.accepted += 1;
                report.per_target[slot].1 += 1;
            }
            Ok(false) => {
                report.rejected += 1;
                report.per_target[slot].2 += 1;
            }
            Err(_) => {
                return Err(format!(
                    "{} decoder panicked (seed {seed}, iteration {i}, {} bytes)",
                    t.name,
                    input.len()
                ));
            }
        }
        report.iterations += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(99);
        let mut b = XorShift64::new(99);
        for _ in 0..100 {
            let v = a.next_u64();
            assert_eq!(v, b.next_u64());
            assert_ne!(v, 0);
        }
        // Zero seeds are remapped, not degenerate.
        assert_ne!(XorShift64::new(0).next_u64(), 0);
    }

    #[test]
    fn corpus_covers_every_target_and_decodes_cleanly() {
        for t in targets() {
            assert!(!t.corpus.is_empty(), "{}", t.name);
            for input in &t.corpus {
                assert!((t.decode)(input), "{} corpus must decode", t.name);
            }
        }
    }

    #[test]
    fn smoke_fuzz_finds_no_panics() {
        let report = run(300, 0xF00D).expect("no panics");
        assert_eq!(report.iterations, 300);
        assert!(report.rejected > 0, "mutations must actually break inputs");
    }
}
