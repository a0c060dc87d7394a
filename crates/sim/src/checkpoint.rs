//! Deterministic engine checkpoints.
//!
//! A [`SimCheckpoint`] captures a simulation's complete logical state at
//! a step barrier — node states, inbox contents, routed in-flight
//! messages, instrumentation, and the step/halt counters — serialised
//! through the self-contained byte [`crate::codec`]. The format is
//! **canonical across shardings**: the machine emits byte-identical
//! checkpoints for the same run at the same step whatever its shard
//! count, partition and thread count, and a checkpoint taken under one
//! sharding restores under any other (snapshot `seq`, resume
//! `sharded:7`, and vice versa). That portability falls out of the
//! ordering discipline the step kernel already enforces: everything
//! queue-like is written in the machine's global delivery order, with
//! routed transit entries tagged by their `(enqueue step, sender,
//! emission)` keys.
//!
//! Checkpoints capture *state*, not code: the restoring caller supplies
//! the same topology, program and [`crate::SimConfig`] the checkpoint
//! was taken under (a checkpoint of a different machine size is
//! rejected; differing programs or configs are undetectable and yield
//! well-defined but meaningless resumes, exactly like pointing any
//! restore mechanism at the wrong binary).

use std::collections::VecDeque;

use crate::codec::{Codec, CodecError, Reader, Writer};
use crate::envelope::Envelope;
use crate::record::{SimMetrics, TraceEvent, TraceKind};
use hyperspace_obs::Histogram;
use hyperspace_topology::NodeId;

/// The exchange-ordering key of a routed in-flight message:
/// `(enqueue step, sender, emission index)` — the machine's global
/// delivery order, and the key shards exchange mail under.
pub(crate) type TransitKey = (u64, NodeId, u32);

const MAGIC: &[u8; 4] = b"HSCK";
const VERSION: u32 = 1;

/// A serialised simulation state, restorable on any backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimCheckpoint {
    step: u64,
    halted: bool,
    num_nodes: u64,
    body: Vec<u8>,
}

impl SimCheckpoint {
    pub(crate) fn new(step: u64, halted: bool, num_nodes: usize, body: Vec<u8>) -> SimCheckpoint {
        SimCheckpoint {
            step,
            halted,
            num_nodes: num_nodes as u64,
            body,
        }
    }

    /// The simulation step the checkpoint was taken at.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Whether a handler had already requested a halt.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Machine size the checkpoint describes (restores onto a topology
    /// of a different size are rejected).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Size of the serialised state payload, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.body.len()
    }

    /// Serialises the checkpoint into self-describing durable bytes
    /// (magic + version + header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(u32::from_le_bytes(*MAGIC));
        w.put_u32(VERSION);
        w.put_u64(self.step);
        w.put_u8(self.halted as u8);
        w.put_u64(self.num_nodes);
        w.put_bytes(&self.body);
        w.into_bytes()
    }

    /// Parses checkpoint bytes produced by [`SimCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<SimCheckpoint, CodecError> {
        let mut r = Reader::new(bytes);
        let magic = r.get_u32()?;
        if magic != u32::from_le_bytes(*MAGIC) {
            return Err(CodecError::Invalid(format!(
                "bad checkpoint magic {magic:#010x}"
            )));
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(CodecError::Invalid(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let step = r.get_u64()?;
        let halted = bool::decode(&mut r)?;
        let num_nodes = r.get_u64()?;
        let body = r.get_bytes()?.to_vec();
        if r.remaining() != 0 {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after the checkpoint payload",
                r.remaining()
            )));
        }
        Ok(SimCheckpoint {
            step,
            halted,
            num_nodes,
            body,
        })
    }

    pub(crate) fn body_reader(&self) -> Reader<'_> {
        Reader::new(&self.body)
    }
}

/// Encodes a simulation's state into the canonical body layout. The
/// iterators must yield nodes in ascending global id order, and the
/// transit entries in ascending key order.
pub(crate) fn encode_body<'a, S, M, IS, II, IT>(
    states: IS,
    inboxes: II,
    transit_len: usize,
    transit: IT,
    metrics: &SimMetrics,
    trace: &[TraceEvent],
) -> Vec<u8>
where
    S: Codec + 'a,
    M: Codec + 'a,
    IS: ExactSizeIterator<Item = &'a S>,
    II: ExactSizeIterator<Item = &'a VecDeque<Envelope<M>>>,
    IT: Iterator<Item = (TransitKey, NodeId, &'a Envelope<M>)>,
{
    let mut w = Writer::new();
    w.put_u64(states.len() as u64);
    for state in states {
        state.encode(&mut w);
    }
    w.put_u64(inboxes.len() as u64);
    for inbox in inboxes {
        inbox.encode(&mut w);
    }
    w.put_u64(transit_len as u64);
    for (key, at, env) in transit {
        key.encode(&mut w);
        w.put_u32(at);
        env.encode(&mut w);
    }
    metrics.encode(&mut w);
    trace.to_vec().encode(&mut w);
    w.into_bytes()
}

/// A checkpoint body decoded back into owned queue state, ready to be
/// scattered into whichever backend is restoring.
pub(crate) struct CheckpointState<S, M> {
    pub states: Vec<S>,
    pub inboxes: Vec<VecDeque<Envelope<M>>>,
    /// Ascending key order (the global delivery order).
    pub transit: Vec<(TransitKey, NodeId, Envelope<M>)>,
    pub metrics: SimMetrics,
    pub trace: Vec<TraceEvent>,
}

impl<S: Codec, M: Codec> CheckpointState<S, M> {
    pub(crate) fn decode(ckpt: &SimCheckpoint) -> Result<CheckpointState<S, M>, CodecError> {
        let n = ckpt.num_nodes();
        let mut r = ckpt.body_reader();
        let states = Vec::<S>::decode(&mut r)?;
        if states.len() != n {
            return Err(CodecError::Invalid(format!(
                "checkpoint holds {} states for a {n}-node machine",
                states.len()
            )));
        }
        let inboxes = Vec::<VecDeque<Envelope<M>>>::decode(&mut r)?;
        if inboxes.len() != n {
            return Err(CodecError::Invalid(format!(
                "checkpoint holds {} inboxes for a {n}-node machine",
                inboxes.len()
            )));
        }
        let in_range = |node: NodeId| (node as usize) < n;
        for (dst, inbox) in inboxes.iter().enumerate() {
            if !inbox
                .iter()
                .all(|env| in_range(env.src) && env.dst as usize == dst)
            {
                return Err(CodecError::Invalid(format!(
                    "inbox {dst} holds an envelope with an out-of-range or foreign node id"
                )));
            }
        }
        let transit_len = r.get_u64()?;
        let mut transit = Vec::new();
        for _ in 0..transit_len {
            let key = TransitKey::decode(&mut r)?;
            let at = r.get_u32()?;
            let env = Envelope::<M>::decode(&mut r)?;
            if !(in_range(at) && in_range(env.src) && in_range(env.dst)) {
                return Err(CodecError::Invalid(format!(
                    "transit entry at node {at} holds an out-of-range node id"
                )));
            }
            transit.push((key, at, env));
        }
        if !transit.windows(2).all(|w| w[0].0 <= w[1].0) {
            return Err(CodecError::Invalid(
                "transit entries out of key order".into(),
            ));
        }
        let metrics = SimMetrics::decode(&mut r)?;
        // The engines index these unchecked per delivery; a forged
        // short vector would panic long after the decode "succeeded".
        for (name, v) in [
            ("delivered_per_node", &metrics.delivered_per_node),
            ("sent_per_node", &metrics.sent_per_node),
        ] {
            if !(v.is_empty() || v.len() == n) {
                return Err(CodecError::Invalid(format!(
                    "checkpoint {name} has {} entries for a {n}-node machine",
                    v.len()
                )));
            }
        }
        let trace = Vec::<TraceEvent>::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes in the checkpoint body",
                r.remaining()
            )));
        }
        Ok(CheckpointState {
            states,
            inboxes,
            transit,
            metrics,
            trace,
        })
    }

    /// Messages the restored machine holds (inboxes + transit).
    pub(crate) fn queued(&self) -> u64 {
        self.inboxes.iter().map(|i| i.len() as u64).sum::<u64>() + self.transit.len() as u64
    }
}

impl<M: Codec> Codec for Envelope<M> {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.src);
        w.put_u32(self.dst);
        w.put_u64(self.sent_step);
        w.put_u32(self.hops);
        self.payload.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Envelope {
            src: r.get_u32()?,
            dst: r.get_u32()?,
            sent_step: r.get_u64()?,
            hops: r.get_u32()?,
            payload: M::decode(r)?,
        })
    }
}

impl Codec for TraceEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.step);
        w.put_u8(match self.kind {
            TraceKind::Send => 0,
            TraceKind::Deliver => 1,
        });
        w.put_u32(self.src);
        w.put_u32(self.dst);
        w.put_u32(self.hops);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let step = r.get_u64()?;
        let kind = match r.get_u8()? {
            0 => TraceKind::Send,
            1 => TraceKind::Deliver,
            other => return Err(CodecError::Invalid(format!("trace kind {other}"))),
        };
        Ok(TraceEvent {
            step,
            kind,
            src: r.get_u32()?,
            dst: r.get_u32()?,
            hops: r.get_u32()?,
        })
    }
}

impl Codec for Histogram {
    fn encode(&self, w: &mut Writer) {
        let (buckets, count, sum, min, max) = self.parts();
        buckets.to_vec().encode(w);
        w.put_u64(count);
        w.put_u64(sum);
        w.put_u64(min);
        w.put_u64(max);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let buckets = Vec::<u64>::decode(r)?;
        // log2-spaced buckets over u64 samples: index 63 is the highest
        // any recorder can produce, so more is structural corruption.
        if buckets.len() > 64 {
            return Err(CodecError::Invalid(format!(
                "histogram with {} buckets (log2-spaced u64 buckets cap at 64)",
                buckets.len()
            )));
        }
        let count = r.get_u64()?;
        let sum = r.get_u64()?;
        let min = r.get_u64()?;
        let max = r.get_u64()?;
        Ok(Histogram::from_parts(buckets, count, sum, min, max))
    }
}

impl Codec for SimMetrics {
    fn encode(&self, w: &mut Writer) {
        self.queued_series.encode(w);
        self.delivered_series.encode(w);
        self.delivered_per_node.encode(w);
        self.sent_per_node.encode(w);
        self.hop_histogram.encode(w);
        w.put_u64(self.total_sent);
        w.put_u64(self.total_delivered);
        self.first_delivery_step.encode(w);
        self.last_delivery_step.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SimMetrics {
            queued_series: Vec::<u64>::decode(r)?,
            delivered_series: Vec::<u64>::decode(r)?,
            delivered_per_node: Vec::<u64>::decode(r)?,
            sent_per_node: Vec::<u64>::decode(r)?,
            hop_histogram: Histogram::decode(r)?,
            total_sent: r.get_u64()?,
            total_delivered: r.get_u64()?,
            first_delivery_step: Option::<u64>::decode(r)?,
            last_delivery_step: Option::<u64>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Writer::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::decode(&mut r).expect("decodes"), value);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn envelope_and_trace_round_trip() {
        round_trip(Envelope {
            src: 3,
            dst: 9,
            sent_step: 17,
            hops: 2,
            payload: 42u64,
        });
        round_trip(TraceEvent {
            step: 5,
            kind: TraceKind::Deliver,
            src: 1,
            dst: 2,
            hops: 3,
        });
        round_trip(TraceEvent {
            step: 5,
            kind: TraceKind::Send,
            src: 1,
            dst: 2,
            hops: 0,
        });
    }

    #[test]
    fn metrics_round_trip() {
        let mut m = SimMetrics::default();
        m.queued_series.push(4);
        m.queued_series.push(2);
        m.delivered_series.push(1);
        m.delivered_per_node = vec![1, 0, 3];
        m.sent_per_node = vec![2, 2, 0];
        m.hop_histogram.record(0);
        m.hop_histogram.record(5);
        m.total_sent = 4;
        m.total_delivered = 4;
        m.first_delivery_step = Some(1);
        m.last_delivery_step = Some(2);
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = SimMetrics::decode(&mut Reader::new(&bytes)).expect("decodes");
        assert_eq!(decoded.queued_series, m.queued_series);
        assert_eq!(decoded.delivered_series, m.delivered_series);
        assert_eq!(decoded.delivered_per_node, m.delivered_per_node);
        assert_eq!(decoded.sent_per_node, m.sent_per_node);
        assert_eq!(decoded.hop_histogram, m.hop_histogram);
        assert_eq!(decoded.total_sent, m.total_sent);
        assert_eq!(decoded.first_delivery_step, m.first_delivery_step);
        assert_eq!(decoded.last_delivery_step, m.last_delivery_step);
    }

    #[test]
    fn checkpoint_bytes_round_trip_and_reject_corruption() {
        let ckpt = SimCheckpoint::new(12, false, 9, vec![1, 2, 3, 4]);
        let bytes = ckpt.to_bytes();
        let back = SimCheckpoint::from_bytes(&bytes).expect("round-trips");
        assert_eq!(back, ckpt);
        assert_eq!(back.step(), 12);
        assert_eq!(back.num_nodes(), 9);
        assert_eq!(back.size_bytes(), 4);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(SimCheckpoint::from_bytes(&bad).is_err());
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(SimCheckpoint::from_bytes(&bad).is_err());
        // Every truncation fails cleanly.
        for cut in 0..bytes.len() {
            assert!(SimCheckpoint::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(SimCheckpoint::from_bytes(&long).is_err());
    }

    #[test]
    fn forged_huge_length_prefix_errors_without_allocating() {
        // Layout: magic(4) + version(4) + step(8) + halted(1) +
        // num_nodes(8) = 25, then the body's u64 length prefix.
        let bytes = SimCheckpoint::new(3, false, 2, vec![7; 16]).to_bytes();
        for forged_len in [u64::MAX, u64::MAX / 2, 1 << 40, 17] {
            let mut forged = bytes.clone();
            forged[25..33].copy_from_slice(&forged_len.to_le_bytes());
            // An inflated length must fail as truncation *before* any
            // attacker-sized allocation (the decoder bounds every
            // length by the bytes actually present).
            match SimCheckpoint::from_bytes(&forged) {
                Err(CodecError::Truncated { .. }) => {}
                other => panic!("forged length {forged_len}: {other:?}"),
            }
        }
    }

    #[test]
    fn histograms_with_impossible_bucket_counts_are_rejected() {
        let mut w = Writer::new();
        Histogram::new().encode(&mut w);
        let ok = w.into_bytes();
        assert!(Histogram::decode(&mut Reader::new(&ok)).is_ok());
        // 65 buckets cannot come from any real recorder.
        let mut w = Writer::new();
        vec![0u64; 65].encode(&mut w);
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(u64::MAX);
        w.put_u64(0);
        let bad = w.into_bytes();
        assert!(Histogram::decode(&mut Reader::new(&bad)).is_err());
    }

    #[test]
    fn per_node_metrics_must_match_the_machine_size() {
        // A structurally valid body for a 2-node machine, except the
        // per-node delivery counters claim only one node — restoring it
        // would panic on the first delivery to node 1.
        let mut w = Writer::new();
        vec![0u64, 0].encode(&mut w); // states (2 x u64)
        let inboxes: Vec<VecDeque<Envelope<u64>>> = vec![VecDeque::new(), VecDeque::new()];
        inboxes.encode(&mut w);
        w.put_u64(0); // no transit
        let metrics = SimMetrics {
            delivered_per_node: vec![9], // wrong: 1 entry, 2 nodes
            ..SimMetrics::default()
        };
        metrics.encode(&mut w);
        Vec::<TraceEvent>::new().encode(&mut w);
        let ckpt = SimCheckpoint::new(0, false, 2, w.into_bytes());
        let err = match CheckpointState::<u64, u64>::decode(&ckpt) {
            Err(err) => err,
            Ok(_) => panic!("undersized per-node metrics must be rejected"),
        };
        assert!(err.to_string().contains("delivered_per_node"), "{err}");
    }
}
