//! Simulation instrumentation: the quantities §V-C extracts from logs.
//!
//! *Computation time* is [`SimMetrics::computation_time`];
//! *interconnect activity* is the per-step [`SimMetrics::queued_series`]
//! (Figure 5, top); *node activity* is
//! [`SimMetrics::delivered_per_node`] (Figure 5, bottom), summarised by
//! [`SimMetrics::activity_spread`]. The charts that draw them are
//! `hyperspace_obs::ascii`.

use hyperspace_obs::Histogram;
use hyperspace_topology::NodeId;

/// Aggregated measurements of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimMetrics {
    /// Total messages queued across the mesh after each step
    /// (*interconnect activity*, Figure 5 top); entry `i` is step `i`.
    pub queued_series: Vec<u64>,
    /// Messages delivered on each step.
    pub delivered_series: Vec<u64>,
    /// Total messages delivered to each node (*node activity*, Figure 5
    /// bottom).
    pub delivered_per_node: Vec<u64>,
    /// Total messages sent by each node.
    pub sent_per_node: Vec<u64>,
    /// Hop counts of delivered messages (always 1 under adjacent-only
    /// delivery; informative under routed delivery).
    pub hop_histogram: Histogram,
    /// Total messages sent.
    pub total_sent: u64,
    /// Total messages delivered.
    pub total_delivered: u64,
    /// Step of the first delivery (the trigger).
    pub first_delivery_step: Option<u64>,
    /// Step of the most recent delivery.
    pub last_delivery_step: Option<u64>,
}

impl SimMetrics {
    pub(crate) fn new(num_nodes: usize, record_node_activity: bool) -> Self {
        SimMetrics {
            delivered_per_node: if record_node_activity {
                vec![0; num_nodes]
            } else {
                Vec::new()
            },
            sent_per_node: if record_node_activity {
                vec![0; num_nodes]
            } else {
                Vec::new()
            },
            ..Default::default()
        }
    }

    /// *Computation time* per §V-C: the number of steps between the first
    /// (trigger) and last messages, inclusive. Zero if nothing was
    /// delivered.
    pub fn computation_time(&self) -> u64 {
        match (self.first_delivery_step, self.last_delivery_step) {
            (Some(f), Some(l)) => l - f + 1,
            _ => 0,
        }
    }

    /// Coefficient of variation (std/mean) of [`Self::delivered_per_node`]:
    /// a scalar measure of how *unevenly* activity spread across the mesh.
    /// Lower is more uniform; the paper's least-busy-neighbour mapping
    /// yields visibly lower spread than round-robin (Figure 5 bottom).
    /// Zero when nothing was recorded or delivered.
    pub fn activity_spread(&self) -> f64 {
        let counts = &self.delivered_per_node;
        let n = counts.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = counts.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = counts
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    /// Peak number of simultaneously queued messages.
    pub fn peak_queued(&self) -> u64 {
        self.queued_series.iter().copied().max().unwrap_or(0)
    }

    /// Merges one shard's measurements into this aggregate: per-node
    /// vectors add elementwise (shards own disjoint nodes, so this is a
    /// scatter), histograms and totals combine, and the first/last
    /// delivery steps take the min/max over shards. The per-step series
    /// are *not* merged here — they are global quantities a sharded
    /// backend's coordinator records at each step barrier.
    pub fn merge_shard(&mut self, shard: &SimMetrics) {
        if self.delivered_per_node.len() < shard.delivered_per_node.len() {
            self.delivered_per_node
                .resize(shard.delivered_per_node.len(), 0);
        }
        for (total, &part) in self
            .delivered_per_node
            .iter_mut()
            .zip(shard.delivered_per_node.iter())
        {
            *total += part;
        }
        if self.sent_per_node.len() < shard.sent_per_node.len() {
            self.sent_per_node.resize(shard.sent_per_node.len(), 0);
        }
        for (total, &part) in self
            .sent_per_node
            .iter_mut()
            .zip(shard.sent_per_node.iter())
        {
            *total += part;
        }
        self.hop_histogram.merge(&shard.hop_histogram);
        self.total_sent += shard.total_sent;
        self.total_delivered += shard.total_delivered;
        self.first_delivery_step = match (self.first_delivery_step, shard.first_delivery_step) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_delivery_step = match (self.last_delivery_step, shard.last_delivery_step) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// One entry of the optional full event trace (determinism testing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Step at which the event occurred.
    pub step: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Message source.
    pub src: NodeId,
    /// Message destination.
    pub dst: NodeId,
    /// Hops travelled at event time.
    pub hops: u32,
}

/// Trace event kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A handler staged a message.
    Send,
    /// A message was popped from an inbox and handled.
    Deliver,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computation_time_inclusive() {
        let mut m = SimMetrics::new(4, true);
        assert_eq!(m.computation_time(), 0);
        m.first_delivery_step = Some(3);
        m.last_delivery_step = Some(10);
        assert_eq!(m.computation_time(), 8);
    }

    #[test]
    fn merge_shard_combines_disjoint_node_slices() {
        let mut a = SimMetrics::new(4, true);
        a.delivered_per_node = vec![1, 2, 0, 0];
        a.sent_per_node = vec![3, 0, 0, 0];
        a.total_delivered = 3;
        a.total_sent = 3;
        a.first_delivery_step = Some(2);
        a.last_delivery_step = Some(5);
        a.hop_histogram.record(1);
        let mut b = SimMetrics::new(4, true);
        b.delivered_per_node = vec![0, 0, 4, 5];
        b.sent_per_node = vec![0, 0, 0, 6];
        b.total_delivered = 9;
        b.total_sent = 6;
        b.first_delivery_step = Some(1);
        b.last_delivery_step = Some(4);
        b.hop_histogram.record(1);
        a.merge_shard(&b);
        assert_eq!(a.delivered_per_node, vec![1, 2, 4, 5]);
        assert_eq!(a.sent_per_node, vec![3, 0, 0, 6]);
        assert_eq!(a.total_delivered, 12);
        assert_eq!(a.total_sent, 9);
        assert_eq!(a.first_delivery_step, Some(1));
        assert_eq!(a.last_delivery_step, Some(5));
        assert_eq!(a.computation_time(), 5);
        assert_eq!(a.hop_histogram.count(), 2);
        // Merging into a fresh aggregate adopts the shard's values.
        let mut fresh = SimMetrics::default();
        fresh.merge_shard(&b);
        assert_eq!(fresh.first_delivery_step, Some(1));
        assert_eq!(fresh.delivered_per_node, vec![0, 0, 4, 5]);
    }

    #[test]
    fn uniform_activity_has_zero_spread() {
        let mut m = SimMetrics::new(4, true);
        assert_eq!(m.activity_spread(), 0.0, "nothing delivered");
        m.delivered_per_node = vec![5, 5, 5, 5];
        assert_eq!(m.activity_spread(), 0.0);
        assert_eq!(SimMetrics::new(4, false).activity_spread(), 0.0);
    }

    #[test]
    fn skewed_activity_has_spread_above_one() {
        let mut m = SimMetrics::new(4, true);
        m.delivered_per_node = vec![20, 0, 0, 0];
        assert!(m.activity_spread() > 1.0);
    }
}
