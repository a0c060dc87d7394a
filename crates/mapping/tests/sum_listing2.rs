//! Listing 2, verbatim: the message-passing implementation of
//! `sum(n) = n + sum(n-1)` written directly against the layer-3 ticket
//! interface, plus invariants of the mapping layer itself.

use std::collections::HashMap;

use hyperspace_mapping::{
    CallCtx, LeastBusyMapper, MapConfig, MappingHost, RandomMapper, RoundRobinMapper, Ticket,
    TicketHandler,
};
use hyperspace_sim::{NodeId, RunOutcome, SimConfig, Simulation};
use hyperspace_topology::{Hypercube, Torus};

/// The `Continue(ticket, n)` bookkeeping of Listing 2 lines 6–7.
#[derive(Default)]
struct SumState {
    records: HashMap<Ticket, (Ticket, u64)>,
}

struct SumHandler;

impl TicketHandler for SumHandler {
    type Req = u64;
    type Resp = u64;
    type State = SumState;

    fn init(&self, _node: NodeId) -> SumState {
        SumState::default()
    }

    fn on_request(
        &self,
        state: &mut SumState,
        n: u64,
        reply_to: Ticket,
        ctx: &mut dyn CallCtx<u64, u64>,
    ) {
        if n < 1 {
            // Base case: Result(0), quoting the incoming ticket (line 4).
            ctx.reply(reply_to, 0);
        } else {
            // Subcall for sum(n-1); remember the parent ticket and n
            // (lines 6–7).
            let t = ctx.call(n - 1);
            state.records.insert(t, (reply_to, n));
        }
    }

    fn on_reply(
        &self,
        state: &mut SumState,
        ticket: Ticket,
        total: u64,
        ctx: &mut dyn CallCtx<u64, u64>,
    ) {
        // Result(total + n) to the stored parent ticket (lines 8–10).
        let (parent, n) = state
            .records
            .remove(&ticket)
            .expect("reply quotes an unknown ticket");
        ctx.reply(parent, total + n);
    }
}

fn run_sum<F: hyperspace_mapping::MapperFactory>(
    n: u64,
    factory: F,
    topo: Torus,
) -> (u64, u64, RunOutcome) {
    let host = MappingHost::new(SumHandler, factory, MapConfig::default());
    let trigger = hyperspace_mapping::trigger(n);
    let mut sim = Simulation::new(topo, host, SimConfig::default());
    sim.inject(0, trigger);
    let report = sim.run_to_quiescence().unwrap();
    let result = *sim
        .state(0)
        .root_result()
        .expect("root reply must reach the triggering node");
    (result, report.computation_time, report.outcome)
}

#[test]
fn sum_10_equals_55_round_robin() {
    let (result, _, outcome) = run_sum(10, RoundRobinMapper::factory(), Torus::new_2d(4, 4));
    assert_eq!(result, 55);
    assert_eq!(outcome, RunOutcome::Halted);
}

#[test]
fn sum_10_equals_55_least_busy() {
    let (result, ..) = run_sum(10, LeastBusyMapper::factory(), Torus::new_2d(4, 4));
    assert_eq!(result, 55);
}

#[test]
fn sum_10_equals_55_random() {
    let (result, ..) = run_sum(10, RandomMapper::factory(99), Torus::new_2d(4, 4));
    assert_eq!(result, 55);
}

#[test]
fn sum_chain_takes_two_steps_per_level() {
    // Each recursion level costs one step for the call hop and (on the way
    // back) one for the reply hop, plus trigger handling: the linear chain
    // of Listing 2 cannot parallelise, so computation time grows ~2n.
    let (result, time, _) = run_sum(20, RoundRobinMapper::factory(), Torus::new_2d(8, 8));
    assert_eq!(result, 210);
    assert!(
        (2 * 20..=2 * 20 + 4).contains(&time),
        "expected ~42 steps, got {time}"
    );
}

#[test]
fn sum_on_hypercube() {
    let host = MappingHost::new(
        SumHandler,
        RoundRobinMapper::factory(),
        MapConfig::default(),
    );
    let mut sim = Simulation::new(Hypercube::new(4), host, SimConfig::default());
    sim.inject(5, hyperspace_mapping::trigger(12));
    sim.run_to_quiescence().unwrap();
    assert_eq!(sim.state(5).root_result(), Some(&78));
}

#[test]
fn every_request_gets_exactly_one_reply() {
    let host = MappingHost::new(
        SumHandler,
        RoundRobinMapper::factory(),
        MapConfig {
            halt_on_root_reply: false, // run to true quiescence
            ..MapConfig::default()
        },
    );
    let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
    sim.inject(3, hyperspace_mapping::trigger(30));
    let report = sim.run_to_quiescence().unwrap();
    assert_eq!(report.outcome, RunOutcome::Quiescent);
    let requests: u64 = (0..16).map(|n| sim.state(n).requests_in).sum();
    let replies: u64 = (0..16).map(|n| sim.state(n).replies_in).sum();
    let calls: u64 = (0..16).map(|n| sim.state(n).calls_out).sum();
    assert_eq!(requests, calls, "every issued call is serviced");
    assert_eq!(replies, calls, "every call is answered exactly once");
    // 31 calls for sum(30): n = 30..=0.
    assert_eq!(calls, 31);
    // No dangling continuation records anywhere.
    assert!((0..16).all(|n| sim.state(n).app.records.is_empty()));
}

#[test]
fn least_busy_spreads_work_more_evenly_than_round_robin() {
    // Launch many roots at once from every node; compare the spread of
    // per-node deliveries. LBN reacts to congestion, RR does not.
    fn spread<F: hyperspace_mapping::MapperFactory>(factory: F) -> f64 {
        let host = MappingHost::new(
            SumHandler,
            factory,
            MapConfig {
                halt_on_root_reply: false,
                ..MapConfig::default()
            },
        );
        let mut sim = Simulation::new(Torus::new_2d(8, 8), host, SimConfig::default());
        for root in 0..8u32 {
            sim.inject(root * 8, hyperspace_mapping::trigger(40));
        }
        sim.run_to_quiescence().unwrap();
        sim.metrics().activity_spread()
    }
    let rr = spread(RoundRobinMapper::factory());
    let lbn = spread(LeastBusyMapper::factory());
    // Eight simultaneous root chains: the adaptive mapper steers work away
    // from busy neighbours, so its per-node activity is visibly flatter
    // than static round robin's.
    assert!(
        lbn < rr,
        "least-busy should spread more evenly: rr={rr:.3} lbn={lbn:.3}"
    );
    assert!(lbn < 1.0, "least-busy spread unexpectedly skewed: {lbn:.3}");
}

#[test]
fn status_broadcasts_cost_messages() {
    // Note: with periodic status broadcasts the machine never goes fully
    // quiescent, so the run must end via halt_on_root_reply.
    let host = MappingHost::new(
        SumHandler,
        LeastBusyMapper::factory(),
        MapConfig {
            status_period: Some(4),
            halt_on_root_reply: true,
        },
    );
    let tick = host.recommended_tick();
    let mut sim = Simulation::new(
        Torus::new_2d(4, 4),
        host,
        SimConfig {
            tick_every: tick,
            ..SimConfig::default()
        },
    );
    sim.inject(0, hyperspace_mapping::trigger(10));
    sim.run_to_quiescence().unwrap();
    let status_total: u64 = (0..16).map(|n| sim.state(n).status_in).sum();
    assert!(status_total > 0, "status broadcasts should circulate");
    // Status messages inflate total traffic beyond the bare computation.
    assert!(sim.metrics().total_sent > 2 * 11);
}
