//! Behavioural tests for the layer-2 scheduler.

use hyperspace_sched::{ProcAddr, ProcCtx, Process, SchedMsg, SchedPolicy, SchedulerHost};
use hyperspace_sim::{DeliveryModel, SimConfig, Simulation};
use hyperspace_topology::{FullyConnected, Ring, Torus};

/// A process that logs every message it services and optionally replies.
#[derive(Clone)]
struct Logger {
    log: Vec<u32>,
}

impl Process for Logger {
    type Msg = u32;
    fn on_message(&mut self, msg: u32, _ctx: &mut ProcCtx<'_, '_, '_, Self>) {
        self.log.push(msg);
    }
}

fn logger_factory(k: usize) -> impl Fn(u32, &hyperspace_sim::InitCtx) -> Vec<Logger> + Sync {
    move |_node, _ctx| (0..k).map(|_| Logger { log: Vec::new() }).collect()
}

#[test]
fn messages_reach_the_addressed_process() {
    let host = SchedulerHost::new(logger_factory(3), SchedPolicy::Fifo);
    let mut sim = Simulation::new(Ring::new(4), host, SimConfig::default());
    for proc in 0..3 {
        sim.inject(
            1,
            SchedMsg {
                src_proc: 0,
                dst_proc: proc,
                inner: 100 + proc,
            },
        );
    }
    sim.run_to_quiescence().unwrap();
    let sched = sim.state(1);
    for proc in 0..3u32 {
        assert_eq!(sched.process(proc).unwrap().log, vec![100 + proc]);
    }
    assert_eq!(sched.serviced, 3);
}

#[test]
fn messages_to_dead_processes_are_dropped() {
    /// Exits on the first message.
    struct OneShot;
    impl Process for OneShot {
        type Msg = u32;
        fn on_message(&mut self, _msg: u32, ctx: &mut ProcCtx<'_, '_, '_, Self>) {
            ctx.exit();
        }
    }
    let host = SchedulerHost::new(|_n, _c| vec![OneShot], SchedPolicy::Fifo);
    let mut sim = Simulation::new(Ring::new(3), host, SimConfig::default());
    sim.inject(
        0,
        SchedMsg {
            src_proc: 0,
            dst_proc: 0,
            inner: 1,
        },
    );
    sim.inject(
        0,
        SchedMsg {
            src_proc: 0,
            dst_proc: 0,
            inner: 2,
        },
    );
    sim.run_to_quiescence().unwrap();
    let sched = sim.state(0);
    assert!(sched.process(0).is_none(), "the one process exited");
    assert_eq!(sched.serviced, 1);
    assert_eq!(sched.dropped, 1);
}

#[test]
fn spawn_creates_addressable_processes() {
    /// Root process spawns a child and forwards the payload locally.
    struct Root {
        child_payload: u32,
    }
    impl Process for Root {
        type Msg = u32;
        fn on_message(&mut self, msg: u32, ctx: &mut ProcCtx<'_, '_, '_, Self>) {
            if ctx.self_addr().proc == 0 {
                let child = ctx.spawn(Root { child_payload: 0 });
                assert_eq!(child.proc, 1);
                ctx.send(child, msg * 2);
            } else {
                self.child_payload = msg;
            }
        }
    }
    let host = SchedulerHost::new(|_n, _c| vec![Root { child_payload: 0 }], SchedPolicy::Fifo);
    let mut sim = Simulation::new(Ring::new(3), host, SimConfig::default());
    sim.inject(
        2,
        SchedMsg {
            src_proc: 0,
            dst_proc: 0,
            inner: 21,
        },
    );
    sim.run_to_quiescence().unwrap();
    let sched = sim.state(2);
    assert!(sched.process(0).is_some() && sched.process(2).is_none());
    assert_eq!(sched.process(1).unwrap().child_payload, 42);
}

#[test]
fn remote_ping_pong_between_processes() {
    /// Bounces a counter between two processes on adjacent nodes.
    struct Ping {
        seen: Vec<u32>,
    }
    impl Process for Ping {
        type Msg = u32;
        fn on_message(&mut self, msg: u32, ctx: &mut ProcCtx<'_, '_, '_, Self>) {
            self.seen.push(msg);
            if msg > 0 {
                let peer = if ctx.node() == 0 {
                    ProcAddr::new(1, 0)
                } else {
                    ProcAddr::new(0, 0)
                };
                ctx.send(peer, msg - 1);
            }
        }
    }
    let host = SchedulerHost::new(|_n, _c| vec![Ping { seen: Vec::new() }], SchedPolicy::Fifo);
    let mut sim = Simulation::new(Ring::new(3), host, SimConfig::default());
    sim.inject(
        0,
        SchedMsg {
            src_proc: 0,
            dst_proc: 0,
            inner: 5,
        },
    );
    sim.run_to_quiescence().unwrap();
    assert_eq!(sim.state(0).process(0).unwrap().seen, vec![5, 3, 1]);
    assert_eq!(sim.state(1).process(0).unwrap().seen, vec![4, 2, 0]);
}

/// Builds a backlog on node 0 that one activation cannot serve: a
/// dispatcher (process 3) sends six local messages for processes 2, 1, 0,
/// 2, 1, 0 from inside its handler, and the host drains them before the
/// step ends, in the policy's choice order.
fn service_order(policy: SchedPolicy) -> Vec<u32> {
    use std::sync::{Arc, Mutex};
    #[derive(Clone)]
    struct Shared {
        order: Arc<Mutex<Vec<u32>>>,
    }
    impl Process for Shared {
        type Msg = u32;
        fn on_message(&mut self, _msg: u32, ctx: &mut ProcCtx<'_, '_, '_, Self>) {
            let me = ctx.self_addr();
            if me.proc == 3 {
                for round in 0..2u32 {
                    for proc in [2, 1, 0] {
                        ctx.send(ProcAddr::new(me.node, proc), round);
                    }
                }
            } else {
                self.order.lock().unwrap().push(me.proc);
            }
        }
    }
    let order = Arc::new(Mutex::new(Vec::new()));
    let order_clone = Arc::clone(&order);
    let host = SchedulerHost::new(
        move |_n, _c| {
            (0..4)
                .map(|_| Shared {
                    order: Arc::clone(&order_clone),
                })
                .collect()
        },
        policy,
    );
    let mut sim = Simulation::new(
        FullyConnected::new(2),
        host,
        SimConfig {
            delivery: DeliveryModel::Direct,
            ..SimConfig::default()
        },
    );
    sim.inject(
        0,
        SchedMsg {
            src_proc: 0,
            dst_proc: 3,
            inner: 0,
        },
    );
    let report = sim.run_to_quiescence().unwrap();
    assert_eq!(report.steps, 1, "the whole backlog drains in one step");
    let got = order.lock().unwrap().clone();
    got
}

#[test]
fn fifo_services_in_arrival_order() {
    assert_eq!(service_order(SchedPolicy::Fifo), vec![2, 1, 0, 2, 1, 0]);
}

#[test]
fn round_robin_alternates_processes() {
    assert_eq!(
        service_order(SchedPolicy::RoundRobin),
        vec![0, 1, 2, 0, 1, 2]
    );
}

#[test]
fn priority_drains_low_ids_first() {
    assert_eq!(service_order(SchedPolicy::Priority), vec![0, 0, 1, 1, 2, 2]);
}

#[test]
fn local_sends_cost_no_interconnect_traffic() {
    /// Process 0 relays through local process 1 before replying remotely.
    struct Relay;
    impl Process for Relay {
        type Msg = u32;
        fn on_message(&mut self, msg: u32, ctx: &mut ProcCtx<'_, '_, '_, Self>) {
            match ctx.self_addr().proc {
                0 if msg == 0 => {
                    // trigger: bounce through local proc 1 five times
                    ctx.send(ProcAddr::new(ctx.node(), 1), 5);
                }
                1 if msg > 1 => ctx.send(ProcAddr::new(ctx.node(), 1), msg - 1),
                _ => {}
            }
        }
    }
    let host = SchedulerHost::new(|_n, _c| vec![Relay, Relay], SchedPolicy::Fifo);
    let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
    sim.inject(
        5,
        SchedMsg {
            src_proc: 0,
            dst_proc: 0,
            inner: 0,
        },
    );
    let report = sim.run_to_quiescence().unwrap();
    // The whole local cascade resolves within the trigger's step.
    assert_eq!(report.steps, 1);
    assert_eq!(sim.metrics().total_sent, 0);
    assert_eq!(sim.state(5).serviced, 6); // trigger + 5 local bounces
}
