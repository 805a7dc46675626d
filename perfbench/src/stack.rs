//! The sequential CNLR stack as the benchmark drives it: scenario
//! settings, the timed `ScenarioBuilder` calls, and a traced run that
//! times every event `Network::handle` dispatches.
//!
//! The traced run cannot reach the engine inside a built `Simulation`, so
//! it assembles its own `Network` and `Engine` from public items, the way
//! `ScenarioBuilder::build_with_prefix` does, on the node positions and
//! flow specs the builder drew. Its `RunResults` must equal the untraced
//! run's exactly; the caller checks that before reporting the split.

use cnlr::faults::FaultPlan;
use cnlr::mac::MacParams;
use cnlr::mobility::MobilityConfig;
use cnlr::node::rng_domain;
use cnlr::radio::PhyParams;
use cnlr::routing::{RoutingAction, RoutingConfig};
use cnlr::sim::{Engine, Scheduler, SimDuration, SimRng, SimTime, World};
use cnlr::topology::{Region, SpatialIndex, Vec2};
use cnlr::traffic::{FlowSpec, FlowState, FlowTracker};
use cnlr::{Event, Network, Node, RebootKit, RunResults, ScenarioBuilder, Scheme, Simulation};
use std::time::{Duration, Instant};
use wmn_telemetry::TelemetryConfig;

/// Grid pitch of the scale presets, metres.
const PITCH_M: f64 = 180.0;
/// `ScenarioBuilder`'s fixed spatial-index refresh period for mobile
/// nodes, in milliseconds.
const POSITION_SAMPLE_MS: u64 = 250;

/// One sequential-stack scenario: the `scale_grid` preset's router grid
/// with optional RWP clients and churn. Every setting the builder consults
/// is either here or the builder's default, so the traced run can mirror
/// the assembly.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub seed: u64,
    pub side: usize,
    pub scheme: Scheme,
    pub flows: usize,
    pub duration: SimDuration,
    pub warmup: SimDuration,
    /// Mobile RWP clients: `(count, max speed m/s)`.
    pub clients: Option<(usize, f64)>,
    /// Stochastic churn: `(mean time between failures, mean repair)`.
    pub churn: Option<(SimDuration, SimDuration)>,
}

impl Scenario {
    fn client_mobility(v_max: f64) -> MobilityConfig {
        MobilityConfig::RandomWaypoint {
            v_min: 1.0,
            v_max,
            pause_s: 2.0,
        }
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.churn
            .map(|(mtbf, mttr)| FaultPlan::new().churn(mtbf, mttr))
    }

    /// The builder for this scenario. Telemetry is pinned off so that
    /// `WMN_TELEMETRY` in the environment cannot change a workload.
    pub fn builder(&self) -> ScenarioBuilder {
        let mut b = cnlr::presets::scale_grid(self.side * self.side, self.flows, self.seed)
            .scheme(self.scheme.clone())
            .duration(self.duration)
            .warmup(self.warmup)
            .telemetry(TelemetryConfig::disabled());
        if let Some((count, v_max)) = self.clients {
            b = b.mobile_clients(count, Self::client_mobility(v_max));
        }
        if let Some(plan) = self.fault_plan() {
            b = b.faults(plan);
        }
        b
    }

    fn region(&self) -> Region {
        let side_m = self.side as f64 * PITCH_M;
        Region::new(side_m, side_m)
    }
}

/// A built simulation with the time each builder call took.
pub struct Built {
    pub sim: Simulation,
    pub prefix: Duration,
    pub assemble: Duration,
    pub prefix_fingerprint: u64,
}

impl Built {
    pub fn setup(&self) -> Duration {
        self.prefix + self.assemble
    }
}

/// `build_prefix` then `build_with_prefix`, each timed.
pub fn build(sc: &Scenario) -> Result<Built, String> {
    let b = sc.builder();
    let t0 = Instant::now();
    let prefix = b.build_prefix().map_err(|e| format!("build_prefix: {e}"))?;
    let t1 = Instant::now();
    let sim = b
        .build_with_prefix(&prefix)
        .map_err(|e| format!("build_with_prefix: {e}"))?;
    Ok(Built {
        sim,
        prefix: t1 - t0,
        assemble: t1.elapsed(),
        prefix_fingerprint: prefix.fingerprint(),
    })
}

/// The outputs a run is checked on: engine events, the medium's physics
/// counters, link budgets, deliveries and PDR.
pub fn outputs(r: &RunResults) -> String {
    let mut s = format!(
        "events={} sent={} delivered={} pdr={:?} link_budgets={}",
        r.events,
        r.summary.sent,
        r.summary.delivered,
        r.summary.delivery_ratio,
        r.medium.link_budgets
    );
    r.medium
        .visit(&mut |name, v| s.push_str(&format!(" {name}={v}")));
    s
}

/// The per-layer metric names of each event kind `Network::handle`
/// dispatches, as `(time, count)`, in the order [`Split`] indexes them.
pub const KIND_METRICS: [(&str, &str); 8] = [
    ("network.rx_end.ns", "network.rx_end.count"),
    ("network.tx_end.ns", "network.tx_end.count"),
    ("network.mac_timer.ns", "network.mac_timer.count"),
    ("network.routing_timer.ns", "network.routing_timer.count"),
    (
        "network.delayed_broadcast.ns",
        "network.delayed_broadcast.count",
    ),
    ("network.mobility.ns", "network.mobility.count"),
    ("network.fault.ns", "network.fault.count"),
    ("network.traffic_emit.ns", "network.traffic_emit.count"),
];

/// Per-event-kind handler time and count, indexed like [`KIND_METRICS`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    pub ns: [u64; 8],
    pub count: [u64; 8],
}

impl Split {
    pub fn add(&mut self, other: &Split) {
        for k in 0..8 {
            self.ns[k] += other.ns[k];
            self.count[k] += other.count[k];
        }
    }

    pub fn handler_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

fn kind(ev: &Event) -> usize {
    match ev {
        Event::RxEnd { .. } => 0,
        Event::TxEnd { .. } => 1,
        Event::MacTimer { .. } => 2,
        Event::RoutingTimer { .. } => 3,
        Event::DelayedBroadcast { .. } => 4,
        Event::MobilityUpdate { .. } | Event::PositionSample => 5,
        Event::Fault { .. } => 6,
        Event::TrafficEmit { .. } => 7,
        // The benchmark pins telemetry off, so no probe is ever primed.
        Event::TelemetryProbe => unreachable!("telemetry probe in a telemetry-off run"),
    }
}

/// `Network` as a `World`, timing each `handle` call.
struct Timed<'a> {
    net: &'a mut Network,
    split: Split,
}

impl World for Timed<'_> {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut Scheduler<Event>) {
        let k = kind(&event);
        let t0 = Instant::now();
        self.net.handle(event, sched);
        self.split.ns[k] += t0.elapsed().as_nanos() as u64;
        self.split.count[k] += 1;
    }
}

/// A finished traced run.
pub struct Traced {
    pub results: RunResults,
    pub split: Split,
    /// Wall time of the engine loop alone.
    pub run: Duration,
}

/// Assemble `sc`'s world on the positions and flows `drawn` holds, as
/// `build_with_prefix` does, and run it with every event timed.
pub fn run_traced(sc: &Scenario, drawn: &Simulation) -> Traced {
    let positions: Vec<Vec2> = drawn
        .network
        .nodes
        .iter()
        .map(|n| n.mobility.position(SimTime::ZERO))
        .collect();
    let specs: Vec<FlowSpec> = drawn.network.flows.iter().map(|f| *f.spec()).collect();
    let (mut network, engine) = assemble(sc, &positions, &specs);
    let t0 = Instant::now();
    let mut timed = Timed {
        net: &mut network,
        split: Split::default(),
    };
    let report = engine.run(&mut timed);
    let run = t0.elapsed();
    let split = timed.split;
    let results = RunResults::collect(
        &network,
        &report,
        sc.scheme.label(),
        sc.duration.saturating_sub(sc.warmup),
    );
    Traced {
        results,
        split,
        run,
    }
}

fn assemble(sc: &Scenario, positions: &[Vec2], specs: &[FlowSpec]) -> (Network, Engine<Event>) {
    let region = sc.region();
    let phy = PhyParams::classic_802_11b();
    let mac = MacParams::default();
    let routing = RoutingConfig::default();
    let backbone = sc.side * sc.side;
    let total = positions.len();

    let nodes: Vec<Node> = positions
        .iter()
        .enumerate()
        .map(|(i, &pos)| {
            let mobility = match sc.clients {
                Some((_, v_max)) if i >= backbone => Scenario::client_mobility(v_max),
                _ => MobilityConfig::Static,
            };
            Node::new(
                i as u32,
                sc.seed,
                mac.clone(),
                routing.clone(),
                sc.scheme.build(),
                mobility,
                pos,
                region,
                SimTime::ZERO,
            )
        })
        .collect();
    let spatial = SpatialIndex::new(
        region,
        phy.interference_range_m().max(50.0) / 2.0,
        positions,
    );
    let medium = cnlr::Medium::new(
        phy,
        total,
        SimRng::derive(sc.seed, rng_domain::MEDIUM, 0),
        25.0,
    );
    let mut network = Network::new(
        nodes,
        medium,
        spatial,
        FlowTracker::new(SimTime::ZERO + sc.warmup),
        specs.iter().copied().map(FlowState::new).collect(),
        SimRng::derive(sc.seed, rng_domain::TRAFFIC, 0),
        SimDuration::from_millis(POSITION_SAMPLE_MS),
    );

    let mut engine = Engine::new(SimTime::ZERO + sc.duration);
    let mut acts = Vec::new();
    for i in 0..network.nodes.len() {
        acts.clear();
        network.nodes[i].routing.start(SimTime::ZERO, &mut acts);
        for a in acts.drain(..) {
            if let RoutingAction::SetTimer { timer, at } = a {
                engine.prime(
                    at,
                    Event::RoutingTimer {
                        node: i as u32,
                        timer,
                        inc: 0,
                    },
                );
            }
        }
        if network.nodes[i].mobility.is_mobile() {
            let next = network.nodes[i].mobility.next_update();
            if next != SimTime::MAX {
                engine.prime(next, Event::MobilityUpdate { node: i as u32 });
            }
        }
    }
    if network.any_mobile() {
        engine.prime(
            SimTime::ZERO + SimDuration::from_millis(POSITION_SAMPLE_MS),
            Event::PositionSample,
        );
    }
    for (idx, spec) in specs.iter().enumerate() {
        engine.prime(spec.start, Event::TrafficEmit { flow_idx: idx });
    }
    if let Some(plan) = sc.fault_plan() {
        let schedule = plan.expand(
            sc.seed,
            total as u32,
            region.width,
            region.height,
            SimTime::ZERO + sc.duration,
        );
        if !schedule.is_empty() {
            for (idx, f) in schedule.iter().enumerate() {
                engine.prime(f.at, Event::Fault { idx: idx as u32 });
            }
            network.set_faults(
                schedule,
                RebootKit {
                    master_seed: sc.seed,
                    mac,
                    routing,
                    scheme: sc.scheme.clone(),
                },
            );
        }
    }
    (network, engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(clients: Option<(usize, f64)>, churn: bool) -> Scenario {
        Scenario {
            seed: 3,
            side: 4,
            scheme: Scheme::Cnlr(Default::default()),
            flows: 3,
            duration: SimDuration::from_secs(6),
            warmup: SimDuration::from_secs(2),
            clients,
            churn: churn.then(|| (SimDuration::from_secs(20), SimDuration::from_secs(3))),
        }
    }

    /// The traced run reproduces the builder's run bit for bit, static and
    /// with mobile clients and churn.
    #[test]
    fn traced_run_matches_builder_run() {
        for sc in [tiny(None, false), tiny(Some((4, 10.0)), true)] {
            let plain = build(&sc).expect("build").sim.run();
            let drawn = build(&sc).expect("build");
            let traced = run_traced(&sc, &drawn.sim);
            assert_eq!(format!("{:?}", plain), format!("{:?}", traced.results));
            assert_eq!(traced.split.count.iter().sum::<u64>(), plain.events);
        }
    }
}
