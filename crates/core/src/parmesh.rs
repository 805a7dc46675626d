//! ParMesh — the region-partitioned mesh model for shard-parallel runs.
//!
//! The classic [`Network`](crate::Network) world models carrier sense
//! exactly, which makes cross-node influence instantaneous — correct, but
//! unshardable: zero lookahead between regions means no conservative
//! parallelism. ParMesh is the scale path: it keeps the paper's
//! *neighbourhood-load routing* mechanism (periodic HELLO load digests,
//! load-aware next-hop choice) but abstracts the MAC into a **latency
//! floor** — every relayed packet pays at least [`HOP_FLOOR`] between
//! reception and re-transmission (DIFS + mean backoff + airtime), which is
//! physically honest and is exactly the lookahead the sharded engine needs.
//!
//! Design rules that make the model shardable *and* bit-identical across
//! worker counts:
//!
//! * **Static ownership.** The field is split into a near-square region
//!   grid; a node is owned by the region containing its *home* position,
//!   forever. All mutable state of a node (its load counters, its packets
//!   in flight at it) lives in its owner region.
//! * **Pure-function mobility.** A node's position is a closed-form
//!   function of time and immutable per-node parameters (circular drift of
//!   bounded amplitude), so *any* region can evaluate *any* node's current
//!   position without shared mutable state.
//! * **Precomputed churn.** Crash/reboot intervals are drawn from the
//!   master seed at build time and shared read-only; `is_up(node, t)` is a
//!   pure function every region evaluates identically. Owner regions
//!   additionally schedule the transition events for telemetry and load
//!   resets.
//! * **Digested load.** A region knows its own nodes' loads exactly;
//!   neighbours' loads arrive via periodic HELLO digests (one cross-region
//!   event per neighbour region per interval) — stale by up to one
//!   interval, exactly like real HELLO-carried load advertisements.
//!
//! Geometry guarantees the lookahead structure: region sides are kept at
//! least [`MIN_REGION_SIDE_M`] (> max hop distance = radio range plus two
//! drift amplitudes), so a packet can only ever hop into a Chebyshev-
//! adjacent region. Non-adjacent regions exchange nothing directly; the
//! engine's shortest-path closure turns that ring structure into
//! distance-proportional lookahead — the discrete analogue of propagation
//! delay between separated areas.
//!
//! The world data is laid out for million-node runs: the shared read-only
//! tables ([`Statics`]) keep per-node state in flat structure-of-arrays
//! vectors with CSR-flattened adjacency (churn intervals, spatial-hash
//! cells) instead of nested `Vec<Vec<…>>`, node ids are `u32` throughout,
//! and per-region hot state (exact node loads) is a dense vector parallel
//! to the sorted owned-id list rather than a hash map. At full trace
//! volume a merged in-memory trace would dwarf the world itself, so
//! [`ParMesh::trace_hash`] streams events into O(1)-memory per-region
//! fingerprints instead — the scale-run stand-in for a byte-level trace
//! diff.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use wmn_metrics::ProbeSeries;
use wmn_sim::checkpoint::{self, ByteReader, ByteWriter, CheckpointError};
use wmn_sim::shard::{
    CheckpointState, CrashPlan, Lookahead, RegionCtx, RegionId, RegionWorld, ShardProbe,
    ShardedEngine, SupervisorConfig, SupervisorReport,
};
use wmn_sim::{SimDuration, SimRng, SimTime};
use wmn_telemetry::{
    merge_region_traces, DropReason, EventKind, EventSink, HashSink, MemorySink, ShardProfile,
    ShardProfiler, SharedSink, Tel, TelemetryEvent,
};

/// Grid pitch the node density is derived from (matches the scale presets).
pub const PITCH_M: f64 = 180.0;
/// Radio range: nodes within this distance of each other are neighbours.
pub const RX_RANGE_M: f64 = 250.0;
/// Maximum mobility drift amplitude around the home position.
pub const DRIFT_AMP_M: f64 = 25.0;
/// Spatial-hash cell size for neighbour search.
const CELL_M: f64 = 250.0;
/// Slack on `next_hop`'s home-distance bounds, far above float error.
const BOUND_MARGIN_M: f64 = 1.0;
/// Minimum region side: must exceed the maximum hop distance
/// (`RX_RANGE_M + 2 × DRIFT_AMP_M` = 300 m) so hops stay within the
/// adjacent region ring.
pub const MIN_REGION_SIDE_M: f64 = 560.0;
/// The MAC latency floor: minimum delay between receiving a packet and the
/// relayed copy becoming receivable at the next hop (DIFS + mean backoff +
/// ~512 B airtime at mesh rates). This is the sharding lookahead.
pub const HOP_FLOOR: SimDuration = SimDuration(1_000_000);
/// Extra per-hop jitter span (contention variability), drawn per hop from
/// the owning region's RNG stream.
const HOP_JITTER_US: u64 = 250;
/// HELLO / load-digest interval.
const HELLO_INTERVAL: SimDuration = SimDuration(1_000_000_000);
/// Initial packet TTL (hops).
const TTL_INIT: u32 = 48;

const DOMAIN_PLACE: u64 = 0x70_61_72_01;
const DOMAIN_DRIFT: u64 = 0x70_61_72_02;
const DOMAIN_CHURN: u64 = 0x70_61_72_03;
const DOMAIN_FLOWS: u64 = 0x70_61_72_04;
const DOMAIN_REGION: u64 = 0x70_61_72_05;

/// Scenario description for a ParMesh run (builder-style).
#[derive(Clone, Debug)]
pub struct ParMesh {
    nodes: usize,
    flows: usize,
    duration: SimDuration,
    interval: SimDuration,
    seed: u64,
    regions: Option<usize>,
    threads: usize,
    steal: bool,
    mobility: bool,
    churn: bool,
    telemetry: bool,
    trace_hash: bool,
    profile: bool,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<SimDuration>,
    resume: bool,
    crash_plan: CrashPlan,
    interrupt: Option<Arc<AtomicBool>>,
}

impl ParMesh {
    /// A scenario with `nodes` routers and scale-preset defaults: one flow
    /// per 4 nodes at 10 pkt/s, 10 s horizon, mobility and churn on.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        ParMesh {
            nodes,
            flows: (nodes / 4).max(1),
            duration: SimDuration::from_secs(10),
            interval: SimDuration::from_millis(100),
            seed: 1,
            regions: None,
            threads: 1,
            steal: true,
            mobility: true,
            churn: true,
            telemetry: false,
            trace_hash: false,
            profile: false,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            crash_plan: CrashPlan::default(),
            interrupt: None,
        }
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of CBR flows.
    pub fn flows(mut self, flows: usize) -> Self {
        self.flows = flows;
        self
    }

    /// Set the simulated duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Set the per-flow packet interval.
    pub fn interval(mut self, d: SimDuration) -> Self {
        self.interval = d;
        self
    }

    /// Request a region count. The auto-tuner grants the nearest grid the
    /// geometry can honour (sides must stay ≥ [`MIN_REGION_SIDE_M`]); when
    /// that differs from an explicit request the run warns on stderr with
    /// the granted value. The default derives one region per ~384 nodes
    /// with no upper cap — a million-node field auto-tunes past 2500
    /// regions. The region count is part of the scenario: changing it
    /// changes event timestamps slightly; changing *threads* never does.
    pub fn regions(mut self, regions: usize) -> Self {
        self.regions = Some(regions.max(1));
        self
    }

    /// Set the worker thread count (wall-clock only; results identical).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable work stealing between epoch barriers (on by
    /// default). Stealing only remaps which worker thread executes a
    /// region's window — results, traces and checkpoints are bit-identical
    /// either way, so this knob is excluded from the scenario fingerprint
    /// and a resume may flip it.
    pub fn steal(mut self, on: bool) -> Self {
        self.steal = on;
        self
    }

    /// Enable or disable mobility drift.
    pub fn mobility(mut self, on: bool) -> Self {
        self.mobility = on;
        self
    }

    /// Enable or disable node churn.
    pub fn churn(mut self, on: bool) -> Self {
        self.churn = on;
        self
    }

    /// Enable or disable telemetry collection (the merged trace is
    /// returned in [`ParMeshOutcome::trace`]).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Fold every telemetry event into O(1)-memory per-region fingerprints
    /// instead of materialising a trace; the combined value is returned in
    /// [`ParMeshOutcome::trace_fp`]. The per-region event streams are the
    /// same ones full telemetry would record, so a hash-only run and a
    /// full-trace run of the same scenario produce the same fingerprint —
    /// this is the million-node stand-in for a byte-level trace diff.
    /// Incompatible with checkpointing (which must buffer the trace).
    pub fn trace_hash(mut self, on: bool) -> Self {
        self.trace_hash = on;
        self
    }

    /// Enable or disable engine profiling (the profile is returned in
    /// [`ParMeshOutcome::profile`]). Profiling observes the engine from
    /// the coordinator thread only and never changes simulation results
    /// or the telemetry trace.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Write epoch-barrier checkpoints into `dir` (atomic temp+rename).
    /// Implies the supervised engine; with no explicit
    /// [`checkpoint_every`](ParMesh::checkpoint_every) the cadence defaults
    /// to one simulated second.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sim-time cadence between checkpoints.
    pub fn checkpoint_every(mut self, every: SimDuration) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Resume from the highest-epoch checkpoint in
    /// [`checkpoint_dir`](ParMesh::checkpoint_dir). Starts fresh when the
    /// directory holds no checkpoints; refuses (structured error from
    /// [`try_run`](ParMesh::try_run)) when the latest one is corrupt or
    /// belongs to a different scenario.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Inject harness-level worker crashes (supervisor exercise; strictly
    /// separate from in-sim node churn).
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Cooperative interrupt flag, checked at every epoch barrier; when it
    /// goes true the run writes a final checkpoint (if a checkpoint dir is
    /// set) and stops with [`SupervisorReport::interrupted`].
    pub fn interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// True when any robustness feature routes this run through the
    /// supervised engine. Plain runs take the exact pre-existing path, so
    /// checkpoints-off behaviour is byte-identical by construction.
    fn supervised(&self) -> bool {
        self.checkpoint_dir.is_some()
            || self.checkpoint_every.is_some()
            || self.resume
            || !self.crash_plan.is_empty()
            || self.interrupt.is_some()
    }

    /// The scenario fingerprint stamped into checkpoints: a hash of every
    /// result-affecting knob. Thread count and profiling are excluded (both
    /// are wall-clock-only), so a resume may use a different worker count.
    pub fn scenario_fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.u64(self.nodes as u64);
        w.u64(self.flows as u64);
        w.u64(self.duration.as_nanos());
        w.u64(self.interval.as_nanos());
        w.u64(self.seed);
        w.u64(self.regions.map(|r| r as u64 + 1).unwrap_or(0));
        w.u8(self.mobility as u8);
        w.u8(self.churn as u8);
        w.u8(self.telemetry as u8);
        checkpoint::fnv1a(&w.into_inner())
    }

    /// Run the scenario. Results are a pure function of the scenario
    /// (including the region count) and never of the thread count.
    ///
    /// Panics on checkpoint errors (corrupt resume file, unwritable
    /// checkpoint dir); callers that need structured errors use
    /// [`try_run`](ParMesh::try_run).
    pub fn run(&self) -> ParMeshOutcome {
        match self.try_run() {
            Ok(out) => out,
            Err(e) => panic!("parmesh run failed: {e}"),
        }
    }

    /// Run the scenario, surfacing checkpoint/resume failures as structured
    /// errors instead of panics. Without robustness features this cannot
    /// fail.
    pub fn try_run(&self) -> Result<ParMeshOutcome, CheckpointError> {
        run_parmesh(self)
    }
}

/// Aggregated results of a ParMesh run.
#[derive(Clone, Debug, Default)]
pub struct ParMeshReport {
    /// Node count.
    pub nodes: usize,
    /// Region count actually used.
    pub regions: usize,
    /// Data packets originated.
    pub originated: u64,
    /// Data packets delivered to their destination.
    pub delivered: u64,
    /// Packets dropped: no neighbour with positive progress.
    pub dropped_no_route: u64,
    /// Packets dropped: TTL exhausted.
    pub dropped_expired: u64,
    /// Packets dropped: relay or destination was crashed.
    pub dropped_node_down: u64,
    /// Relay transmissions (hops after the first).
    pub forwards: u64,
    /// Mean end-to-end delay over delivered packets, seconds.
    pub mean_delay_s: f64,
    /// Mean hop count over delivered packets.
    pub mean_hops: f64,
    /// Engine events dispatched.
    pub events: u64,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Cross-region events exchanged.
    pub cross_region: u64,
    /// Final simulation time.
    pub end_time: SimTime,
}

impl ParMeshReport {
    /// Packet delivery ratio.
    pub fn pdr(&self) -> f64 {
        if self.originated == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.originated as f64
    }
}

/// A finished run: the report plus the merged telemetry trace (empty when
/// telemetry was off).
#[derive(Clone, Debug)]
pub struct ParMeshOutcome {
    /// Aggregated measurements.
    pub report: ParMeshReport,
    /// Deterministically merged trace, ordered by `(t, region, index)`.
    pub trace: Vec<TelemetryEvent>,
    /// `(events, fingerprint)` of the full telemetry stream, folded from
    /// per-region [`HashSink`]s in region order; present when
    /// [`trace_hash`](ParMesh::trace_hash) was requested. Identical for
    /// any thread count and steal schedule, and identical to the value a
    /// full-telemetry run of the same scenario would hash to.
    pub trace_fp: Option<(u64, u64)>,
    /// Engine execution profile (present when profiling was requested).
    pub profile: Option<ShardProfile>,
    /// 1 Hz cross-layer probe feed, rebuilt from the merged trace (empty
    /// when telemetry was off).
    pub probes: ProbeSeries,
    /// Supervisor summary (recoveries, checkpoints written, interrupt and
    /// resume lineage); present only when the run used a robustness
    /// feature — plain runs never take the supervised path.
    pub supervisor: Option<SupervisorReport>,
}

#[derive(Clone, Copy, Debug)]
struct NodeParams {
    home: (f64, f64),
    amp: f64,
    omega: f64,
    phase: f64,
}

#[derive(Clone, Copy, Debug)]
struct Flow {
    src: u32,
    dst: u32,
    start: SimTime,
}

/// Immutable world data shared read-only by every region. Per-node tables
/// are CSR-flattened (`*_idx` holds row offsets into the flat payload
/// vector) so a million-node world is a handful of large allocations
/// instead of millions of tiny `Vec`s.
struct Statics {
    params: Vec<NodeParams>,
    /// Down intervals `(down_ns, up_ns)`, sorted per node; node `i` owns
    /// `churn_iv[churn_idx[i]..churn_idx[i+1]]`. Almost all rows empty.
    churn_idx: Vec<u32>,
    churn_iv: Vec<(u64, u64)>,
    /// Spatial hash over *home* positions; cell `c` owns
    /// `cell_nodes[cell_idx[c]..cell_idx[c+1]]`.
    cell_idx: Vec<u32>,
    cell_nodes: Vec<u32>,
    ncx: usize,
    ncy: usize,
    side: f64,
    /// Region grid dimensions.
    rx: usize,
    ry: usize,
    region_of_node: Vec<RegionId>,
    flows: Vec<Flow>,
    interval: SimDuration,
    horizon: SimTime,
}

impl Statics {
    fn pos(&self, node: u32, t: SimTime) -> (f64, f64) {
        let p = &self.params[node as usize];
        if p.amp == 0.0 {
            return p.home;
        }
        let th = p.phase + p.omega * (t.as_nanos() as f64 * 1e-9);
        (p.home.0 + p.amp * th.cos(), p.home.1 + p.amp * th.sin())
    }

    /// Node `i`'s sorted down intervals (CSR row).
    fn churn_of(&self, node: u32) -> &[(u64, u64)] {
        let i = node as usize;
        &self.churn_iv[self.churn_idx[i] as usize..self.churn_idx[i + 1] as usize]
    }

    /// The node ids hashed into spatial cell `c` (CSR row).
    fn cell_members(&self, c: usize) -> &[u32] {
        &self.cell_nodes[self.cell_idx[c] as usize..self.cell_idx[c + 1] as usize]
    }

    fn is_up(&self, node: u32, t: SimTime) -> bool {
        let ns = t.as_nanos();
        self.churn_of(node)
            .iter()
            .all(|&(down, up)| ns < down || ns >= up)
    }

    fn region_at(&self, x: f64, y: f64) -> RegionId {
        let gx = ((x / self.side * self.rx as f64) as usize).min(self.rx - 1);
        let gy = ((y / self.side * self.ry as f64) as usize).min(self.ry - 1);
        (gy * self.rx + gx) as RegionId
    }

    fn region_coords(&self, r: RegionId) -> (usize, usize) {
        (r as usize % self.rx, r as usize / self.rx)
    }

    /// Chebyshev ring-1 neighbours of a region, ascending.
    fn adjacent_regions(&self, r: RegionId) -> Vec<RegionId> {
        let (gx, gy) = self.region_coords(r);
        let mut out = Vec::new();
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = gx as i64 + dx;
                let ny = gy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= self.rx as i64 || ny >= self.ry as i64 {
                    continue;
                }
                out.push((ny as usize * self.rx + nx as usize) as RegionId);
            }
        }
        out
    }
}

/// Flatten ragged rows into CSR form: `(row_offsets, payload)` with
/// `rows[i] == payload[idx[i]..idx[i+1]]`.
fn flatten_csr<T: Copy>(rows: &[Vec<T>]) -> (Vec<u32>, Vec<T>) {
    let total: usize = rows.iter().map(Vec::len).sum();
    assert!(
        total <= u32::MAX as usize,
        "CSR payload exceeds u32 offsets"
    );
    let mut idx = Vec::with_capacity(rows.len() + 1);
    let mut flat = Vec::with_capacity(total);
    idx.push(0);
    for row in rows {
        flat.extend_from_slice(row);
        idx.push(flat.len() as u32);
    }
    (idx, flat)
}

/// Fold per-region `(count, fp)` trace fingerprints, in region order, into
/// one run-level fingerprint. Region order is scenario-determined, so the
/// result is invariant to threads and steal schedule.
fn combine_region_fps(fps: &[(u64, u64)]) -> (u64, u64) {
    let mut w = ByteWriter::new();
    let mut count = 0u64;
    for &(c, f) in fps {
        w.u64(c);
        w.u64(f);
        count += c;
    }
    (count, checkpoint::fnv1a(&w.into_inner()))
}

/// The spatial-hash cell of `(x, y)` on an `ncx × ncy` grid of `CELL_M`
/// cells — the one formula behind hashing homes, `nearest_to` and
/// `next_hop`'s scan bounds. Monotone in each coordinate: the saturating
/// float-to-int cast sends negatives to 0 and the `min` clamps past the
/// far edge, so every point of a box lies in the cells between the cells
/// of its corners.
fn cell_of(x: f64, y: f64, ncx: usize, ncy: usize) -> (usize, usize) {
    let cx = ((x / CELL_M) as usize).min(ncx - 1);
    let cy = ((y / CELL_M) as usize).min(ncy - 1);
    (cx, cy)
}

/// Node ids bucketed by the cell of their home, ascending within a cell.
fn hash_homes(params: &[NodeParams], ncx: usize, ncy: usize) -> Vec<Vec<u32>> {
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); ncx * ncy];
    for (i, p) in params.iter().enumerate() {
        let (cx, cy) = cell_of(p.home.0, p.home.1, ncx, ncy);
        cells[cy * ncx + cx].push(i as u32);
    }
    cells
}

fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    dx * dx + dy * dy
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    dist2(a, b).sqrt()
}

/// One in-flight data packet.
#[derive(Clone, Copy, Debug)]
struct Packet {
    flow: u32,
    seq: u32,
    node: u32,
    dst: u32,
    ttl: u32,
    origin_ns: u64,
}

enum PmEvent {
    /// Periodic per-region load refresh + digest broadcast.
    HelloTick,
    /// A neighbour region's load digest.
    Digest(Arc<Vec<(u32, u32)>>),
    /// A flow source emits its next packet.
    Originate { flow: u32 },
    /// A data packet arrived at `pkt.node` (owned by this region).
    Forward(Packet),
    /// Scheduled churn transition for an owned node.
    ChurnDown { node: u32 },
    /// Scheduled churn recovery for an owned node.
    ChurnUp { node: u32 },
}

#[derive(Clone, Copy, Default)]
struct NodeLoad {
    load: u32,
    recent: u32,
}

#[derive(Clone, Debug, Default)]
struct RegionStats {
    originated: u64,
    delivered: u64,
    dropped_no_route: u64,
    dropped_expired: u64,
    dropped_node_down: u64,
    forwards: u64,
    delay_sum_ns: u64,
    hops_sum: u64,
}

struct RegionNet {
    id: RegionId,
    st: Arc<Statics>,
    /// Owned node ids, ascending.
    own: Vec<u32>,
    /// Exact loads of owned nodes, parallel to `own` (dense hot state —
    /// 8 B per node; look up by binary search over the sorted ids).
    loads: Vec<NodeLoad>,
    /// Last digested loads of other regions' nodes (stale by design).
    remote: HashMap<u32, u32>,
    rng: SimRng,
    tel: Tel,
    /// The region's own telemetry buffer (what `tel` writes into), kept so
    /// checkpoints can capture and restore buffered trace events; `None`
    /// when telemetry is off.
    sink: Option<Arc<Mutex<MemorySink>>>,
    hello_seq: u32,
    flow_seq: HashMap<u32, u32>,
    stats: RegionStats,
}

impl RegionNet {
    fn load_of(&self, node: u32) -> u32 {
        match self.own.binary_search(&node) {
            Ok(i) => {
                let nl = self.loads[i];
                nl.load + nl.recent
            }
            Err(_) => self.remote.get(&node).copied().unwrap_or(0),
        }
    }

    /// Load-aware geographic next hop from `u` towards `dst` at `now`:
    /// `dst` itself when it is up and in range, else, among up nodes
    /// within `RX_RANGE_M` of `u` whose progress towards `dst` exceeds
    /// 1 m, the one maximising `progress / (1 + load)` — the
    /// neighbourhood-load rule — with ties to the lowest id. That is a
    /// maximum under a total order, so the winner does not depend on the
    /// order candidates are visited in.
    ///
    /// The scan is bounded on home positions before any drift is
    /// evaluated. A node never strays more than its `amp ≤ DRIFT_AMP_M`
    /// from home, so with a `BOUND_MARGIN_M` margin (far above float
    /// error) each bound skips only nodes the exact tests reject:
    /// - cells: only those the box `pu ± (RX_RANGE_M + DRIFT_AMP_M +
    ///   margin)` touches, found through the monotone [`cell_of`] that
    ///   hashed the homes;
    /// - range: `|home − pu| > RX_RANGE_M + amp + margin` puts the node
    ///   out of range;
    /// - progress: `|home − pdst| ≥ d_u + amp` caps progress at float
    ///   error, below the 1 m floor.
    ///
    /// The hop is therefore bit-identical to an exhaustive scan over all
    /// nodes, at a cost proportional to the nodes near `u`.
    fn next_hop(&self, u: u32, dst: u32, now: SimTime) -> Option<u32> {
        let st = &self.st;
        let pu = st.pos(u, now);
        let pdst = st.pos(dst, now);
        let d_u = dist(pu, pdst);
        // Direct delivery beats any relay.
        if d_u <= RX_RANGE_M && st.is_up(dst, now) {
            return Some(dst);
        }
        let reach = RX_RANGE_M + DRIFT_AMP_M + BOUND_MARGIN_M;
        let (x0, y0) = cell_of(pu.0 - reach, pu.1 - reach, st.ncx, st.ncy);
        let (x1, y1) = cell_of(pu.0 + reach, pu.1 + reach, st.ncx, st.ncy);
        let mut best: Option<(f64, u32)> = None;
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                for &v in st.cell_members(cy * st.ncx + cx) {
                    let p = &st.params[v as usize];
                    let range = RX_RANGE_M + p.amp + BOUND_MARGIN_M;
                    if dist2(p.home, pu) > range * range {
                        continue;
                    }
                    let closest = d_u + p.amp;
                    if dist2(p.home, pdst) >= closest * closest {
                        continue;
                    }
                    if v == u || !st.is_up(v, now) {
                        continue;
                    }
                    let pv = st.pos(v, now);
                    if dist(pu, pv) > RX_RANGE_M {
                        continue;
                    }
                    let progress = d_u - dist(pv, pdst);
                    if progress <= 1.0 {
                        continue;
                    }
                    let score = progress / (1.0 + self.load_of(v) as f64);
                    let better = match best {
                        None => true,
                        Some((bs, bv)) => score > bs || (score == bs && v < bv),
                    };
                    if better {
                        best = Some((score, v));
                    }
                }
            }
        }
        best.map(|(_, v)| v)
    }

    fn transmit(&mut self, pkt: Packet, ctx: &mut RegionCtx<'_, PmEvent>) {
        let now = ctx.now();
        let Some(next) = self.next_hop(pkt.node, pkt.dst, now) else {
            self.stats.dropped_no_route += 1;
            self.tel.emit_at(
                pkt.node,
                now,
                EventKind::DataDrop {
                    reason: DropReason::NoRoute,
                    flow: pkt.flow,
                    seq: pkt.seq,
                },
            );
            return;
        };
        // The transmitting node is always owned here; account its work.
        let i = self
            .own
            .binary_search(&pkt.node)
            .expect("transmitting node is owned by this region");
        self.loads[i].recent += 1;
        let latency = HOP_FLOOR + SimDuration::from_micros(self.rng.below(HOP_JITTER_US + 1));
        let dst_region = self.st.region_of_node[next as usize];
        ctx.send(
            dst_region,
            now + latency,
            PmEvent::Forward(Packet {
                node: next,
                ttl: pkt.ttl - 1,
                ..pkt
            }),
        );
    }

    fn handle_forward(&mut self, pkt: Packet, ctx: &mut RegionCtx<'_, PmEvent>) {
        let now = ctx.now();
        if !self.st.is_up(pkt.node, now) {
            self.stats.dropped_node_down += 1;
            self.tel.emit_at(
                pkt.node,
                now,
                EventKind::DataDrop {
                    reason: DropReason::NodeDown,
                    flow: pkt.flow,
                    seq: pkt.seq,
                },
            );
            return;
        }
        if pkt.node == pkt.dst {
            self.stats.delivered += 1;
            self.stats.delay_sum_ns += now.as_nanos() - pkt.origin_ns;
            self.stats.hops_sum += (TTL_INIT - pkt.ttl) as u64;
            self.tel.emit_at(
                pkt.node,
                now,
                EventKind::DataDeliver {
                    flow: pkt.flow,
                    seq: pkt.seq,
                },
            );
            return;
        }
        if pkt.ttl == 0 {
            self.stats.dropped_expired += 1;
            self.tel.emit_at(
                pkt.node,
                now,
                EventKind::DataDrop {
                    reason: DropReason::Expired,
                    flow: pkt.flow,
                    seq: pkt.seq,
                },
            );
            return;
        }
        self.stats.forwards += 1;
        self.tel.emit_at(
            pkt.node,
            now,
            EventKind::DataForward {
                flow: pkt.flow,
                seq: pkt.seq,
            },
        );
        self.transmit(pkt, ctx);
    }
}

impl RegionWorld for RegionNet {
    type Event = PmEvent;

    fn handle(&mut self, event: PmEvent, ctx: &mut RegionCtx<'_, PmEvent>) {
        match event {
            PmEvent::HelloTick => {
                let now = ctx.now();
                self.hello_seq += 1;
                // EWMA load refresh for owned nodes; digest the busy ones.
                let mut digest: Vec<(u32, u32)> = Vec::new();
                let probing = self.tel.on();
                for (i, &node) in self.own.iter().enumerate() {
                    let nl = &mut self.loads[i];
                    let recent = nl.recent;
                    nl.load = nl.load / 2 + nl.recent;
                    nl.recent = 0;
                    let load = nl.load;
                    if load > 0 {
                        digest.push((node, load));
                    }
                    if probing && self.st.is_up(node, now) {
                        // 1 Hz cross-layer probe, from region-local integer
                        // state only (thread-count invisible): `busy` is the
                        // share of a ~100 pkt/s nominal relay capacity used
                        // this tick, `load` squashes the EWMA into [0, 1].
                        // ParMesh has no interface queue and greedy
                        // forwarding always relays, so those signals are
                        // honest constants.
                        self.tel.emit_at(
                            node,
                            now,
                            EventKind::NodeProbe {
                                queue: 0.0,
                                busy: (recent as f64 / 100.0).min(1.0),
                                load: load as f64 / (load as f64 + 8.0),
                                fwd_p: 1.0,
                            },
                        );
                    }
                }
                if let Some(&first) = self.own.first() {
                    self.tel.emit_at(
                        first,
                        now,
                        EventKind::HelloSend {
                            seq: self.hello_seq,
                        },
                    );
                }
                if !digest.is_empty() {
                    let digest = Arc::new(digest);
                    for r in self.st.adjacent_regions(self.id) {
                        ctx.send(r, now + HOP_FLOOR, PmEvent::Digest(digest.clone()));
                    }
                }
                let next = now + HELLO_INTERVAL;
                if next <= ctx.horizon() {
                    ctx.at(next, PmEvent::HelloTick);
                }
            }
            PmEvent::Digest(loads) => {
                for &(node, load) in loads.iter() {
                    self.remote.insert(node, load);
                }
            }
            PmEvent::Originate { flow } => {
                let now = ctx.now();
                let f = self.st.flows[flow as usize];
                // Schedule the next packet first so a down source keeps
                // its cadence.
                let next = now + self.st.interval;
                if next <= self.st.horizon {
                    ctx.at(next, PmEvent::Originate { flow });
                }
                if !self.st.is_up(f.src, now) {
                    return;
                }
                let seq = self.flow_seq.entry(flow).or_insert(0);
                *seq += 1;
                let seq = *seq;
                self.stats.originated += 1;
                self.tel
                    .emit_at(f.src, now, EventKind::DataOriginate { flow, seq });
                self.transmit(
                    Packet {
                        flow,
                        seq,
                        node: f.src,
                        dst: f.dst,
                        ttl: TTL_INIT,
                        origin_ns: now.as_nanos(),
                    },
                    ctx,
                );
            }
            PmEvent::Forward(pkt) => self.handle_forward(pkt, ctx),
            PmEvent::ChurnDown { node } => {
                let i = self
                    .own
                    .binary_search(&node)
                    .expect("churn events are primed at the owner region");
                self.loads[i] = NodeLoad::default();
                self.tel
                    .emit_at(node, ctx.now(), EventKind::NodeDown { incarnation: 0 });
            }
            PmEvent::ChurnUp { node } => {
                self.tel
                    .emit_at(node, ctx.now(), EventKind::NodeUp { incarnation: 1 });
            }
        }
    }
}

impl CheckpointState for RegionNet {
    fn encode_event(event: &PmEvent, out: &mut ByteWriter) {
        match event {
            PmEvent::HelloTick => out.u8(0),
            PmEvent::Digest(loads) => {
                out.u8(1);
                out.u32(loads.len() as u32);
                for &(node, load) in loads.iter() {
                    out.u32(node);
                    out.u32(load);
                }
            }
            PmEvent::Originate { flow } => {
                out.u8(2);
                out.u32(*flow);
            }
            PmEvent::Forward(p) => {
                out.u8(3);
                out.u32(p.flow);
                out.u32(p.seq);
                out.u32(p.node);
                out.u32(p.dst);
                out.u32(p.ttl);
                out.u64(p.origin_ns);
            }
            PmEvent::ChurnDown { node } => {
                out.u8(4);
                out.u32(*node);
            }
            PmEvent::ChurnUp { node } => {
                out.u8(5);
                out.u32(*node);
            }
        }
    }

    fn decode_event(r: &mut ByteReader<'_>) -> Result<PmEvent, CheckpointError> {
        Ok(match r.u8()? {
            0 => PmEvent::HelloTick,
            1 => {
                let n = r.u32()? as usize;
                let mut loads = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    loads.push((r.u32()?, r.u32()?));
                }
                PmEvent::Digest(Arc::new(loads))
            }
            2 => PmEvent::Originate { flow: r.u32()? },
            3 => PmEvent::Forward(Packet {
                flow: r.u32()?,
                seq: r.u32()?,
                node: r.u32()?,
                dst: r.u32()?,
                ttl: r.u32()?,
                origin_ns: r.u64()?,
            }),
            4 => PmEvent::ChurnDown { node: r.u32()? },
            5 => PmEvent::ChurnUp { node: r.u32()? },
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown ParMesh event tag {other}"
                )))
            }
        })
    }

    fn encode_state(&self, out: &mut ByteWriter) {
        let (s, cached) = self.rng.save_state();
        for word in s {
            out.u64(word);
        }
        match cached {
            Some(bits) => {
                out.u8(1);
                out.u64(bits);
            }
            None => out.u8(0),
        }
        out.u32(self.hello_seq);
        // Owned loads are dense and parallel to the sorted `own` list, so
        // the node ids are implicit; hash maps go in sorted key order — the
        // encoding must be a pure function of logical state, never of map
        // iteration order.
        out.u32(self.loads.len() as u32);
        for nl in &self.loads {
            out.u32(nl.load);
            out.u32(nl.recent);
        }
        let mut remote: Vec<(u32, u32)> = self.remote.iter().map(|(&k, &v)| (k, v)).collect();
        remote.sort_by_key(|&(k, _)| k);
        out.u32(remote.len() as u32);
        for (node, load) in remote {
            out.u32(node);
            out.u32(load);
        }
        let mut flow_seq: Vec<(u32, u32)> = self.flow_seq.iter().map(|(&k, &v)| (k, v)).collect();
        flow_seq.sort_by_key(|&(k, _)| k);
        out.u32(flow_seq.len() as u32);
        for (flow, seq) in flow_seq {
            out.u32(flow);
            out.u32(seq);
        }
        out.u64(self.stats.originated);
        out.u64(self.stats.delivered);
        out.u64(self.stats.dropped_no_route);
        out.u64(self.stats.dropped_expired);
        out.u64(self.stats.dropped_node_down);
        out.u64(self.stats.forwards);
        out.u64(self.stats.delay_sum_ns);
        out.u64(self.stats.hops_sum);
        // Buffered telemetry: the trace accumulated so far, so a resumed
        // run reproduces the full JSONL output from t = 0 byte-for-byte.
        match &self.sink {
            Some(sink) => {
                let events = &sink.lock().unwrap().events;
                out.u32(events.len() as u32);
                for ev in events {
                    ev.encode_binary(out);
                }
            }
            None => out.u32(0),
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64()?;
        }
        let cached = if r.u8()? == 1 { Some(r.u64()?) } else { None };
        self.rng.restore_state(s, cached);
        self.hello_seq = r.u32()?;
        let n_loads = r.u32()? as usize;
        if n_loads != self.own.len() {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint carries {n_loads} owned loads, region has {}",
                self.own.len()
            )));
        }
        for nl in self.loads.iter_mut() {
            nl.load = r.u32()?;
            nl.recent = r.u32()?;
        }
        self.remote.clear();
        for _ in 0..r.u32()? {
            let node = r.u32()?;
            let load = r.u32()?;
            self.remote.insert(node, load);
        }
        self.flow_seq.clear();
        for _ in 0..r.u32()? {
            let flow = r.u32()?;
            let seq = r.u32()?;
            self.flow_seq.insert(flow, seq);
        }
        self.stats = RegionStats {
            originated: r.u64()?,
            delivered: r.u64()?,
            dropped_no_route: r.u64()?,
            dropped_expired: r.u64()?,
            dropped_node_down: r.u64()?,
            forwards: r.u64()?,
            delay_sum_ns: r.u64()?,
            hops_sum: r.u64()?,
        };
        let n_events = r.u32()? as usize;
        match &self.sink {
            Some(sink) => {
                let mut events = Vec::with_capacity(n_events);
                for _ in 0..n_events {
                    events.push(TelemetryEvent::decode_binary(r)?);
                }
                sink.lock().unwrap().events = events;
            }
            None if n_events > 0 => {
                return Err(CheckpointError::Corrupt(
                    "checkpoint carries telemetry but this run has it off".into(),
                ));
            }
            None => {}
        }
        Ok(())
    }
}

/// Resolve the region grid for a `side` × `side` field: near-square, sides
/// at least [`MIN_REGION_SIDE_M`], honouring an explicit request when
/// geometry allows. With no request the tuner targets one region per ~384
/// nodes with **no upper cap** — a million-node field resolves to a
/// 51 × 51 grid (2601 regions), far past the 256 regions older revisions
/// silently clamped to. Deliberately *not* a function of the worker thread
/// count: the grid is part of the scenario and must stay identical when a
/// run (or a checkpoint resume) changes its thread count.
pub fn region_grid(side: f64, nodes: usize, requested: Option<usize>) -> (usize, usize) {
    let max_axis = ((side / MIN_REGION_SIDE_M).floor() as usize).max(1);
    let target = requested.unwrap_or_else(|| (nodes / 384).max(1)).max(1);
    let mut rx = (target as f64).sqrt().floor() as usize;
    rx = rx.clamp(1, max_axis);
    let mut ry = (target / rx).max(1);
    ry = ry.clamp(1, max_axis);
    (rx, ry)
}

/// Build the shared world tables: placement and drift, churn schedule,
/// spatial hash over homes, region ownership and flows — all pure
/// functions of the configuration.
fn build_statics(cfg: &ParMesh) -> Statics {
    let n = cfg.nodes;
    let cols = (n as f64).sqrt().ceil() as usize;
    let side = cols as f64 * PITCH_M;
    let horizon = SimTime::ZERO + cfg.duration;

    // --- placement + mobility parameters (master RNG, build thread) ---
    // Jittered grid at the scale presets' pitch: same density as the
    // classic topology, but no geographic voids for greedy forwarding to
    // fall into.
    let mut params = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = SimRng::derive(cfg.seed, DOMAIN_PLACE, i as u64);
        let gx = (i % cols) as f64 * PITCH_M + PITCH_M / 2.0;
        let gy = (i / cols) as f64 * PITCH_M + PITCH_M / 2.0;
        let home = (
            (gx + rng.range_f64(-40.0, 40.0)).clamp(0.0, side),
            (gy + rng.range_f64(-40.0, 40.0)).clamp(0.0, side),
        );
        let mut drift = SimRng::derive(cfg.seed, DOMAIN_DRIFT, i as u64);
        let (amp, omega, phase) = if cfg.mobility {
            (
                drift.range_f64(5.0, DRIFT_AMP_M),
                drift.range_f64(0.05, 0.3),
                drift.range_f64(0.0, std::f64::consts::TAU),
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        params.push(NodeParams {
            home,
            amp,
            omega,
            phase,
        });
    }
    // `next_hop` bounds its scan by home distance, which is exact only
    // while no node drifts further than DRIFT_AMP_M from home.
    assert!(params.iter().all(|p| p.amp <= DRIFT_AMP_M));

    // --- churn schedule (pure function of the seed) ---
    let dur_ns = cfg.duration.as_nanos();
    let mut churn: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    if cfg.churn {
        for (i, intervals) in churn.iter_mut().enumerate() {
            let mut rng = SimRng::derive(cfg.seed, DOMAIN_CHURN, i as u64);
            if rng.chance(0.04) {
                let start = (rng.range_f64(0.15, 0.7) * dur_ns as f64) as u64;
                let len = (rng.range_f64(0.05, 0.2) * dur_ns as f64) as u64;
                intervals.push((start, (start + len).min(dur_ns)));
            }
        }
    }

    // --- spatial hash over homes ---
    let ncx = ((side / CELL_M).ceil() as usize).max(1);
    let ncy = ncx;
    let cells = hash_homes(&params, ncx, ncy);

    // --- region grid + ownership ---
    let (rx, ry) = region_grid(side, n, cfg.regions);
    let regions = rx * ry;
    if let Some(req) = cfg.regions {
        if regions != req {
            eprintln!(
                "wmn: --regions {req} cannot be honoured on a {side:.0} m field \
                 (region sides must stay >= {MIN_REGION_SIDE_M:.0} m); \
                 granted {rx}x{ry} = {regions} regions"
            );
        }
    }
    let mut region_of_node = Vec::with_capacity(n);
    {
        let probe = Statics {
            params: Vec::new(),
            churn_idx: vec![0],
            churn_iv: Vec::new(),
            cell_idx: vec![0],
            cell_nodes: Vec::new(),
            ncx,
            ncy,
            side,
            rx,
            ry,
            region_of_node: Vec::new(),
            flows: Vec::new(),
            interval: cfg.interval,
            horizon,
        };
        for p in &params {
            region_of_node.push(probe.region_at(p.home.0, p.home.1));
        }
    }

    // --- flows: local destinations a few hops away ---
    let mut flow_rng = SimRng::derive(cfg.seed, DOMAIN_FLOWS, 0);
    let nearest_to = |x: f64, y: f64, exclude: u32| -> Option<u32> {
        let (cx, cy) = cell_of(x, y, ncx, ncy);
        let mut best: Option<(f64, u32)> = None;
        for ring in 0..ncx.max(ncy) {
            let r = ring as i64;
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx.abs() != r && dy.abs() != r {
                        continue; // ring boundary only
                    }
                    let nx = cx as i64 + dx;
                    let ny = cy as i64 + dy;
                    if nx < 0 || ny < 0 || nx >= ncx as i64 || ny >= ncy as i64 {
                        continue;
                    }
                    for &v in &cells[ny as usize * ncx + nx as usize] {
                        if v == exclude {
                            continue;
                        }
                        let d = dist(params[v as usize].home, (x, y));
                        let better = match best {
                            None => true,
                            Some((bd, bv)) => d < bd || (d == bd && v < bv),
                        };
                        if better {
                            best = Some((d, v));
                        }
                    }
                }
            }
            // One extra ring after the first hit guarantees the true
            // nearest (a closer node can live one ring out at most).
            if best.is_some() && ring > 0 {
                break;
            }
        }
        best.map(|(_, v)| v)
    };
    let mut flows = Vec::with_capacity(cfg.flows);
    for _ in 0..cfg.flows {
        let src = flow_rng.below(n as u64) as u32;
        let angle = flow_rng.range_f64(0.0, std::f64::consts::TAU);
        let reach = flow_rng.range_f64(500.0, 2_500.0);
        let tx = (params[src as usize].home.0 + reach * angle.cos()).clamp(0.0, side);
        let ty = (params[src as usize].home.1 + reach * angle.sin()).clamp(0.0, side);
        let Some(dst) = nearest_to(tx, ty, src) else {
            continue;
        };
        let start = SimTime::from_secs_f64(flow_rng.range_f64(0.5, 1.5));
        flows.push(Flow { src, dst, start });
    }

    let (churn_idx, churn_iv) = flatten_csr(&churn);
    let (cell_idx, cell_nodes) = flatten_csr(&cells);
    Statics {
        params,
        churn_idx,
        churn_iv,
        cell_idx,
        cell_nodes,
        ncx,
        ncy,
        side,
        rx,
        ry,
        region_of_node,
        flows,
        interval: cfg.interval,
        horizon,
    }
}

fn run_parmesh(cfg: &ParMesh) -> Result<ParMeshOutcome, CheckpointError> {
    assert!(
        !(cfg.trace_hash && cfg.supervised()),
        "trace_hash folds events away as they are emitted; checkpoints need \
         the buffered trace, so the two are incompatible"
    );
    let st = Arc::new(build_statics(cfg));
    let n = cfg.nodes;
    let regions = st.rx * st.ry;
    let horizon = st.horizon;
    let dur_ns = cfg.duration.as_nanos();

    // --- per-region worlds, sinks, RNG streams ---
    let mut own: Vec<Vec<u32>> = vec![Vec::new(); regions];
    for (i, &r) in st.region_of_node.iter().enumerate() {
        own[r as usize].push(i as u32);
    }
    let mut sinks: Vec<Option<Arc<Mutex<MemorySink>>>> = Vec::with_capacity(regions);
    let mut hash_sinks: Vec<Arc<Mutex<HashSink>>> = Vec::new();
    let worlds: Vec<RegionNet> = (0..regions)
        .map(|r| {
            let (tel, sink) = if cfg.telemetry {
                let inner = Arc::new(Mutex::new(MemorySink::default()));
                sinks.push(Some(inner.clone()));
                (Tel::new(inner.clone() as SharedSink, 0), Some(inner))
            } else if cfg.trace_hash {
                let inner = Arc::new(Mutex::new(HashSink::new()));
                hash_sinks.push(inner.clone());
                sinks.push(None);
                (Tel::new(inner as SharedSink, 0), None)
            } else {
                sinks.push(None);
                (Tel::off(), None)
            };
            RegionNet {
                id: r as RegionId,
                st: st.clone(),
                loads: vec![NodeLoad::default(); own[r].len()],
                own: own[r].clone(),
                remote: HashMap::new(),
                rng: SimRng::derive(cfg.seed, DOMAIN_REGION, r as u64),
                tel,
                sink,
                hello_seq: 0,
                flow_seq: HashMap::new(),
                stats: RegionStats::default(),
            }
        })
        .collect();

    // Ring-1 regions interact with HOP_FLOOR lookahead; farther regions
    // only transitively (the engine's closure derives the multi-hop
    // bounds). Geometry (MIN_REGION_SIDE_M > max hop) guarantees no direct
    // send ever spans more than one ring.
    let lookahead = if regions == 1 {
        Lookahead::uniform(1, SimDuration::ZERO)
    } else {
        let st2 = st.clone();
        Lookahead::from_fn(regions, move |a, b| {
            let (ax, ay) = st2.region_coords(a);
            let (bx, by) = st2.region_coords(b);
            let cheb = ax.abs_diff(bx).max(ay.abs_diff(by));
            if cheb <= 1 {
                HOP_FLOOR
            } else {
                wmn_sim::shard::NEVER
            }
        })
    };

    // The event budget is a runaway guard, not a scenario knob; scale it
    // with the world so million-node runs don't trip it.
    let budget = 500_000_000u64.max(n as u64 * 1_000);
    let mut engine = ShardedEngine::new(worlds, lookahead, horizon)
        .with_event_budget(budget)
        .with_stealing(cfg.steal);

    // Pre-size region queues from the event plan — the pending set holds
    // one HELLO timer, one Originate timer per sourced flow, the scheduled
    // churn transitions, plus in-flight packets (a few per flow routed
    // through); reserving up front keeps the steady state reallocation-free.
    let mut plan: Vec<usize> = own.iter().map(|o| 1 + o.len() / 16).collect();
    for flow in &st.flows {
        plan[st.region_of_node[flow.src as usize] as usize] += 4;
    }
    for (i, &r) in st.region_of_node.iter().enumerate() {
        plan[r as usize] += st.churn_of(i as u32).len() * 2;
    }
    for (r, extra) in plan.into_iter().enumerate() {
        engine.reserve_region(r as RegionId, extra);
    }

    // --- prime: hellos, flows, churn transitions ---
    for (r, owned) in own.iter().enumerate().take(regions) {
        if !owned.is_empty() {
            engine.prime(
                r as RegionId,
                SimTime::ZERO + HELLO_INTERVAL,
                PmEvent::HelloTick,
            );
        }
    }
    for (f, flow) in st.flows.iter().enumerate() {
        let r = st.region_of_node[flow.src as usize];
        engine.prime(r, flow.start, PmEvent::Originate { flow: f as u32 });
    }
    for i in 0..n {
        let r = st.region_of_node[i];
        for &(down, up) in st.churn_of(i as u32) {
            engine.prime(r, SimTime(down), PmEvent::ChurnDown { node: i as u32 });
            if up < dur_ns {
                engine.prime(r, SimTime(up), PmEvent::ChurnUp { node: i as u32 });
            }
        }
    }

    // Robustness features configure the supervisor; without any, the
    // default config makes the same engine call a plain run.
    let scfg = if cfg.supervised() {
        // Resume from the newest checkpoint if asked.
        let scenario = cfg.scenario_fingerprint();
        if cfg.resume {
            let dir = cfg.checkpoint_dir.as_ref().ok_or_else(|| {
                CheckpointError::NotFound("--resume needs a checkpoint dir".into())
            })?;
            let newest = checkpoint::list_dir(dir)
                .unwrap_or_default()
                .into_iter()
                .filter(|(epoch, _)| epoch.is_some())
                .max_by_key(|&(epoch, _)| epoch);
            if let Some((_, path)) = newest {
                let bytes = checkpoint::read_file(&path)?;
                engine.restore(&bytes, scenario)?;
            }
            // No checkpoints yet: start fresh (first leg of a resumable run).
        }
        SupervisorConfig {
            scenario,
            checkpoint_dir: cfg.checkpoint_dir.clone(),
            checkpoint_every: cfg.checkpoint_every.or_else(|| {
                cfg.checkpoint_dir
                    .is_some()
                    .then(|| SimDuration::from_secs(1))
            }),
            crash_plan: cfg.crash_plan.clone(),
            interrupt: cfg.interrupt.clone(),
        }
    } else {
        SupervisorConfig::default()
    };
    let mut profiler = cfg.profile.then(|| ShardProfiler::new(cfg.threads));
    let probe = profiler.as_mut().map(|p| p as &mut dyn ShardProbe);
    let (report, worlds, sup) = engine.run_supervised(cfg.threads, probe, &scfg)?;
    let profile = profiler.map(ShardProfiler::finish);
    let supervisor = cfg.supervised().then_some(sup);

    // --- aggregate ---
    let mut agg = ParMeshReport {
        nodes: n,
        regions,
        events: report.events_processed,
        epochs: report.epochs,
        cross_region: report.cross_region,
        end_time: report.end_time,
        ..ParMeshReport::default()
    };
    let mut delay_sum = 0u64;
    let mut hops_sum = 0u64;
    for w in &worlds {
        agg.originated += w.stats.originated;
        agg.delivered += w.stats.delivered;
        agg.dropped_no_route += w.stats.dropped_no_route;
        agg.dropped_expired += w.stats.dropped_expired;
        agg.dropped_node_down += w.stats.dropped_node_down;
        agg.forwards += w.stats.forwards;
        delay_sum += w.stats.delay_sum_ns;
        hops_sum += w.stats.hops_sum;
    }
    if agg.delivered > 0 {
        agg.mean_delay_s = delay_sum as f64 / 1e9 / agg.delivered as f64;
        agg.mean_hops = hops_sum as f64 / agg.delivered as f64;
    }

    let (trace, trace_fp) = if cfg.telemetry {
        let per_region: Vec<Vec<TelemetryEvent>> = sinks
            .into_iter()
            .map(|s| match s {
                Some(inner) => std::mem::take(&mut inner.lock().unwrap().events),
                None => Vec::new(),
            })
            .collect();
        // With both telemetry and trace_hash on, fold the buffered traces
        // through the same per-region hashing a hash-only run streams, so
        // the two modes cross-validate each other.
        let fp = cfg.trace_hash.then(|| {
            let fps: Vec<(u64, u64)> = per_region
                .iter()
                .map(|evs| {
                    let mut h = HashSink::new();
                    for ev in evs {
                        h.record(ev);
                    }
                    h.fingerprint()
                })
                .collect();
            combine_region_fps(&fps)
        });
        (merge_region_traces(per_region), fp)
    } else if cfg.trace_hash {
        let fps: Vec<(u64, u64)> = hash_sinks
            .iter()
            .map(|s| s.lock().unwrap().fingerprint())
            .collect();
        (Vec::new(), Some(combine_region_fps(&fps)))
    } else {
        (Vec::new(), None)
    };

    // Rebuild the 1 Hz cross-layer probe feed from the merged trace; the
    // merge order makes the series independent of region/thread layout.
    let mut probes = ProbeSeries::new(HELLO_INTERVAL);
    for ev in &trace {
        if let EventKind::NodeProbe {
            queue,
            busy,
            load,
            fwd_p,
        } = ev.kind
        {
            probes.record(SimTime(ev.t_ns), queue, busy, load, fwd_p);
        }
    }

    Ok(ParMeshOutcome {
        report: agg,
        trace,
        trace_fp,
        profile,
        probes,
        supervisor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(threads: usize) -> ParMeshOutcome {
        ParMesh::new(400)
            .seed(7)
            .flows(40)
            .regions(9) // force a real grid; 400 nodes would default to 1
            .duration(SimDuration::from_secs(5))
            .threads(threads)
            .telemetry(true)
            .run()
    }

    #[test]
    fn delivers_most_packets() {
        let out = small(1);
        assert!(out.report.originated > 500, "{:?}", out.report);
        assert!(
            out.report.pdr() > 0.5,
            "pdr {} report {:?}",
            out.report.pdr(),
            out.report
        );
        assert!(out.report.mean_hops >= 1.0);
        assert!(out.report.regions >= 1);
    }

    #[test]
    fn thread_count_is_invisible_in_results_and_trace() {
        let base = small(1);
        for threads in [2, 8] {
            let out = small(threads);
            assert_eq!(base.report.originated, out.report.originated);
            assert_eq!(base.report.delivered, out.report.delivered);
            assert_eq!(base.report.forwards, out.report.forwards);
            assert_eq!(base.report.events, out.report.events);
            assert_eq!(base.report.epochs, out.report.epochs);
            assert_eq!(base.trace.len(), out.trace.len());
            for (i, (a, b)) in base.trace.iter().zip(&out.trace).enumerate() {
                assert_eq!(a, b, "trace diverges at event {i} with {threads} threads");
            }
        }
    }

    #[test]
    fn seed_changes_results() {
        let a = ParMesh::new(300)
            .seed(1)
            .duration(SimDuration::from_secs(3))
            .run();
        let b = ParMesh::new(300)
            .seed(2)
            .duration(SimDuration::from_secs(3))
            .run();
        assert_ne!(
            (a.report.delivered, a.report.forwards),
            (b.report.delivered, b.report.forwards)
        );
    }

    #[test]
    fn churn_drops_packets_somewhere() {
        // With churn on, a large enough scenario sees node-down drops or at
        // least some crashed nodes in the schedule.
        let out = ParMesh::new(800)
            .seed(3)
            .flows(200)
            .duration(SimDuration::from_secs(6))
            .telemetry(true)
            .run();
        let downs = out
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeDown { .. }))
            .count();
        assert!(downs > 0, "churn schedule produced no crashes");
    }

    #[test]
    fn trace_is_time_ordered() {
        let out = small(2);
        assert!(!out.trace.is_empty());
        assert!(out.trace.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn probes_fire_at_one_hertz() {
        let out = small(2);
        assert!(!out.probes.is_empty());
        let n_probes = out
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeProbe { .. }))
            .count();
        // 400 nodes × ~4 in-horizon ticks, minus nodes down during churn.
        assert!(n_probes > 1000, "only {n_probes} probe events");
        // Probe events land exactly on HELLO ticks.
        assert!(out
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeProbe { .. }))
            .all(|e| e.t_ns % HELLO_INTERVAL.as_nanos() == 0));
    }

    #[test]
    fn profiling_changes_nothing_and_fingerprint_is_thread_invariant() {
        let profiled = |threads: usize| {
            ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .telemetry(true)
                .profile(true)
                .run()
        };
        let base = small(2);
        let a = profiled(2);
        assert!(base.profile.is_none());
        assert_eq!(base.report.events, a.report.events);
        assert_eq!(base.trace, a.trace);
        let pa = a.profile.as_ref().expect("profile present");
        assert_eq!(pa.events, a.report.events);
        assert_eq!(pa.epochs, a.report.epochs);
        assert_eq!(pa.regions as usize, a.report.regions);
        let b = profiled(8);
        let pb = b.profile.as_ref().expect("profile present");
        assert_eq!(pa.sim_fingerprint(), pb.sim_fingerprint());
    }

    #[test]
    fn injected_crashes_recover_to_identical_results() {
        let base = small(2);
        for threads in [1, 4] {
            let out = ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .telemetry(true)
                .crash_plan(CrashPlan {
                    scripted: Vec::new(),
                    stochastic: Some(wmn_sim::shard::StochasticCrash {
                        rate: 0.002,
                        seed: 5,
                        max: 3,
                    }),
                })
                .run();
            let sup = out.supervisor.as_ref().expect("supervised run");
            // Crash decisions are coordinator-side and consumed, so the
            // number of recoveries is a pure function of the scenario.
            assert!(sup.recoveries >= 1, "stochastic plan never fired");
            assert_eq!(sup.recoveries, 3, "{threads} threads");
            assert!(!sup.interrupted);
            assert_eq!(base.report.delivered, out.report.delivered);
            assert_eq!(base.report.events, out.report.events);
            assert_eq!(base.trace, out.trace, "{threads} threads");
        }
    }

    #[test]
    fn checkpoint_resume_reproduces_uninterrupted_run() {
        let dir = std::env::temp_dir().join(format!("wmn_parmesh_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = |threads: usize| {
            ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .telemetry(true)
        };
        let base = small(1);

        // Leg 1: run to completion while writing checkpoints.
        let full = scenario(2)
            .checkpoint_dir(&dir)
            .checkpoint_every(SimDuration::from_secs(1))
            .run();
        let sup = full.supervisor.as_ref().expect("supervised");
        assert!(sup.checkpoints_written >= 2, "{sup:?}");
        assert_eq!(
            base.trace, full.trace,
            "checkpointing must not alter results"
        );
        assert_eq!(base.report.delivered, full.report.delivered);

        // Leg 2: resume from the newest on-disk checkpoint at a different
        // thread count; the finished run must be bit-identical.
        let resumed = scenario(4)
            .checkpoint_dir(&dir)
            .checkpoint_every(SimDuration::from_secs(1))
            .resume(true)
            .run();
        let sup = resumed.supervisor.as_ref().expect("supervised");
        assert!(sup.resumed_from_epoch.is_some(), "{sup:?}");
        assert_eq!(base.trace, resumed.trace);
        assert_eq!(base.report.delivered, resumed.report.delivered);
        assert_eq!(base.report.events, resumed.report.events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_corrupt_checkpoint_is_a_structured_error() {
        let dir = std::env::temp_dir().join(format!("wmn_parmesh_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ckpt_epoch_5.wmnckpt"), b"not a checkpoint").unwrap();
        let err = ParMesh::new(100)
            .duration(SimDuration::from_secs(1))
            .checkpoint_dir(&dir)
            .resume(true)
            .try_run()
            .expect_err("corrupt checkpoint must refuse");
        assert!(
            matches!(err, CheckpointError::Corrupt(_)),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn region_grid_respects_geometry() {
        // 400 nodes: side = 3.6 km; minimum side 560 m allows at most 6
        // regions per axis even when far more are requested.
        let side = (400f64).sqrt() * PITCH_M;
        let (rx, ry) = region_grid(side, 400, Some(10_000));
        assert!(rx as f64 * MIN_REGION_SIDE_M <= side);
        assert!(ry as f64 * MIN_REGION_SIDE_M <= side);
    }

    #[test]
    fn region_grid_auto_tunes_past_the_old_256_cap() {
        // A million-node field used to be silently clamped to 256 regions;
        // the auto-tuner now grants the density-derived grid.
        let side = 1000.0 * PITCH_M;
        let (rx, ry) = region_grid(side, 1_000_000, None);
        assert_eq!((rx, ry), (51, 51));
        assert!(rx * ry > 256);
        // The grids behind the committed fig12/fig13 CSVs must not move.
        assert_eq!(
            region_grid((10_000f64).sqrt() * PITCH_M, 10_000, None),
            (5, 5)
        );
        assert_eq!(region_grid(317.0 * PITCH_M, 100_000, None), (16, 16));
    }

    #[test]
    fn steal_setting_is_invisible_in_results_and_trace() {
        let run = |threads: usize, steal: bool| {
            ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .steal(steal)
                .telemetry(true)
                .run()
        };
        let base = run(1, false);
        for (threads, steal) in [(1, true), (2, true), (8, true), (8, false)] {
            let out = run(threads, steal);
            assert_eq!(base.report.delivered, out.report.delivered);
            assert_eq!(base.report.events, out.report.events);
            assert_eq!(
                base.trace, out.trace,
                "trace diverges at {threads} threads, steal={steal}"
            );
        }
    }

    #[test]
    fn trace_hash_matches_full_telemetry_and_is_schedule_invariant() {
        let run = |threads: usize, steal: bool, telemetry: bool| {
            ParMesh::new(400)
                .seed(7)
                .flows(40)
                .regions(9)
                .duration(SimDuration::from_secs(5))
                .threads(threads)
                .steal(steal)
                .telemetry(telemetry)
                .trace_hash(true)
                .run()
        };
        // Hash-only run vs full-telemetry run: same per-region streams,
        // same fingerprint — and a real trace only in the latter.
        let hashed = run(1, true, false);
        let full = run(1, true, true);
        assert!(hashed.trace.is_empty());
        assert!(!full.trace.is_empty());
        let fp = hashed.trace_fp.expect("fingerprint present");
        assert!(fp.0 > 0, "fingerprint counted no events");
        assert_eq!(Some(fp), full.trace_fp);
        // Threads and steal schedule are invisible to the fingerprint.
        for (threads, steal) in [(2, true), (8, true), (4, false)] {
            assert_eq!(Some(fp), run(threads, steal, false).trace_fp);
        }
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn trace_hash_refuses_checkpointing() {
        let dir = std::env::temp_dir().join("wmn_parmesh_hash_ckpt");
        let _ = ParMesh::new(100)
            .duration(SimDuration::from_secs(1))
            .trace_hash(true)
            .checkpoint_dir(&dir)
            .run();
    }

    /// `next_hop`'s rule with no cells and no bounds: every node is a
    /// candidate, in id order.
    fn next_hop_exhaustive(net: &RegionNet, u: u32, dst: u32, now: SimTime) -> Option<u32> {
        let st = &net.st;
        let pu = st.pos(u, now);
        let pdst = st.pos(dst, now);
        let d_u = dist(pu, pdst);
        if d_u <= RX_RANGE_M && st.is_up(dst, now) {
            return Some(dst);
        }
        let mut best: Option<(f64, u32)> = None;
        for v in 0..st.params.len() as u32 {
            if v == u || !st.is_up(v, now) {
                continue;
            }
            let pv = st.pos(v, now);
            if dist(pu, pv) > RX_RANGE_M {
                continue;
            }
            let progress = d_u - dist(pv, pdst);
            if progress <= 1.0 {
                continue;
            }
            let score = progress / (1.0 + net.load_of(v) as f64);
            let better = match best {
                None => true,
                Some((bs, bv)) => score > bs || (score == bs && v < bv),
            };
            if better {
                best = Some((score, v));
            }
        }
        best.map(|(_, v)| v)
    }

    /// A world whose homes are pushed onto the awkward spots — field
    /// corners and edges, exact cell boundaries — then re-hashed, viewed
    /// from a region that owns no node and holds a small random digested
    /// load for every node. Each node `v` with `v % 9 == 4` has a twin
    /// `v + 1` at the same home with the same load, so without mobility
    /// their scores tie exactly.
    fn awkward_world(cfg: &ParMesh) -> RegionNet {
        let mut st = build_statics(cfg);
        let side = st.side;
        let snap = |x: f64| ((x / CELL_M).round() * CELL_M).clamp(0.0, side);
        let mut prev = (0.0, 0.0);
        for (i, p) in st.params.iter_mut().enumerate() {
            let (x, y) = p.home;
            p.home = match i % 9 {
                0 => (snap(x), snap(y)),
                1 => (snap(x), y),
                2 => (x, snap(y)),
                3 if x < 2.0 * PITCH_M => (0.0, y),
                4 if y > side - 2.0 * PITCH_M => (x, side),
                5 => prev,
                _ => (x, y),
            };
            prev = p.home;
        }
        for (i, corner) in [(0.0, 0.0), (side, 0.0), (0.0, side), (side, side)]
            .into_iter()
            .enumerate()
        {
            st.params[i * 9 + 6].home = corner;
        }
        (st.cell_idx, st.cell_nodes) = flatten_csr(&hash_homes(&st.params, st.ncx, st.ncy));
        let mut rng = SimRng::new(cfg.seed);
        let mut remote = HashMap::new();
        let mut load = 0;
        for v in 0..st.params.len() as u32 {
            if v % 9 != 5 {
                load = rng.below(3) as u32;
            }
            remote.insert(v, load);
        }
        RegionNet {
            id: 0,
            st: Arc::new(st),
            own: Vec::new(),
            loads: Vec::new(),
            remote,
            rng,
            tel: Tel::off(),
            sink: None,
            hello_seq: 0,
            flow_seq: HashMap::new(),
            stats: RegionStats::default(),
        }
    }

    #[test]
    fn bounded_next_hop_matches_exhaustive_scan() {
        // 625 nodes make the field exactly 18 cells wide (homes on the far
        // edge clamp into the last cell); 1600 leave a partial last cell.
        for nodes in [625, 1600] {
            for (mobility, churn) in [(true, true), (false, false), (true, false)] {
                let cfg = ParMesh::new(nodes)
                    .seed(nodes as u64)
                    .duration(SimDuration::from_secs(20))
                    .mobility(mobility)
                    .churn(churn);
                let net = awkward_world(&cfg);
                let st = &net.st;
                let n = st.params.len() as u32;
                let mut rng = SimRng::new(7);
                let (mut relays, mut ties, mut none) = (0, 0, 0);
                let (mut outside, mut down) = (0, 0);
                for t_ms in [0, 3_100, 5_000, 7_770, 11_000, 14_200, 19_990] {
                    let now = SimTime::from_millis(t_ms);
                    for u in 0..n {
                        let (x, y) = st.pos(u, now);
                        if x < 0.0 || y < 0.0 || x > st.side || y > st.side {
                            outside += 1;
                        }
                        if !st.is_up(u, now) {
                            down += 1;
                        }
                        // Nearby destinations (a few hops) and far ones.
                        for dst in [
                            (u + 1 + rng.below(60) as u32) % n,
                            rng.below(n as u64) as u32,
                        ] {
                            if dst == u {
                                continue;
                            }
                            let want = next_hop_exhaustive(&net, u, dst, now);
                            assert_eq!(
                                net.next_hop(u, dst, now),
                                want,
                                "nodes {nodes} mobility {mobility} churn {churn} \
                                 u {u} dst {dst} t {t_ms} ms"
                            );
                            match want {
                                None => none += 1,
                                Some(v) if v != dst => {
                                    relays += 1;
                                    let twin_up = v % 9 == 4 && v + 1 != u && st.is_up(v + 1, now);
                                    ties += usize::from(twin_up && !mobility);
                                }
                                _ => {}
                            }
                        }
                    }
                }
                assert!(relays > 1_000 && none > 0, "relays {relays} none {none}");
                assert_eq!(ties > 0, !mobility, "exact ties won by the lower id");
                assert_eq!(outside > 0, mobility, "nodes drifting off the field");
                assert_eq!(down > 0, churn, "nodes down");
            }
        }
    }
}
