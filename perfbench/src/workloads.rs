//! The three workloads. Each is a closed loop: the next run or job starts
//! only when a worker is free, and none uses more than two threads.
//!
//! An untraced run (`trace = false`) repeats the workload until the time
//! is up and reports the end-to-end metrics. A traced run alternates an
//! untraced repeat with a traced one: the per-layer numbers come from the
//! traced repeats, and `trace.overhead_frac` compares the run phases of
//! the two.

use crate::report::{digest, guarded, median, percentile, Outcome};
use crate::stack::{self, Scenario, Split, KIND_METRICS};
use cnlr::mac::MacStats;
use cnlr::metrics::run_jobs;
use cnlr::routing::RoutingStats;
use cnlr::sim::SimDuration;
use cnlr::{CnlrConfig, ParMesh, ParMeshOutcome, RunResults, Scheme, VapConfig};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 3] = ["seq_static_1k", "sweep_mobile_churn", "parmesh_10k_t2"];

/// The seed whose outputs are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Outputs fingerprints ([`crate::report::Ledger::fingerprint`]) of the full-size
/// workloads at [`DEFAULT_SEED`]. A library change that alters simulated
/// outputs must update these on purpose.
const PINNED: [(&str, u64); 3] = [
    ("seq_static_1k", 0xc3d7_e265_de85_784a),
    ("sweep_mobile_churn", 0x0670_475a_aecc_5b2e),
    ("parmesh_10k_t2", 0x84c7_db3a_2948_4b33),
];

/// Workers for the sweep pool and threads for ParMesh: the 2-core host the
/// workloads were sized on.
const THREADS: usize = 2;

/// Scenario constructions timed per repeat, for a steadier `setup_s`.
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// Each workload shrunk to a fraction of a second, for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Overrides the pinned fingerprint (tests use it to see a wrong pin
    /// fail the run).
    pub pin: Option<u64>,
}

impl Plan {
    fn pin(&self, workload: &str) -> Option<u64> {
        if self.pin.is_some() {
            return self.pin;
        }
        let pinned = self.size == Size::Full && self.seed == DEFAULT_SEED;
        PINNED
            .iter()
            .find(|(n, _)| *n == workload)
            .map(|(_, d)| *d)
            .filter(|_| pinned)
    }
}

/// Run workload `name` under `plan`.
pub fn run(name: &str, plan: &Plan) -> Result<Outcome, String> {
    let mut out = match name {
        "seq_static_1k" => seq_static(plan),
        "sweep_mobile_churn" => sweep(plan),
        "parmesh_10k_t2" => parmesh(plan),
        other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    };
    match out.ledger.fingerprint() {
        Some(fp) => eprintln!(
            "[perfbench] {name} seed {}: outputs fingerprint {fp:016x}",
            plan.seed
        ),
        None => eprintln!("[perfbench] {name} seed {}: no outputs", plan.seed),
    }
    if let Some(pin) = plan.pin(name) {
        out.ledger.check_pin(pin);
    }
    if plan.trace {
        out.set("failed_frac", out.ledger.failed_frac());
    } else {
        match peak_rss_mib() {
            Some(mib) => out.set("peak_rss_mib", mib),
            None => out
                .ledger
                .fail("peak RSS unavailable: no VmHWM in /proc/self/status"),
        }
    }
    Ok(out)
}

/// Repeat `body` for `seconds`: at least once, and again only while the
/// last repeat would still fit in the time left.
fn repeat_for(seconds: f64, mut body: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        body();
        if t0.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
}

/// This process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn outputs_digest(r: &RunResults) -> u64 {
    digest(&stack::outputs(r))
}

/// Traced minus untraced, over untraced: medians of the run phases.
fn overhead(traced: &[f64], plain: &[f64]) -> f64 {
    let base = median(plain);
    if base > 0.0 {
        median(traced) / base - 1.0
    } else {
        0.0
    }
}

/// Sequential-stack layer counts summed over one or more runs.
#[derive(Default)]
struct Counts {
    events: u64,
    tx_started: u64,
    link_budgets: u64,
    pathloss_evals: u64,
    link_cache_hits: u64,
    collisions: u64,
    mac: MacStats,
    routing: RoutingStats,
}

impl Counts {
    fn add(&mut self, r: &RunResults) {
        self.events += r.events;
        self.tx_started += r.medium.tx_started;
        self.link_budgets += r.medium.link_budgets;
        self.pathloss_evals += r.medium.pathloss_evals;
        self.link_cache_hits += r.medium.link_cache_hits;
        self.collisions += r.medium.collisions;
        self.mac.accumulate(&r.mac);
        self.routing.accumulate(&r.routing);
    }

    fn report(&self, out: &mut Outcome) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let rt = &self.routing;
        let first_copies = rt.rreq_received.saturating_sub(rt.rreq_duplicates);
        let finished = rt.discoveries_succeeded + rt.discoveries_failed;
        out.set("sim.events", self.events as f64);
        out.set("medium.tx_started", self.tx_started as f64);
        out.set("medium.link_budgets", self.link_budgets as f64);
        out.set("medium.pathloss_evals", self.pathloss_evals as f64);
        out.set(
            "medium.cache_hit_ratio",
            ratio(self.link_cache_hits, self.tx_started),
        );
        out.set("medium.collisions", self.collisions as f64);
        out.set("mac.data_tx_attempts", self.mac.data_tx_attempts as f64);
        out.set("mac.retries", self.mac.retries as f64);
        out.set("mac.backoffs", self.mac.backoffs as f64);
        out.set(
            "routing.rreq_tx",
            (rt.rreq_originated + rt.rreq_forwarded) as f64,
        );
        out.set("routing.control_tx", rt.control_tx() as f64);
        out.set(
            "routing.saved_rebroadcast",
            if first_copies == 0 {
                0.0
            } else {
                1.0 - ratio(rt.rreq_forwarded, first_copies).min(1.0)
            },
        );
        out.set(
            "routing.discovery_success",
            if finished == 0 {
                1.0
            } else {
                ratio(rt.discoveries_succeeded, finished)
            },
        );
    }
}

/// Push one traced repeat's event-kind split; `run` is the engine loop's
/// wall time, so the rest of it is queue and dispatch.
fn push_split(out: &mut Outcome, split: &Split, run: Duration) {
    for (k, (time, count)) in KIND_METRICS.into_iter().enumerate() {
        out.push(time, split.ns[k] as f64);
        out.set(count, split.count[k] as f64);
    }
    out.push("sim.queue.ns", ns(run) - split.handler_ns() as f64);
}

/// Drop a traced split that did not reproduce its untraced run.
fn discard_split(out: &mut Outcome) {
    out.samples
        .retain(|name, _| !name.starts_with("network.") && *name != "sim.queue.ns");
}

// --- seq_static_1k ------------------------------------------------------

/// Runs per `seq_static_1k` repeat, each on its own seed drawn from the
/// workload's. Where the 50 flows land moves one run's event count by
/// about ±7% from seed to seed; a fixed set of four runs averages that out,
/// so `wall_s` compares the code and not the flow draw.
const SEQ_RUNS: u64 = 4;

/// The 1024-router `scale_grid` preset, static, 50 CBR flows under CNLR,
/// once per seed of the set.
fn seq_scenarios(seed: u64, size: Size) -> Vec<Scenario> {
    let (side, flows, duration, warmup, runs) = match size {
        Size::Full => (32, 50, 20, 5, SEQ_RUNS),
        Size::Tiny => (5, 4, 6, 2, 2),
    };
    (0..runs)
        .map(|k| Scenario {
            seed: seed.wrapping_mul(1000).wrapping_add(k),
            side,
            scheme: Scheme::Cnlr(CnlrConfig::default()),
            flows,
            duration: SimDuration::from_secs(duration),
            warmup: SimDuration::from_secs(warmup),
            clients: None,
            churn: None,
        })
        .collect()
}

/// One sequential run: its constructions' set-up times (the last one built
/// the simulation that ran), run phase and results.
type SeqRun = (Vec<Duration>, Duration, RunResults);

fn seq_run(sc: &Scenario, constructions: usize) -> Result<SeqRun, String> {
    guarded(|| {
        let mut setups = Vec::with_capacity(constructions);
        for _ in 1..constructions {
            setups.push(stack::build(sc)?.setup());
        }
        let built = stack::build(sc)?;
        setups.push(built.setup());
        let t0 = Instant::now();
        let results = built.sim.run();
        Ok((setups, t0.elapsed(), results))
    })
}

fn seq_static(plan: &Plan) -> Outcome {
    let scenarios = seq_scenarios(plan.seed, plan.size);
    let mut out = Outcome::default();
    let (mut plain_runs, mut traced_runs) = (Vec::new(), Vec::new());
    let mut reference: Vec<RunResults> = Vec::new();
    let mut split_ok = true;
    // Untraced: extra constructions for setup_s, then build and run.
    let constructions = if plan.trace { 1 } else { SETUP_REPS };
    repeat_for(plan.seconds, || {
        // Summed over the set: set-up per construction round, the last
        // round's set-up plus run phase, events and run phase.
        let mut setup = vec![0.0; constructions];
        let (mut wall, mut run, mut events) = (0.0, 0.0, 0u64);
        let (mut split, mut traced_run) = (Split::default(), Duration::ZERO);
        let (mut prefix, mut assemble) = (Duration::ZERO, Duration::ZERO);
        let mut all_ok = true;
        for (k, sc) in scenarios.iter().enumerate() {
            let what = format!("seq_static_1k run {k}");
            let (setups, phase, results) = match seq_run(sc, constructions) {
                Ok(d) => d,
                Err(e) => {
                    out.ledger.record(k, &what, Err(e));
                    all_ok = false;
                    continue;
                }
            };
            if !out.ledger.record(k, &what, Ok(outputs_digest(&results))) {
                all_ok = false;
                continue;
            }
            for (sum, s) in setup.iter_mut().zip(&setups) {
                *sum += secs(*s);
            }
            wall += secs(*setups.last().expect("at least one construction") + phase);
            run += secs(phase);
            events += results.events;
            if !plan.trace {
                continue;
            }

            // Traced twin of the same scenario.
            let traced = guarded(|| {
                let drawn = stack::build(sc)?;
                let tr = stack::run_traced(sc, &drawn.sim);
                Ok((drawn.prefix, drawn.assemble, tr))
            });
            match traced {
                Ok((p, a, tr)) => {
                    prefix += p;
                    assemble += a;
                    if format!("{:?}", tr.results) != format!("{results:?}") {
                        split_ok = false;
                        out.ledger.fail(&format!(
                            "{what}: traced run differs from the untraced run"
                        ));
                    }
                    split.add(&tr.split);
                    traced_run += tr.run;
                }
                Err(e) => {
                    split_ok = false;
                    out.ledger.fail(&format!("{what} traced: {e}"));
                }
            }
            if reference.len() == k {
                reference.push(results);
            }
        }
        // A repeat with a failed run measured less work than the others.
        if !all_ok {
            return;
        }
        plain_runs.push(run);
        if !plan.trace {
            for s in setup {
                out.push("setup_s", s);
            }
            out.push("wall_s", wall);
            out.push("events_per_s", events as f64 / run);
            return;
        }
        out.push("builder.prefix.ns", ns(prefix));
        out.push("builder.assemble.ns", ns(assemble));
        push_split(&mut out, &split, traced_run);
        traced_runs.push(secs(traced_run));
    });
    if plan.trace {
        if reference.len() == scenarios.len() {
            let mut counts = Counts::default();
            for r in &reference {
                counts.add(r);
            }
            counts.report(&mut out);
        }
        if !split_ok {
            discard_split(&mut out);
        }
        out.set("trace.overhead_frac", overhead(&traced_runs, &plain_runs));
    }
    out
}

// --- sweep_mobile_churn -------------------------------------------------

/// Small grids with RWP clients and churn, over five schemes × client
/// speeds × seeds. Jobs of one seed share a scenario prefix.
fn sweep_jobs(seed: u64, size: Size) -> Vec<Scenario> {
    let secs = SimDuration::from_secs;
    let cnlr = || Scheme::Cnlr(CnlrConfig::default());
    let (seeds, speeds, schemes, base) = match size {
        Size::Full => {
            let mut schemes = Scheme::evaluation_set();
            schemes.push(Scheme::VapCnlr(CnlrConfig::default(), VapConfig::default()));
            let base = Scenario {
                seed,
                side: 6,
                scheme: cnlr(),
                flows: 12,
                duration: secs(20),
                warmup: secs(5),
                clients: Some((15, 0.0)),
                churn: Some((secs(60), secs(10))),
            };
            (12, vec![5.0, 20.0], schemes, base)
        }
        Size::Tiny => {
            let base = Scenario {
                seed,
                side: 4,
                scheme: cnlr(),
                flows: 3,
                duration: secs(6),
                warmup: secs(2),
                clients: Some((4, 0.0)),
                churn: Some((secs(20), secs(3))),
            };
            (1, vec![10.0], vec![Scheme::Flooding, cnlr()], base)
        }
    };
    let clients = base.clients.map_or(0, |(count, _)| count);
    let mut jobs = Vec::new();
    for s in 0..seeds {
        for &speed in &speeds {
            for scheme in &schemes {
                jobs.push(Scenario {
                    seed: seed.wrapping_mul(1000).wrapping_add(s),
                    scheme: scheme.clone(),
                    clients: Some((clients, speed)),
                    ..base.clone()
                });
            }
        }
    }
    jobs
}

/// One sweep job's measurements.
struct Job {
    prefix: Duration,
    assemble: Duration,
    run: Duration,
    results: RunResults,
    fingerprint: u64,
}

fn sweep(plan: &Plan) -> Outcome {
    let jobs = sweep_jobs(plan.seed, plan.size);
    let mut out = Outcome::default();
    let (mut plain_runs, mut traced_runs) = (Vec::new(), Vec::new());
    let mut job_walls = Vec::new();
    let mut reference: Option<Vec<RunResults>> = None;
    let mut split_ok = true;
    repeat_for(plan.seconds, || {
        let t0 = Instant::now();
        let done = run_jobs(jobs.len(), THREADS, |i| {
            guarded(|| {
                let built = stack::build(&jobs[i])?;
                let (prefix, assemble) = (built.prefix, built.assemble);
                let fingerprint = built.prefix_fingerprint;
                let t = Instant::now();
                let results = built.sim.run();
                Ok(Job {
                    prefix,
                    assemble,
                    run: t.elapsed(),
                    results,
                    fingerprint,
                })
            })
        });
        let wall = t0.elapsed();
        let (mut setup, mut run, mut events, mut busy) = (0.0, 0.0, 0u64, 0.0);
        let mut batch = Vec::with_capacity(jobs.len());
        for (i, job) in done.into_iter().enumerate() {
            let what = format!("sweep_mobile_churn job {i}");
            match job {
                Ok(j) => {
                    if out.ledger.record(i, &what, Ok(outputs_digest(&j.results))) {
                        setup += secs(j.prefix + j.assemble);
                        run += secs(j.run);
                        events += j.results.events;
                        let job_wall = secs(j.prefix + j.assemble + j.run);
                        busy += job_wall;
                        job_walls.push(job_wall);
                    }
                    batch.push(Some(j));
                }
                Err(e) => {
                    out.ledger.record(i, &what, Err(e));
                    batch.push(None);
                }
            }
        }
        plain_runs.push(run);
        if !plan.trace {
            out.push("wall_s", secs(wall));
            out.push("setup_s", setup);
            out.push("events_per_s", events as f64 / run);
            return;
        }
        out.push(
            "sweep.worker_idle_share",
            1.0 - busy / (THREADS as f64 * secs(wall)),
        );
        if reference.is_none() && batch.iter().all(Option::is_some) {
            let fps: Vec<u64> = batch.iter().flatten().map(|j| j.fingerprint).collect();
            let dups = (0..fps.len())
                .filter(|&i| fps[..i].contains(&fps[i]))
                .count();
            out.set("sweep.prefix_dup_share", dups as f64 / fps.len() as f64);
            reference = Some(batch.into_iter().flatten().map(|j| j.results).collect());
        }
        let Some(reference) = &reference else {
            return;
        };

        // Traced twin of the batch.
        let traced = run_jobs(jobs.len(), THREADS, |i| {
            guarded(|| {
                let drawn = stack::build(&jobs[i])?;
                let tr = stack::run_traced(&jobs[i], &drawn.sim);
                Ok((drawn.prefix, drawn.assemble, tr))
            })
        });
        let (mut split, mut prefix, mut assemble, mut run) = (
            Split::default(),
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        for (i, t) in traced.into_iter().enumerate() {
            match t {
                Ok((p, a, tr)) => {
                    if format!("{:?}", tr.results) != format!("{:?}", reference[i]) {
                        split_ok = false;
                        out.ledger.fail(&format!(
                            "sweep_mobile_churn job {i}: traced run differs from the untraced run"
                        ));
                    }
                    split.add(&tr.split);
                    prefix += p;
                    assemble += a;
                    run += tr.run;
                }
                Err(e) => {
                    split_ok = false;
                    out.ledger
                        .fail(&format!("sweep_mobile_churn job {i} traced: {e}"));
                }
            }
        }
        out.push("builder.prefix.ns", ns(prefix));
        out.push("builder.assemble.ns", ns(assemble));
        push_split(&mut out, &split, run);
        traced_runs.push(secs(run));
    });
    if plan.trace {
        if let Some(reference) = &reference {
            let mut counts = Counts::default();
            for r in reference {
                counts.add(r);
            }
            counts.report(&mut out);
        }
        if !split_ok {
            discard_split(&mut out);
        }
        out.set("sweep.jobs", jobs.len() as f64);
        out.set("sweep.job_wall_p50_s", percentile(&job_walls, 50.0));
        out.set("sweep.job_wall_p90_s", percentile(&job_walls, 90.0));
        out.set("trace.overhead_frac", overhead(&traced_runs, &plain_runs));
    }
    out
}

// --- parmesh_10k_t2 -----------------------------------------------------

/// ParMesh with 10k nodes, its default mobility and churn and 4 packets/s
/// per flow, on one thread. On the 2-core host the workloads were sized on,
/// two-thread wall times swing by 2× or more between runs (see README.md),
/// so the end-to-end metrics come from the steady one-thread run and the
/// traced run profiles the two-thread one.
fn mesh(seed: u64, size: Size) -> ParMesh {
    let (nodes, flows, duration) = match size {
        Size::Full => (10_000, 500, 20),
        Size::Tiny => (400, 20, 2),
    };
    ParMesh::new(nodes)
        .seed(seed)
        .flows(flows)
        .duration(SimDuration::from_secs(duration))
        .interval(SimDuration::from_millis(250))
        .threads(1)
}

fn mesh_run(m: &ParMesh) -> Result<(Duration, ParMeshOutcome), String> {
    guarded(|| {
        let t0 = Instant::now();
        let o = m.try_run().map_err(|e| e.to_string())?;
        Ok((t0.elapsed(), o))
    })
}

fn parmesh(plan: &Plan) -> Outcome {
    let serial = mesh(plan.seed, plan.size);
    let parallel = serial.clone().threads(THREADS).steal(true);
    let mut out = Outcome::default();
    let (mut plain_runs, mut traced_runs) = (Vec::new(), Vec::new());
    let mut split_ok = true;
    repeat_for(plan.seconds, || {
        if !plan.trace {
            // Construction happens inside `run()`: time it as runs with a
            // zero-length horizon.
            let empty = serial.clone().duration(SimDuration::ZERO);
            for _ in 0..SETUP_REPS {
                match mesh_run(&empty) {
                    Ok((d, _)) => out.push("setup_s", secs(d)),
                    Err(e) => out.ledger.fail(&format!("parmesh_10k_t2 setup run: {e}")),
                }
            }
        }
        let (wall, o) = match mesh_run(&serial) {
            Ok(r) => r,
            Err(e) => {
                out.ledger.record(0, "parmesh_10k_t2 run", Err(e));
                return;
            }
        };
        let report = format!("{:?}", o.report);
        if !out
            .ledger
            .record(0, "parmesh_10k_t2 run", Ok(digest(&report)))
        {
            return;
        }
        if !plan.trace {
            out.push("wall_s", secs(wall));
            out.push("events_per_s", o.report.events as f64 / secs(wall));
            return;
        }

        // Two threads, untraced and profiled; both must match one thread.
        let runs = (
            mesh_run(&parallel),
            mesh_run(&parallel.clone().profile(true)),
        );
        let ((plain, u), (traced, p)) = match runs {
            (Ok(u), Ok(p)) => (u, p),
            (Err(e), _) | (_, Err(e)) => {
                split_ok = false;
                out.ledger
                    .fail(&format!("parmesh_10k_t2 on {THREADS} threads: {e}"));
                return;
            }
        };
        if format!("{:?}", u.report) != report || format!("{:?}", p.report) != report {
            split_ok = false;
            out.ledger
                .fail("parmesh_10k_t2: the 2-thread and 1-thread reports differ");
        }
        let Some(prof) = p.profile else {
            split_ok = false;
            out.ledger
                .fail("parmesh_10k_t2: the profiled run returned no profile");
            return;
        };
        let epochs = prof.epochs.max(1) as f64;
        let busy: u64 = prof.per_region.iter().map(|r| r.busy_ns).sum();
        out.set("sim.events", p.report.events as f64);
        out.set("shard.epochs", prof.epochs as f64);
        out.set("shard.events_per_epoch", prof.events as f64 / epochs);
        out.push(
            "shard.wall_per_epoch_us",
            prof.wall_ns as f64 / epochs / 1e3,
        );
        out.push("shard.busy_ns", busy as f64);
        out.push("shard.merge_ns", prof.merge_ns as f64);
        out.push("shard.barrier_wait_share", prof.barrier_wait_share());
        out.set("shard.imbalance_factor", prof.imbalance_factor());
        out.push("shard.steal_epochs", prof.steal_epochs as f64);
        out.push("shard.regions_moved", prof.regions_moved as f64);
        out.set("shard.cross_region", prof.cross_region as f64);
        plain_runs.push(secs(plain));
        traced_runs.push(secs(traced));
    });
    if plan.trace {
        if !split_ok {
            out.samples.retain(|name, _| !name.starts_with("shard."));
        }
        out.set("trace.overhead_frac", overhead(&traced_runs, &plain_runs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn tiny(trace: bool, pin: Option<u64>) -> Plan {
        Plan {
            seed: 5,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
            pin,
        }
    }

    /// Every workload runs once at tiny scale, untraced and traced, with
    /// every metric present and no failures.
    #[test]
    fn tiny_workloads_run_clean() {
        for name in NAMES {
            for trace in [false, true] {
                let out = run(name, &tiny(trace, None)).expect("known workload");
                assert_eq!(out.ledger.failed, 0, "{name} trace={trace}");
                let defs = if trace { PER_LAYER } else { END_TO_END };
                let line = out.result_line(defs);
                assert!(line.starts_with("{\"correct\": true"), "{name}: {line}");
                for d in defs {
                    assert!(
                        line.contains(&format!("\"{}\": {{", d.name)),
                        "{name}: {}",
                        d.name
                    );
                }
                if !trace {
                    for d in END_TO_END {
                        assert!(out.value(d.name) > 0.0, "{name}: {} is 0", d.name);
                    }
                } else {
                    assert!(out.value("sim.events") > 0.0, "{name}: no events");
                }
            }
        }
    }

    /// The traced split sums to the exact event count.
    #[test]
    fn traced_split_counts_every_event() {
        let out = run("sweep_mobile_churn", &tiny(true, None)).expect("known workload");
        let counted: f64 = KIND_METRICS.iter().map(|(_, c)| out.value(c)).sum();
        assert_eq!(counted, out.value("sim.events"));
        assert!(out.value("network.mobility.count") > 0.0);
    }

    /// A wrong pinned fingerprint fails every unit of the run.
    #[test]
    fn wrong_pin_fails_the_run() {
        for name in NAMES {
            let out = run(name, &tiny(false, Some(0x0123_4567_89ab_cdef))).expect("known workload");
            assert!(out.ledger.attempted > 0);
            assert_eq!(out.ledger.failed, out.ledger.attempted, "{name}");
            assert!(out
                .result_line(END_TO_END)
                .starts_with("{\"correct\": false"));
        }
    }

    /// Ambient environment knobs cannot change a workload's outputs.
    #[test]
    fn environment_does_not_change_outputs() {
        let fp = || {
            run("seq_static_1k", &tiny(false, None))
                .expect("known workload")
                .ledger
                .fingerprint()
        };
        let clean = fp();
        std::env::set_var("WMN_TELEMETRY", "1");
        std::env::set_var("WMN_THREADS", "7");
        std::env::set_var("QUICK", "1");
        let noisy = fp();
        std::env::remove_var("WMN_TELEMETRY");
        std::env::remove_var("WMN_THREADS");
        std::env::remove_var("QUICK");
        assert!(clean.is_some());
        assert_eq!(clean, noisy);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run("nope", &tiny(false, None)).is_err());
    }
}
