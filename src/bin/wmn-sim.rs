//! `wmn-sim` — command-line scenario runner.
//!
//! Runs a single mesh scenario and prints the full result record. Example:
//!
//! ```sh
//! wmn-sim --grid 8 --pitch 180 --scheme cnlr --flows 30 --pps 8 \
//!         --duration 60 --warmup 10 --seed 1
//! ```
//!
//! Arguments are hand-parsed (no CLI dependency); `--help` lists them.

use wmn::mobility::MobilityConfig;
use wmn::sim::{SimDuration, SimTime};
use wmn::telemetry::{ConsoleSink, SharedSink, TelemetryConfig};
use wmn::{CnlrConfig, FaultPlan, ScenarioBuilder, Scheme};

/// Parsed CLI options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub grid: usize,
    pub pitch: f64,
    /// Large-scale preset: overrides `--grid` with ~N nodes at standard
    /// density (`grid` placement or `random`).
    pub nodes: Option<usize>,
    pub random_placement: bool,
    pub scheme: Scheme,
    pub flows: usize,
    pub pps: f64,
    pub payload: usize,
    pub duration_s: f64,
    pub warmup_s: f64,
    pub seed: u64,
    pub clients: usize,
    pub client_speed: f64,
    pub csv: bool,
    pub trace: bool,
    /// Run the shard-parallel ParMesh scale model instead of the classic
    /// full-MAC stack (requires `--nodes`).
    pub parmesh: bool,
    /// Worker threads for the sharded engine (ParMesh only).
    pub threads: usize,
    /// Work stealing between epoch barriers (ParMesh only; `None` keeps
    /// the engine default, which is on). Never changes results.
    pub steal: Option<bool>,
    /// Fold telemetry into O(1)-memory per-region fingerprints instead of
    /// a trace (ParMesh only; the scale alternative to --trace-out).
    pub trace_hash: bool,
    /// Region-count override for the sharded engine (ParMesh only).
    pub regions: Option<usize>,
    /// Write the merged telemetry trace as JSONL to this path (ParMesh only).
    pub trace_out: Option<String>,
    /// Write the engine execution profile as JSON to this path (ParMesh only).
    pub profile_out: Option<String>,
    /// Scripted crashes: `(node, down_s, Some(up_s))` reboots, `None` stays down.
    pub fails: Vec<(u32, f64, Option<f64>)>,
    /// Stochastic churn `(mtbf_s, mttr_s)` applied to every node.
    pub churn: Option<(f64, f64)>,
    /// Write epoch-barrier checkpoints to this directory (ParMesh only).
    pub checkpoint_dir: Option<String>,
    /// Simulated seconds between checkpoints (requires `--checkpoint-dir`).
    pub checkpoint_every_s: Option<f64>,
    /// Resume from the newest checkpoint in `--checkpoint-dir`.
    pub resume: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            grid: 8,
            pitch: 180.0,
            nodes: None,
            random_placement: false,
            scheme: Scheme::Cnlr(CnlrConfig::default()),
            flows: 20,
            pps: 4.0,
            payload: 512,
            duration_s: 60.0,
            warmup_s: 10.0,
            seed: 1,
            clients: 0,
            client_speed: 10.0,
            csv: false,
            trace: false,
            parmesh: false,
            threads: 1,
            steal: None,
            trace_hash: false,
            regions: None,
            trace_out: None,
            profile_out: None,
            fails: Vec::new(),
            churn: None,
            checkpoint_dir: None,
            checkpoint_every_s: None,
            resume: false,
        }
    }
}

const HELP: &str = "\
wmn-sim — run one wireless-mesh scenario

OPTIONS (defaults in brackets):
  --grid N          N×N router grid [8]
  --pitch M         grid pitch in metres [180]
  --nodes N         large-scale preset: ~N routers at standard density
                    (overrides --grid/--pitch; up to 10000 for the classic
                    stack, 1000000 with --parmesh)
  --random          with --nodes: uniform-random placement instead of grid
  --scheme S        flooding | gossip:P[:K] | counter:C[:RAD_MS] |
                    distance:DBM | cnlr | vap [cnlr]
  --flows N         random CBR flows [20]
  --pps R           packets per second per flow [4]
  --payload B       payload bytes [512]
  --duration S      simulated seconds [60]
  --warmup S        statistics warm-up seconds [10]
  --seed N          master seed [1]
  --clients N       mobile RWP clients [0]
  --client-speed V  client max speed m/s [10]
  --fail N@T[:U]    crash node N at T s; reboot at U s if given (repeatable)
  --churn MTBF,MTTR every node crashes/reboots stochastically (seconds)
  --csv             emit one CSV line instead of the report
  --trace           print every telemetry event to stderr as it happens
  --parmesh         shard-parallel scale model (requires --nodes; results
                    are identical for any --threads value)
  --threads N       worker threads for the sharded engine [1]
  --steal on|off    work stealing between epoch barriers (with --parmesh)
                    [on]; rebalances regions across workers from measured
                    busy times — results are bit-identical either way
  --regions N       region-count override for the sharded engine; the
                    auto-tuner warns and grants the nearest geometry-legal
                    grid when a request cannot be honoured
  --trace-out PATH  write the merged JSONL trace (with --parmesh)
  --trace-hash      fold telemetry into an O(1)-memory fingerprint and
                    print it (with --parmesh; the million-node alternative
                    to --trace-out, incompatible with --checkpoint-dir)
  --profile-out PATH  write the engine execution profile as JSON (with
                    --parmesh; inspect with `wmn-trace profile`)
  --checkpoint-dir DIR  write epoch-barrier checkpoints (with --parmesh;
                    inspect with `wmn-trace ckpt`); Ctrl-C checkpoints and
                    exits with code 130
  --checkpoint-every S  simulated seconds between checkpoints [1]
  --resume          continue from the newest checkpoint in --checkpoint-dir;
                    the finished run is byte-identical to an uninterrupted one
  --help            this text

Set WMN_TELEMETRY=1 (and optionally WMN_TRACE_PATH, WMN_PROBE_MS) to
record a JSONL trace instead; inspect it with wmn-trace.
Set WMN_CRASH_AT=epoch:region[,…] or WMN_CRASH_RATE=p:seed[:max] to inject
harness-level worker crashes (supervisor exercise; ParMesh only).
";

/// Parse a scheme spec like `gossip:0.65` or `counter:3` — one grammar,
/// shared with the daemon and the figure binaries via [`Scheme::parse`].
pub fn parse_scheme(s: &str) -> Result<Scheme, String> {
    Scheme::parse(s)
}

/// Longest simulated time any flag may ask for, in seconds (~11.6 days):
/// far past every experiment here, and far inside the `u64`-nanosecond
/// clock (~584 years), so times and their sums never saturate.
const MAX_SIM_S: f64 = 1e6;

/// Highest per-flow packet rate, packets per second: a 1 µs gap, well
/// above what one 802.11 channel carries.
const MAX_PPS: f64 = 1e6;

/// Widest `--grid` × `--pitch` field side, metres: over five times the
/// 10k-node preset's 18 km. The classic stack's spatial index grows with
/// the square of the side: `--grid 20 --pitch 1e5` (2000 km) allocates
/// half a gigabyte at a time before the connectivity check refuses it.
const MAX_FIELD_M: f64 = 1e5;

/// Parse `s` as a finite number in `(0, max]`, or `[0, max]` when
/// `zero_ok` — the shape every rate, length and time flag must have.
fn parse_num(flag: &str, s: &str, zero_ok: bool, max: f64) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|e| format!("{flag}: {e}"))?;
    if v.is_finite() && (v > 0.0 || (zero_ok && v == 0.0)) && v <= max {
        Ok(v)
    } else {
        let lo = if zero_ok { '[' } else { '(' };
        Err(format!(
            "{flag} must be a finite number in {lo}0, {max:e}], got {s}"
        ))
    }
}

/// Parse a `--fail` spec: `N@T` (permanent) or `N@T:U` (reboot at `U`).
pub fn parse_fail(s: &str) -> Result<(u32, f64, Option<f64>), String> {
    let (node, times) = s.split_once('@').ok_or("--fail needs N@T[:U]")?;
    let node: u32 = node.parse().map_err(|e| format!("bad --fail node: {e}"))?;
    let (down, up) = match times.split_once(':') {
        Some((d, u)) => (d, Some(parse_num("--fail up time", u, true, MAX_SIM_S)?)),
        None => (times, None),
    };
    let down = parse_num("--fail down time", down, true, MAX_SIM_S)?;
    if let Some(u) = up {
        if u <= down {
            return Err("--fail reboot time must be after the crash".into());
        }
    }
    Ok((node, down, up))
}

/// Parse a `--churn` spec: `MTBF,MTTR` in seconds.
pub fn parse_churn(s: &str) -> Result<(f64, f64), String> {
    let (mtbf, mttr) = s.split_once(',').ok_or("--churn needs MTBF,MTTR")?;
    Ok((
        parse_num("--churn mtbf", mtbf, false, MAX_SIM_S)?,
        parse_num("--churn mttr", mttr, false, MAX_SIM_S)?,
    ))
}

/// What an argument vector parses to: a runnable scenario, or an explicit
/// help request (which exits 0 — asking for usage is not an error).
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    Run(Box<Options>),
    Help,
}

/// Parse an argument vector (without the program name). Unknown flags and
/// missing values are errors (exit 2 in `main`), never ignored.
pub fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--grid" => o.grid = val("--grid")?.parse().map_err(|e| format!("--grid: {e}"))?,
            "--pitch" => o.pitch = parse_num("--pitch", val("--pitch")?, false, MAX_FIELD_M)?,
            "--nodes" => {
                o.nodes = Some(
                    val("--nodes")?
                        .parse()
                        .map_err(|e| format!("--nodes: {e}"))?,
                )
            }
            "--random" => o.random_placement = true,
            "--scheme" => o.scheme = parse_scheme(val("--scheme")?)?,
            "--flows" => {
                o.flows = val("--flows")?
                    .parse()
                    .map_err(|e| format!("--flows: {e}"))?
            }
            "--pps" => o.pps = parse_num("--pps", val("--pps")?, false, MAX_PPS)?,
            "--payload" => {
                o.payload = val("--payload")?
                    .parse()
                    .map_err(|e| format!("--payload: {e}"))?
            }
            "--duration" => {
                o.duration_s = parse_num("--duration", val("--duration")?, false, MAX_SIM_S)?
            }
            "--warmup" => o.warmup_s = parse_num("--warmup", val("--warmup")?, true, MAX_SIM_S)?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--clients" => {
                o.clients = val("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--client-speed" => {
                o.client_speed =
                    parse_num("--client-speed", val("--client-speed")?, false, f64::MAX)?
            }
            "--fail" => o.fails.push(parse_fail(val("--fail")?)?),
            "--churn" => o.churn = Some(parse_churn(val("--churn")?)?),
            "--csv" => o.csv = true,
            "--trace" => o.trace = true,
            "--parmesh" => o.parmesh = true,
            "--threads" => {
                o.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--steal" => {
                o.steal = Some(match val("--steal")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--steal takes on|off, got '{other}'")),
                })
            }
            "--trace-hash" => o.trace_hash = true,
            "--regions" => {
                o.regions = Some(
                    val("--regions")?
                        .parse()
                        .map_err(|e| format!("--regions: {e}"))?,
                )
            }
            "--trace-out" => o.trace_out = Some(val("--trace-out")?.clone()),
            "--profile-out" => o.profile_out = Some(val("--profile-out")?.clone()),
            "--checkpoint-dir" => o.checkpoint_dir = Some(val("--checkpoint-dir")?.clone()),
            "--checkpoint-every" => {
                o.checkpoint_every_s = Some(parse_num(
                    "--checkpoint-every",
                    val("--checkpoint-every")?,
                    false,
                    MAX_SIM_S,
                )?)
            }
            "--resume" => o.resume = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if o.grid < 2 {
        return Err("--grid must be ≥ 2".into());
    }
    if o.nodes.is_none() && o.grid as f64 * o.pitch > MAX_FIELD_M {
        return Err(format!(
            "--grid × --pitch must be at most {MAX_FIELD_M:e} m, got {} m",
            o.grid as f64 * o.pitch
        ));
    }
    if let Some(n) = o.nodes {
        if n < 4 {
            return Err("--nodes must be ≥ 4".into());
        }
        let cap = if o.parmesh { 1_000_000 } else { 10_000 };
        if n > cap {
            return Err(format!("--nodes is supported up to {cap}"));
        }
    }
    if o.parmesh && o.nodes.is_none() {
        return Err("--parmesh requires --nodes".into());
    }
    if o.threads < 1 {
        return Err("--threads must be ≥ 1".into());
    }
    if o.regions == Some(0) {
        return Err("--regions must be ≥ 1".into());
    }
    if !o.parmesh
        && (o.threads > 1
            || o.steal.is_some()
            || o.trace_hash
            || o.regions.is_some()
            || o.trace_out.is_some()
            || o.profile_out.is_some()
            || o.checkpoint_dir.is_some()
            || o.checkpoint_every_s.is_some()
            || o.resume)
    {
        return Err(
            "--threads/--steal/--trace-hash/--regions/--trace-out/--profile-out/\
             --checkpoint-dir/--checkpoint-every/--resume apply only with --parmesh"
                .into(),
        );
    }
    if (o.checkpoint_every_s.is_some() || o.resume) && o.checkpoint_dir.is_none() {
        return Err("--checkpoint-every/--resume need --checkpoint-dir".into());
    }
    if o.trace_hash && o.checkpoint_dir.is_some() {
        return Err(
            "--trace-hash folds events away as they happen; checkpoints need \
             the buffered trace, so it cannot combine with --checkpoint-dir"
                .into(),
        );
    }
    if o.random_placement && o.nodes.is_none() {
        return Err("--random requires --nodes".into());
    }
    if o.warmup_s >= o.duration_s {
        return Err("--warmup must be below --duration".into());
    }
    Ok(Parsed::Run(Box::new(o)))
}

/// Exit code for an interrupted (SIGINT, checkpointed) run, matching the
/// shell convention for `128 + SIGINT`.
const EXIT_INTERRUPTED: i32 = 130;

/// SIGINT → cooperative interrupt flag, installed without a libc
/// dependency: `signal(2)` is in every libc the workspace links anyway.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_sigint(_sig: i32) {
        // Only async-signal-safe work here: one relaxed load + one store.
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install the handler; every SIGINT afterwards sets the returned flag.
    pub fn install() -> Arc<AtomicBool> {
        let flag = FLAG
            .get_or_init(|| Arc::new(AtomicBool::new(false)))
            .clone();
        const SIGINT: i32 = 2;
        unsafe {
            signal(
                SIGINT,
                on_sigint as extern "C" fn(i32) as *const () as usize,
            );
        }
        flag
    }
}

/// Extract the `"lineage": [...]` entries from a previously written run
/// manifest, so a resumed run extends the chain rather than restarting it.
fn read_lineage(path: &std::path::Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(line) = text
        .lines()
        .find(|l| l.trim_start().starts_with("\"lineage\""))
    else {
        return Vec::new();
    };
    let Some(open) = line.find('[') else {
        return Vec::new();
    };
    let Some(close) = line.rfind(']') else {
        return Vec::new();
    };
    line[open + 1..close]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Run the shard-parallel ParMesh scale model and print its report.
fn run_parmesh(opts: &Options) {
    let Some(n) = opts.nodes else {
        eprintln!("--parmesh requires --nodes");
        std::process::exit(2);
    };
    let mut pm = wmn::ParMesh::new(n)
        .seed(opts.seed)
        .flows(opts.flows)
        .duration(SimDuration::from_secs_f64(opts.duration_s))
        .threads(opts.threads)
        .steal(opts.steal.unwrap_or(true))
        .telemetry(opts.trace_out.is_some())
        .trace_hash(opts.trace_hash)
        .profile(opts.profile_out.is_some())
        .crash_plan(wmn::sim::shard::CrashPlan::from_env());
    pm = pm.interval(SimDuration::from_secs_f64(1.0 / opts.pps));
    if let Some(r) = opts.regions {
        pm = pm.regions(r);
    }
    if let Some(dir) = &opts.checkpoint_dir {
        pm = pm.checkpoint_dir(dir).resume(opts.resume);
        if let Some(s) = opts.checkpoint_every_s {
            pm = pm.checkpoint_every(SimDuration::from_secs_f64(s));
        }
        #[cfg(unix)]
        {
            pm = pm.interrupt(sigint::install());
        }
    }
    // Checkpointed runs carry their provenance: a run manifest in the
    // checkpoint dir whose lineage records every fresh start and resume.
    // It is written *before* the run starts (and refreshed with real
    // stats after), so the chain survives a kill -9 mid-run.
    let write_manifest = |lineage: Vec<String>, wall: f64, events: u64| {
        let Some(dir) = &opts.checkpoint_dir else {
            return;
        };
        let manifest = wmn::telemetry::RunManifest {
            id: "run".into(),
            title: "parmesh checkpointed run".into(),
            git_rev: wmn::telemetry::git_rev(),
            seeds: vec![opts.seed],
            params: vec![
                ("nodes".into(), n.to_string()),
                ("flows".into(), opts.flows.to_string()),
                ("duration_s".into(), format!("{}", opts.duration_s)),
                ("threads".into(), opts.threads.to_string()),
                (
                    "scenario_fingerprint".into(),
                    format!("{:016x}", pm.scenario_fingerprint()),
                ),
            ],
            wall_s: wall,
            events_processed: events,
            lineage,
            ..wmn::telemetry::RunManifest::default()
        };
        if let Err(e) = manifest.write(std::path::Path::new(dir)) {
            eprintln!("could not write run manifest: {e}");
        }
    };
    let prior_lineage = opts.checkpoint_dir.as_ref().map(|dir| {
        let dir = std::path::Path::new(dir);
        let prior = read_lineage(&dir.join("run_manifest.json"));
        // Provisional entry: what this leg is about to do. The post-run
        // rewrite replaces it with the supervisor's ground truth.
        let entry = if opts.resume {
            wmn::sim::checkpoint::list_dir(dir)
                .ok()
                .and_then(|files| files.into_iter().filter_map(|(e, _)| e).max())
                .map(|e| format!("resumed from epoch {e}"))
                .unwrap_or_else(|| "fresh".to_string())
        } else {
            "fresh".to_string()
        };
        let mut provisional = prior.clone();
        provisional.push(entry);
        write_manifest(provisional, 0.0, 0);
        prior
    });
    let t0 = std::time::Instant::now();
    let out = match pm.try_run() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let r = &out.report;
    let interrupted = out.supervisor.as_ref().is_some_and(|sup| sup.interrupted);

    if let Some(path) = &opts.trace_out {
        let mut body = String::new();
        for ev in &out.trace {
            body.push_str(&ev.to_jsonl());
            body.push('\n');
        }
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} events to {path}", out.trace.len());
    }

    if let Some((count, fp)) = out.trace_fp {
        // The fingerprint is invariant to --threads and --steal; compare it
        // across runs instead of diffing traces that would not fit.
        eprintln!("trace fingerprint: {count} events, {fp:016x}");
    }

    if let Some(path) = &opts.profile_out {
        let Some(p) = out.profile.as_ref() else {
            eprintln!("profile missing from outcome despite --profile-out");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(path, p.to_json()) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote profile to {path} (imbalance {:.2}, barrier-wait share {:.3}, \
             {:.1} regions moved/epoch)",
            p.imbalance_factor(),
            p.barrier_wait_share(),
            p.regions_moved_per_epoch()
        );
    }

    // Refresh the provisional manifest with the supervisor's ground truth
    // and the finished run's stats.
    if let Some(sup) = out.supervisor.as_ref() {
        let mut lineage = prior_lineage.clone().unwrap_or_default();
        lineage.push(match sup.resumed_from_epoch {
            Some(e) => format!("resumed from epoch {e}"),
            None => "fresh".to_string(),
        });
        if sup.interrupted {
            lineage.push(format!("interrupted at epoch {}", r.epochs));
        }
        write_manifest(lineage, wall, r.events);
        eprintln!(
            "checkpoints: {} written, {} recoveries{}",
            sup.checkpoints_written,
            sup.recoveries,
            match sup.resumed_from_epoch {
                Some(e) => format!(", resumed from epoch {e}"),
                None => String::new(),
            }
        );
    }

    if opts.csv {
        println!("nodes,regions,threads,seed,pdr,mean_delay_ms,mean_hops,originated,delivered,forwards,events,epochs,cross_region,wall_s");
        println!(
            "{},{},{},{},{:.4},{:.2},{:.2},{},{},{},{},{},{},{:.3}",
            r.nodes,
            r.regions,
            opts.threads,
            opts.seed,
            r.pdr(),
            r.mean_delay_s * 1e3,
            r.mean_hops,
            r.originated,
            r.delivered,
            r.forwards,
            r.events,
            r.epochs,
            r.cross_region,
            wall,
        );
        if interrupted {
            std::process::exit(EXIT_INTERRUPTED);
        }
        return;
    }

    println!("model                   : parmesh (shard-parallel)");
    println!(
        "nodes / regions / threads: {} / {} / {}",
        r.nodes, r.regions, opts.threads
    );
    println!(
        "originated / delivered  : {} / {}",
        r.originated, r.delivered
    );
    println!("delivery ratio          : {:.4}", r.pdr());
    println!(
        "mean delay / hops       : {:.1} ms / {:.2}",
        r.mean_delay_s * 1e3,
        r.mean_hops
    );
    println!(
        "drops (nr/exp/down)     : {}/{}/{}",
        r.dropped_no_route, r.dropped_expired, r.dropped_node_down
    );
    println!(
        "events / epochs / cross : {} / {} / {}",
        r.events, r.epochs, r.cross_region
    );
    println!("wall-clock              : {wall:.3} s");
    if interrupted {
        eprintln!("interrupted — state checkpointed; rerun with --resume to continue");
        std::process::exit(EXIT_INTERRUPTED);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Parsed::Run(o)) => *o,
        Ok(Parsed::Help) => {
            print!("{HELP}");
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg} (run wmn-sim --help for usage)");
            std::process::exit(2);
        }
    };

    if opts.parmesh {
        run_parmesh(&opts);
        return;
    }

    let mut builder = match opts.nodes {
        // The scale presets pin placement density; everything else on the
        // command line still applies.
        Some(n) if opts.random_placement => wmn::presets::scale_random(n, opts.flows, opts.seed),
        Some(n) => wmn::presets::scale_grid(n, opts.flows, opts.seed),
        None => ScenarioBuilder::new()
            .seed(opts.seed)
            .grid(opts.grid, opts.grid, opts.pitch),
    }
    .scheme(opts.scheme.clone())
    .flows(opts.flows, opts.pps, opts.payload)
    .duration(SimDuration::from_secs_f64(opts.duration_s))
    .warmup(SimDuration::from_secs_f64(opts.warmup_s));
    if opts.trace {
        // Console tracing: typed events rendered human-readably on stderr
        // (what the old string-ring tracer used to do).
        let sink: SharedSink = std::sync::Arc::new(std::sync::Mutex::new(ConsoleSink));
        builder = builder
            .telemetry(TelemetryConfig::enabled())
            .telemetry_sink(sink);
    }
    if !opts.fails.is_empty() || opts.churn.is_some() {
        let mut plan = FaultPlan::new();
        for &(node, down_s, up_s) in &opts.fails {
            plan = match up_s {
                Some(u) => plan.fail_node_for(
                    node,
                    SimTime::from_secs_f64(down_s),
                    SimDuration::from_secs_f64(u - down_s),
                ),
                None => plan.fail_node(node, SimTime::from_secs_f64(down_s)),
            };
        }
        if let Some((mtbf, mttr)) = opts.churn {
            plan = plan.churn(
                SimDuration::from_secs_f64(mtbf),
                SimDuration::from_secs_f64(mttr),
            );
        }
        builder = builder.faults(plan);
    }
    if opts.clients > 0 {
        builder = builder.mobile_clients(
            opts.clients,
            MobilityConfig::RandomWaypoint {
                v_min: 1.0,
                v_max: opts.client_speed.max(1.0),
                pause_s: 2.0,
            },
        );
    }

    let r = match builder.build() {
        Ok(sim) => sim.run(),
        Err(e) => {
            eprintln!("scenario rejected: {e}");
            std::process::exit(1);
        }
    };

    if opts.csv {
        println!(
            "scheme,nodes,flows,seed,pdr,mean_delay_ms,p95_delay_ms,goodput_kbps,rreq_per_disc,srb,nrl,jain,collisions,energy_mj_per_pkt"
        );
        println!(
            "{},{},{},{},{:.4},{:.2},{:.2},{:.1},{:.2},{:.3},{:.3},{:.3},{},{:.2}",
            r.scheme,
            r.nodes,
            r.flows,
            opts.seed,
            r.pdr(),
            r.mean_delay_ms(),
            r.summary.p95_delay_s * 1e3,
            r.goodput_kbps,
            r.rreq_tx_per_discovery,
            r.saved_rebroadcast,
            r.normalized_routing_load,
            r.jain_forwarding,
            r.medium.collisions,
            r.comm_energy_per_delivered_mj,
        );
        return;
    }

    println!("scheme                  : {}", r.scheme);
    println!(
        "nodes / flows / seed    : {} / {} / {}",
        r.nodes, r.flows, opts.seed
    );
    println!(
        "sent / delivered        : {} / {}",
        r.summary.sent, r.summary.delivered
    );
    println!("delivery ratio          : {:.4}", r.pdr());
    println!(
        "mean / p95 delay        : {:.1} / {:.1} ms",
        r.mean_delay_ms(),
        r.summary.p95_delay_s * 1e3
    );
    println!("goodput                 : {:.1} kb/s", r.goodput_kbps);
    println!("RREQ tx / discovery     : {:.1}", r.rreq_tx_per_discovery);
    println!(
        "saved rebroadcasts      : {:.1} %",
        r.saved_rebroadcast * 100.0
    );
    println!("normalized routing load : {:.3}", r.normalized_routing_load);
    println!("discovery success       : {:.3}", r.discovery_success);
    println!(
        "Jain fairness / hotspot : {:.3} / {:.1}",
        r.jain_forwarding, r.hotspot
    );
    println!(
        "collisions / noise loss : {} / {}",
        r.medium.collisions, r.medium.noise_losses
    );
    println!(
        "drops (q/nr/bo/df/lf/ex): {}/{}/{}/{}/{}/{}",
        r.drops.queue_full,
        r.drops.no_route,
        r.drops.buffer_overflow,
        r.drops.discovery_failed,
        r.drops.link_failure,
        r.drops.expired
    );
    println!("ctrl drops (queue full) : {}", r.drops.ctrl_queue_full);
    println!(
        "comm energy / delivered : {:.2} mJ",
        r.comm_energy_per_delivered_mj
    );
    if r.faults.node_down + r.faults.injected > 0 {
        println!(
            "faults (down/up/other)  : {}/{}/{}",
            r.faults.node_down, r.faults.node_up, r.faults.injected
        );
        let repair = if r.repair_latency_s.is_empty() {
            "-".to_string()
        } else {
            let mean = r.repair_latency_s.iter().sum::<f64>() / r.repair_latency_s.len() as f64;
            format!("{mean:.2} s")
        };
        println!("mean route repair       : {repair}");
        match r.pdr_during_outage {
            Some(p) => println!("PDR during outages      : {p:.4}"),
            None => println!("PDR during outages      : -"),
        }
    }
    println!("events processed        : {}", r.events);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Parse and unwrap to runnable options (panics on Help or error).
    fn opts(s: &str) -> Options {
        match parse_args(&argv(s)).unwrap() {
            Parsed::Run(o) => *o,
            Parsed::Help => panic!("unexpected help request"),
        }
    }

    #[test]
    fn defaults_when_empty() {
        let o = opts("");
        assert_eq!(o, Options::default());
    }

    #[test]
    fn full_parse() {
        let o = opts(
            "--grid 6 --pitch 200 --scheme gossip:0.7 --flows 12 --pps 6 \
             --payload 256 --duration 30 --warmup 5 --seed 9 --clients 4 \
             --client-speed 15 --csv",
        );
        assert_eq!(o.grid, 6);
        assert_eq!(o.pitch, 200.0);
        assert_eq!(o.scheme, Scheme::Gossip { p: 0.7 });
        assert_eq!(o.flows, 12);
        assert_eq!(o.payload, 256);
        assert_eq!(o.seed, 9);
        assert_eq!(o.clients, 4);
        assert!(o.csv);
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(parse_scheme("flooding").unwrap(), Scheme::Flooding);
        assert_eq!(
            parse_scheme("gossip:0.5").unwrap(),
            Scheme::Gossip { p: 0.5 }
        );
        assert_eq!(
            parse_scheme("gossip:0.5:2").unwrap(),
            Scheme::GossipK { p: 0.5, k: 2 }
        );
        assert!(matches!(
            parse_scheme("counter:4").unwrap(),
            Scheme::Counter { threshold: 4, .. }
        ));
        assert!(matches!(
            parse_scheme("distance:-75").unwrap(),
            Scheme::Distance { .. }
        ));
        assert!(parse_scheme("distance").is_err());
        assert!(matches!(parse_scheme("cnlr").unwrap(), Scheme::Cnlr(_)));
        assert!(matches!(parse_scheme("vap").unwrap(), Scheme::VapCnlr(..)));
        assert!(parse_scheme("nope").is_err());
        assert!(parse_scheme("gossip").is_err());
        assert!(parse_scheme("gossip:x").is_err());
    }

    #[test]
    fn fault_flags() {
        let o = opts("--fail 5@10 --fail 7@12:20 --churn 120,8");
        assert_eq!(o.fails, vec![(5, 10.0, None), (7, 12.0, Some(20.0))]);
        assert_eq!(o.churn, Some((120.0, 8.0)));
        assert!(parse_fail("5").is_err());
        assert!(parse_fail("x@10").is_err());
        assert!(parse_fail("5@10:9").is_err());
        assert!(parse_churn("120").is_err());
        assert!(parse_churn("0,8").is_err());
        assert!(parse_churn("120,-1").is_err());
    }

    #[test]
    fn scale_flags() {
        let o = opts("--nodes 1000 --random --flows 50");
        assert_eq!(o.nodes, Some(1000));
        assert!(o.random_placement);
        assert_eq!(o.flows, 50);
        assert!(parse_args(&argv("--nodes 2")).is_err());
        assert!(parse_args(&argv("--nodes 20000")).is_err());
        assert!(parse_args(&argv("--random")).is_err(), "--random alone");
    }

    #[test]
    fn parmesh_flags() {
        let o = opts(
            "--parmesh --nodes 100000 --threads 8 --regions 64 --trace-out /tmp/t.jsonl \
             --profile-out /tmp/p.json",
        );
        assert!(o.parmesh);
        assert_eq!(o.nodes, Some(100_000));
        assert_eq!(o.threads, 8);
        assert_eq!(o.regions, Some(64));
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(o.profile_out.as_deref(), Some("/tmp/p.json"));
        assert!(parse_args(&argv("--parmesh")).is_err(), "needs --nodes");
        assert!(
            parse_args(&argv("--nodes 1000 --threads 2")).is_err(),
            "--threads without --parmesh"
        );
        assert!(
            parse_args(&argv("--nodes 1000 --profile-out /tmp/p.json")).is_err(),
            "--profile-out without --parmesh"
        );
        assert!(
            parse_args(&argv("--nodes 100000")).is_err(),
            "classic stack caps at 10000"
        );
        assert!(parse_args(&argv("--parmesh --nodes 100000 --threads 0")).is_err());
    }

    #[test]
    fn million_node_cap_and_steal_flags() {
        let o = opts("--parmesh --nodes 1000000 --steal off --trace-hash");
        assert_eq!(o.nodes, Some(1_000_000));
        assert_eq!(o.steal, Some(false));
        assert!(o.trace_hash);
        assert_eq!(opts("--parmesh --nodes 1000 --steal on").steal, Some(true));
        assert_eq!(opts("--parmesh --nodes 1000").steal, None, "engine default");
        assert!(
            parse_args(&argv("--parmesh --nodes 1000001")).is_err(),
            "parmesh caps at one million nodes"
        );
        assert!(
            parse_args(&argv("--nodes 200000")).is_err(),
            "classic stack still caps at 10000"
        );
        assert!(parse_args(&argv("--parmesh --nodes 1000 --steal maybe")).is_err());
        assert!(parse_args(&argv("--nodes 1000 --steal off")).is_err());
        assert!(parse_args(&argv("--trace-hash")).is_err());
        assert!(
            parse_args(&argv(
                "--parmesh --nodes 1000 --trace-hash --checkpoint-dir /tmp/ck"
            ))
            .is_err(),
            "--trace-hash cannot combine with checkpoints"
        );
    }

    #[test]
    fn errors() {
        assert!(parse_args(&argv("--grid")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(parse_args(&argv("--grid 1")).is_err());
        assert!(parse_args(&argv("--duration 5 --warmup 9")).is_err());
    }

    /// Every flag that takes a real number, each with `v` in the one slot
    /// under test and everything else valid.
    fn real_flag_uses(v: &str) -> [String; 8] {
        [
            format!("--pitch {v}"),
            format!("--nodes 25 --duration 3 --warmup 1 --pps {v}"),
            format!("--duration {v}"),
            format!("--warmup {v}"),
            format!("--clients 3 --client-speed {v}"),
            format!("--churn {v},5"),
            format!("--fail 3@{v}"),
            format!("--parmesh --nodes 1000 --checkpoint-dir /tmp/ck --checkpoint-every {v}"),
        ]
    }

    fn rejected(args: &str) -> bool {
        parse_args(&argv(args)).is_err()
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for v in ["nan", "NaN", "inf", "-inf", "infinity"] {
            for args in real_flag_uses(v) {
                assert!(rejected(&args), "{args}");
            }
            assert!(parse_churn(&format!("60,{v}")).is_err(), "--churn mttr {v}");
            assert!(
                parse_fail(&format!("3@2:{v}")).is_err(),
                "--fail up time {v}"
            );
        }
    }

    #[test]
    fn negative_numbers_are_rejected() {
        for v in ["-1", "-0.5", "-1e-9"] {
            for args in real_flag_uses(v) {
                assert!(rejected(&args), "{args}");
            }
        }
    }

    #[test]
    fn zero_is_rejected_where_a_positive_value_is_needed() {
        for args in real_flag_uses("0") {
            // --warmup 0 and a crash at t = 0 are meaningful.
            let zero_ok = args.starts_with("--warmup") || args.starts_with("--fail");
            assert_eq!(rejected(&args), !zero_ok, "{args}");
        }
        assert!(parse_churn("60,0").is_err());
    }

    #[test]
    fn numbers_past_their_caps_are_rejected() {
        // Past the cap a duration saturates the nanosecond clock and a rate
        // rounds its gap to zero: runs that would never return.
        for v in ["2e6", "1e300"] {
            // Any finite client speed runs, so it has no cap.
            for args in real_flag_uses(v) {
                assert_eq!(rejected(&args), !args.contains("--client-speed"), "{args}");
            }
            assert!(parse_churn(&format!("60,{v}")).is_err(), "--churn mttr {v}");
            assert!(
                parse_fail(&format!("3@2:{v}")).is_err(),
                "--fail up time {v}"
            );
        }
        // The caps themselves are accepted.
        let o = opts("--duration 1e6 --pps 1e6 --grid 2 --pitch 5e4");
        assert_eq!((o.duration_s, o.pps, o.pitch), (1e6, 1e6, 5e4));
        // The field side is capped, not the pitch alone; --nodes sets its
        // own pitch.
        assert!(rejected("--grid 20 --pitch 1e5"));
        assert!(rejected("--grid 20 --pitch 5001"));
        assert_eq!(opts("--nodes 100 --pitch 1e5").nodes, Some(100));
    }

    #[test]
    fn zero_regions_is_rejected() {
        assert!(rejected("--parmesh --nodes 1000 --regions 0"));
        assert_eq!(opts("--parmesh --nodes 1000 --regions 1").regions, Some(1));
    }

    #[test]
    fn help_is_not_an_error() {
        assert_eq!(parse_args(&argv("--help")).unwrap(), Parsed::Help);
        assert_eq!(parse_args(&argv("-h")).unwrap(), Parsed::Help);
        // --help wins even mid-line: the user asked for usage, print it.
        assert_eq!(parse_args(&argv("--grid 6 --help")).unwrap(), Parsed::Help);
    }

    #[test]
    fn checkpoint_flags() {
        let o =
            opts("--parmesh --nodes 1000 --checkpoint-dir /tmp/ck --checkpoint-every 2.5 --resume");
        assert_eq!(o.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.checkpoint_every_s, Some(2.5));
        assert!(o.resume);
        // Parmesh-only and dependency validation.
        assert!(
            parse_args(&argv("--nodes 1000 --checkpoint-dir /tmp/ck")).is_err(),
            "--checkpoint-dir without --parmesh"
        );
        assert!(
            parse_args(&argv("--parmesh --nodes 1000 --resume")).is_err(),
            "--resume without --checkpoint-dir"
        );
        assert!(
            parse_args(&argv("--parmesh --nodes 1000 --checkpoint-every 1")).is_err(),
            "--checkpoint-every without --checkpoint-dir"
        );
        assert!(parse_args(&argv(
            "--parmesh --nodes 1000 --checkpoint-dir /tmp/ck --checkpoint-every 0"
        ))
        .is_err());
        // Strict parsing: missing values exit through the error path.
        assert!(parse_args(&argv("--checkpoint-dir")).is_err());
        assert!(parse_args(&argv("--checkpoint-every")).is_err());
    }
}
