//! `wmn-perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload seq_static_1k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, checks its simulated outputs, prints
//! each metric's median with quartiles and sample count, and ends with one
//! JSON line: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). See
//! README.md for the workloads and what each metric is expected to move.

mod report;
mod stack;
mod workloads;

use report::{END_TO_END, PER_LAYER};
use workloads::{Plan, Size, DEFAULT_SEED};

const USAGE: &str = "usage: wmn-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(String, Plan), String> {
    let mut workload = None;
    let mut plan = Plan {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        pin: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                plan.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                plan.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                plan.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, plan))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, plan) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match workloads::run(&workload, &plan) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let defs = if plan.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {workload} seed {} trace {}: {} attempted, {} failed",
        plan.seed,
        u8::from(plan.trace),
        out.ledger.attempted,
        out.ledger.failed
    );
    for line in out.summary(defs) {
        println!("{line}");
    }
    println!("{}", out.result_line(defs));
}

#[cfg(test)]
mod tests {
    use super::parse;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_every_flag() {
        let (w, p) = parse(&args(
            "--workload seq_static_1k --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(w, "seq_static_1k");
        assert_eq!((p.seed, p.seconds, p.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--seed 1",
            "--workload x --seed -1",
            "--workload x --trace 2",
            "--workload x --seconds nan",
            "--workload x --bogus",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
