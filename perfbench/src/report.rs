//! Metric names, summary statistics, failure accounting and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;

/// One metric the benchmark reports: its name, unit and which direction
/// is an improvement. `BENCHMARK.json` lists the same metrics (a test
/// keeps the two in step).
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("events_per_s", "1/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Printed by every traced run (`--trace 1`). A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("network.rx_end.ns", "ns", "lower"),
    m("network.rx_end.count", "count", "lower"),
    m("network.tx_end.ns", "ns", "lower"),
    m("network.tx_end.count", "count", "lower"),
    m("network.mac_timer.ns", "ns", "lower"),
    m("network.mac_timer.count", "count", "lower"),
    m("network.routing_timer.ns", "ns", "lower"),
    m("network.routing_timer.count", "count", "lower"),
    m("network.delayed_broadcast.ns", "ns", "lower"),
    m("network.delayed_broadcast.count", "count", "lower"),
    m("network.mobility.ns", "ns", "lower"),
    m("network.mobility.count", "count", "lower"),
    m("network.fault.ns", "ns", "lower"),
    m("network.fault.count", "count", "lower"),
    m("network.traffic_emit.ns", "ns", "lower"),
    m("network.traffic_emit.count", "count", "lower"),
    m("sim.queue.ns", "ns", "lower"),
    m("sim.events", "count", "lower"),
    m("medium.tx_started", "count", "lower"),
    m("medium.link_budgets", "count", "lower"),
    m("medium.pathloss_evals", "count", "lower"),
    m("medium.cache_hit_ratio", "ratio", "higher"),
    m("medium.collisions", "count", "lower"),
    m("mac.data_tx_attempts", "count", "lower"),
    m("mac.retries", "count", "lower"),
    m("mac.backoffs", "count", "lower"),
    m("routing.rreq_tx", "count", "lower"),
    m("routing.control_tx", "count", "lower"),
    m("routing.saved_rebroadcast", "ratio", "higher"),
    m("routing.discovery_success", "ratio", "higher"),
    m("builder.prefix.ns", "ns", "lower"),
    m("builder.assemble.ns", "ns", "lower"),
    m("sweep.jobs", "count", "higher"),
    m("sweep.job_wall_p50_s", "s", "lower"),
    m("sweep.job_wall_p90_s", "s", "lower"),
    m("sweep.worker_idle_share", "ratio", "lower"),
    m("sweep.prefix_dup_share", "ratio", "lower"),
    m("shard.epochs", "count", "lower"),
    m("shard.events_per_epoch", "count", "higher"),
    m("shard.wall_per_epoch_us", "us", "lower"),
    m("shard.busy_ns", "ns", "lower"),
    m("shard.merge_ns", "ns", "lower"),
    m("shard.barrier_wait_share", "ratio", "lower"),
    m("shard.imbalance_factor", "ratio", "lower"),
    m("shard.steal_epochs", "count", "lower"),
    m("shard.regions_moved", "count", "lower"),
    m("shard.cross_region", "count", "lower"),
    m("trace.overhead_frac", "ratio", "lower"),
    m("failed_frac", "ratio", "lower"),
];

/// `(q1, median, q3)` of `values` by linear interpolation between order
/// statistics; all zero for an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over a canonical text rendering of a run's outputs.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Counts attempted and failed units of work (runs or jobs) and checks
/// their outputs. Units that repeat the same work share a slot: a sweep
/// job is slot `job index`, a single-scenario workload uses slot 0. Each
/// unit's output digest must equal the first digest its slot saw, so every
/// repeat agrees with the others; [`Ledger::check_pin`] then compares the
/// slots' combined fingerprint with a pinned one.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    expected: Vec<Option<u64>>,
}

impl Ledger {
    /// Record one unit of work in `slot`: its digest, or why it produced
    /// none (a panic or a build error). Returns whether it passed.
    pub fn record(&mut self, slot: usize, what: &str, outcome: Result<u64, String>) -> bool {
        self.attempted += 1;
        if self.expected.len() <= slot {
            self.expected.resize(slot + 1, None);
        }
        let ok = match (outcome, self.expected[slot]) {
            (Ok(d), None) => {
                self.expected[slot] = Some(d);
                true
            }
            (Ok(d), Some(e)) if e == d => true,
            (Ok(d), Some(e)) => {
                eprintln!("[perfbench] {what}: output digest {d:016x}, expected {e:016x}");
                false
            }
            (Err(why), _) => {
                eprintln!("[perfbench] {what}: {why}");
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Record a failure that is not about one unit's own output (a traced
    /// run that disagrees with its untraced twin).
    pub fn fail(&mut self, what: &str) {
        eprintln!("[perfbench] {what}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// The outputs fingerprint: every slot's first digest, folded in slot
    /// order. `None` if some slot never produced an output.
    pub fn fingerprint(&self) -> Option<u64> {
        let digests: Option<Vec<u64>> = self.expected.iter().copied().collect();
        let digests = digests.filter(|d| !d.is_empty())?;
        Some(digest(&format!("{digests:x?}")))
    }

    /// Compare the outputs fingerprint with `pinned`. On a mismatch every
    /// unit attempted counts as failed: none of them can be trusted.
    pub fn check_pin(&mut self, pinned: u64) {
        let got = self.fingerprint();
        if got != Some(pinned) {
            eprintln!("[perfbench] outputs fingerprint {got:016x?}, pinned {pinned:016x}");
            self.failed = self.attempted.max(1);
            self.attempted = self.failed;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(s) => format!("panicked: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panicked: {s}"),
                None => "panicked".to_string(),
            },
        }),
    }
}

/// What one benchmark run measured: per-metric samples (each reported as
/// its median) plus the failure ledger.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ledger: Ledger,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Set a metric to a single value, replacing any samples.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, vec![value]);
    }

    /// The reported value of `name`: the median of its samples, 0 when a
    /// workload never touched that layer.
    pub fn value(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| median(s))
    }

    /// Human-readable lines: each metric's median, quartiles and sample
    /// count.
    pub fn summary(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .map(|d| {
                let s = self.samples.get(d.name).map_or(&[][..], |v| &v[..]);
                let (q1, med, q3) = quartiles(s);
                format!(
                    "{:<34} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n={} ({} is better)",
                    d.name,
                    med,
                    d.unit,
                    q1,
                    q3,
                    s.len(),
                    d.better
                )
            })
            .collect()
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and every
    /// metric in `defs` with its unit.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut failed = self.ledger.failed;
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let mut v = self.value(d.name);
            if !v.is_finite() {
                eprintln!("[perfbench] metric {} is not finite", d.name);
                failed += 1;
                v = 0.0;
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            ));
        }
        // A run that attempted nothing checked nothing, so it is not correct.
        let attempted = self.ledger.attempted.max(failed);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            attempted.max(1),
            failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
pub mod json {
    //! A minimal JSON reader for the benchmark's own tests.

    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing input at byte {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, i);
        if b.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, *i))
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        expect(b, i, b'"')?;
        let start = *i;
        while *i < b.len() && b[*i] != b'"' {
            if b[*i] == b'\\' {
                return Err("escapes are not used by the benchmark".into());
            }
            *i += 1;
        }
        let s = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
        expect(b, i, b'"')?;
        Ok(s.to_string())
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Json, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut kv = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    let k = string(b, i)?;
                    expect(b, i, b':')?;
                    kv.push((k, value(b, i)?));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("bad object at byte {}", *i)),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", *i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(string(b, i)?)),
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Json::Null)
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                let s = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
                s.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {s:?} at byte {start}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Json};
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.5, 2.0, 2.5));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 90.0), 4.0);
    }

    #[test]
    fn ledger_holds_repeats_to_their_slot_and_the_pin() {
        let mut l = Ledger::default();
        assert!(l.record(0, "a", Ok(7)));
        assert!(l.record(1, "b", Ok(9)));
        assert!(l.record(0, "c", Ok(7)));
        assert!(!l.record(0, "d", Ok(8)));
        assert!(!l.record(1, "e", Err("panicked".into())));
        assert_eq!((l.attempted, l.failed), (5, 2));

        let pin = l.fingerprint().expect("both slots ran");
        l.check_pin(pin);
        assert_eq!(l.failed, 2);
        l.check_pin(pin ^ 1);
        assert_eq!(l.failed_frac(), 1.0);
    }

    #[test]
    fn guarded_turns_panics_into_errors() {
        let r: Result<(), String> = guarded(|| panic!("boom"));
        assert_eq!(r, Err("panicked: boom".to_string()));
    }

    #[test]
    fn result_line_round_trips() {
        let mut o = Outcome::default();
        o.ledger.record(0, "run", Ok(1));
        o.push("wall_s", 1.25);
        o.push("wall_s", 1.5);
        o.push("wall_s", 1.75);
        o.set("events_per_s", 123456.789);
        let line = o.result_line(END_TO_END);
        let j = parse(&line).expect("valid JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted"), Some(&Json::Num(1.0)));
        assert_eq!(j.get("failed"), Some(&Json::Num(0.0)));
        let metrics = j.get("metrics").expect("metrics");
        for d in END_TO_END {
            let mj = metrics.get(d.name).expect(d.name);
            assert_eq!(mj.get("unit"), Some(&Json::Str(d.unit.to_string())));
            assert!(matches!(mj.get("value"), Some(Json::Num(_))));
        }
        let wall = metrics.get("wall_s").and_then(|m| m.get("value"));
        assert_eq!(wall, Some(&Json::Num(1.5)));
        let eps = metrics.get("events_per_s").and_then(|m| m.get("value"));
        assert_eq!(eps, Some(&Json::Num(123456.789)));
    }

    #[test]
    fn non_finite_metric_is_a_failure() {
        let mut o = Outcome::default();
        o.ledger.record(0, "run", Ok(1));
        o.set("wall_s", f64::NAN);
        let j = parse(&o.result_line(END_TO_END)).expect("valid JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
    }

    /// `BENCHMARK.json` at the repository root must name exactly these
    /// metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let j = parse(&text).expect("valid JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = j.get(key) else {
                panic!("{key} missing");
            };
            assert_eq!(items.len(), defs.len(), "{key} length");
            for (item, d) in items.iter().zip(defs) {
                assert_eq!(item.get("name"), Some(&Json::Str(d.name.into())));
                assert_eq!(item.get("unit"), Some(&Json::Str(d.unit.into())));
                assert_eq!(item.get("better"), Some(&Json::Str(d.better.into())));
            }
        }
        let Some(Json::Arr(workloads)) = j.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let expected: Vec<Json> = crate::workloads::NAMES
            .iter()
            .map(|n| Json::Str(n.to_string()))
            .collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }
}
