//! The repository benchmark: runs one named workload for a fixed time
//! from a seed, checks the outputs, and prints every metric by name with
//! its unit and sample count. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flood_socket --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced session and the layer ladder and reports
//! the per-layer metrics instead. See `perfbench/NOTES.md`.

mod common;
mod flood;
mod ladder;
mod nas;
mod run;
mod serve_live;
mod stats;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("app_slowdown", "ratio"),
    ("drain_ms", "ms"),
    ("wire_bytes_per_event", "bytes"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("gen_late_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("runtime.sendrecv_us_p50", "us"),
    ("runtime.socket_bytes_per_event", "bytes"),
    ("runtime.socket_frames", "count"),
    ("instrument.call_ns_p50", "ns"),
    ("instrument.call_ns_p99", "ns"),
    ("instrument.in_call_frac", "frac"),
    ("events.encode_ns_per_event", "ns"),
    ("events.decode_ns_per_event", "ns"),
    ("events.bytes_per_event", "bytes"),
    ("vmpi.write_us_per_block", "us"),
    ("vmpi.read_wait_us_per_block", "us"),
    ("vmpi.again_per_block", "count"),
    ("analysis.post_ns_per_event", "ns"),
    ("analysis.finish_ms", "ms"),
    ("analysis.events_per_busy_s", "events/s"),
    ("blackboard.ks_invocations_per_block", "count"),
    ("blackboard.drops", "count"),
    ("metrics.fold_ns_per_event", "ns"),
    ("metrics.series_bytes", "bytes"),
    ("reduce.measured_ratio", "ratio"),
    ("reduce.encode_us", "us"),
    ("reduce.decode_us", "us"),
    ("serve.publish_us", "us"),
    ("serve.encode_delta_us", "us"),
    ("serve.apply_delta_us", "us"),
    ("serve.delta_bytes", "bytes"),
    ("serve.update_lag_ms_p50", "ms"),
    ("serve.update_lag_ms_p99", "ms"),
    ("serve.resync_per_update", "frac"),
    ("trace.events_per_s_untraced", "events/s"),
    ("trace.events_per_s_traced", "events/s"),
    ("trace.app_slowdown_untraced", "ratio"),
    ("trace.app_slowdown_traced", "ratio"),
    ("trace.ladder_ns_per_event", "ns"),
    ("trace.measured_ns_per_event", "ns"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: [&str; 3] = ["flood_socket", "nas_tbon", "serve_live"];

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One metric as measured: value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Value>,
    /// Operations attempted: sessions, queries and output checks.
    pub attempted: u64,
    /// Operations that failed, were refused or produced a wrong output.
    pub failed: u64,
    /// Extra human-readable lines (tails, notes, check failures).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Value { value, samples });
    }

    /// Counts one operation; `ok == false` counts it as failed and notes
    /// why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                args.seconds = Duration::from_secs_f64(s.max(0.1));
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, args))
}

/// Formats a metric value with every digit it was measured with.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line: exactly the keys of the output contract, with the
/// metrics of `expected` in order.
fn result_json(out: &Outcome, expected: &[(&str, &str)], correct: bool) -> String {
    let metrics: Vec<String> = expected
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).map_or(f64::NAN, |v| v.value);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match workload.as_str() {
        "flood_socket" => flood::run(&args),
        "nas_tbon" => nas::run(&args),
        _ => serve_live::run(&args),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    if !args.trace {
        out.set("peak_rss_mb", common::peak_rss_mb(), 1);
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = expected
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !out.metrics.get(n).is_some_and(|v| v.value.is_finite()))
        .collect();
    let extra: Vec<&str> = out
        .metrics
        .keys()
        .copied()
        .filter(|n| !expected.iter().any(|(e, _)| e == n))
        .collect();

    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace as u8
    );
    println!(
        "{:<36} {:>16} {:<9} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for (name, unit) in expected {
        if let Some(v) = out.metrics.get(name) {
            println!("{name:<36} {:>16.6} {unit:<9} {:>8}", v.value, v.samples);
        }
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<36} {:>16.6} {:<9} {:>8}",
        "failed_frac", failed_frac, "frac", out.attempted
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let correct = out.failed == 0 && out.attempted > 0 && missing.is_empty() && extra.is_empty();
    if !missing.is_empty() || !extra.is_empty() {
        println!("  metric set mismatch: missing {missing:?}, unexpected {extra:?}");
    }
    println!("{}", result_json(&out, expected, correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `section` of the repository's BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &text[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn end_to_end_names_match_benchmark_json() {
        let ours: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared("end_to_end"), ours);
    }

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let ours: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared("per_layer"), ours);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        assert_eq!(declared("workloads"), WORKLOADS);
    }

    #[test]
    fn result_line_names_exactly_the_expected_metrics() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.5, 3);
        out.check(true, String::new);
        let line = result_json(&out, &END_TO_END, true);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 0.5,"));
    }

    #[test]
    fn failed_checks_are_counted() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.check(false, || "bad digest".into());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.notes, ["FAILED: bad digest"]);
    }
}
