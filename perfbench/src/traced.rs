//! The traced run's report: per-layer metrics shared by every workload,
//! the tracing overhead, and the spans written to disk.

use crate::common::{BoxError, CallTimes};
use crate::ladder::LadderTotals;
use crate::run::Samples;
use crate::stats::Summary;
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};

/// Sets the per-layer metrics every traced run shares and writes the
/// spans to `.bench_out/trace/<workload>-seed<seed>.jsonl`. Layers the
/// workload bypasses read 0 until the workload overrides them.
#[allow(clippy::too_many_arguments)]
pub fn report_traced(
    out: &mut Outcome,
    args: &Args,
    workload: &str,
    tr: &Tracer,
    calls: &CallTimes,
    untraced: &Samples,
    traced: &Samples,
    totals: &LadderTotals,
) -> Result<(), BoxError> {
    for name in [
        "runtime.socket_bytes_per_event",
        "runtime.socket_frames",
        "serve.update_lag_ms_p50",
        "serve.update_lag_ms_p99",
        "serve.resync_per_update",
    ] {
        out.set(name, 0.0, 0);
    }
    out.set("reduce.measured_ratio", totals.reduce_ratio, 1);
    let spans = tr.spans();
    let sendrecv_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "runtime.sendrecv")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let or_zero = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { Summary::at(v, p) };
    out.set(
        "runtime.sendrecv_us_p50",
        or_zero(&sendrecv_us, 50.0),
        sendrecv_us.len(),
    );
    let n_calls = calls.sampled_ns.len();
    out.set(
        "instrument.call_ns_p50",
        or_zero(&calls.sampled_ns, 50.0),
        n_calls,
    );
    out.set(
        "instrument.call_ns_p99",
        or_zero(&calls.sampled_ns, 99.0),
        n_calls,
    );
    out.set(
        "instrument.in_call_frac",
        calls.in_call_ns as f64 / calls.body_ns.max(1) as f64,
        calls.calls as usize,
    );
    let (ur, tr_rate) = (untraced.rate(), traced.rate());
    let (us, ts) = (untraced.slowdown(), traced.slowdown());
    out.set("trace.events_per_s_untraced", ur, untraced.sessions.len());
    out.set("trace.events_per_s_traced", tr_rate, traced.sessions.len());
    out.set("trace.app_slowdown_untraced", us, untraced.sessions.len());
    out.set("trace.app_slowdown_traced", ts, traced.sessions.len());
    let ladder_ns = totals.self_ns as f64 / totals.events.max(1) as f64;
    let measured_ns = 1e9 / ur;
    out.set(
        "trace.ladder_ns_per_event",
        ladder_ns,
        totals.events as usize,
    );
    out.set(
        "trace.measured_ns_per_event",
        measured_ns,
        untraced.sessions.len(),
    );
    out.set("trace.spans", spans.len() as f64, spans.len());
    out.notes.push(format!(
        "tracing overhead: events_per_s {ur:.0} untraced vs {tr_rate:.0} traced ({:+.1}%), \
         app_slowdown {us:.3} vs {ts:.3}",
        (tr_rate / ur - 1.0) * 100.0
    ));
    out.notes.push(format!(
        "ladder self time {ladder_ns:.1} ns per event beside the measured {measured_ns:.1} ns \
         (1 / events_per_s): {:.0}%",
        ladder_ns / measured_ns * 100.0
    ));
    for (name, (n, total, self_ns)) in trace::totals(&spans) {
        out.notes.push(format!(
            "span {name:<28} n={n:<8} total={:>10.3} ms self={:>10.3} ms",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    let path = std::path::Path::new(".bench_out")
        .join("trace")
        .join(format!("{workload}-seed{}.jsonl", args.seed));
    let written = tr.write_jsonl(&path)?;
    out.notes
        .push(format!("{written} spans written to {}", path.display()));
    Ok(())
}
