//! The measurement loop every workload shares: interleaved reference and
//! instrumented sessions until the time budget is spent, and the
//! reduction of their samples to the end-to-end metrics.

use crate::common::{BoxError, CallTimer, Capture, Traced};
use crate::ladder::{self, LadderCfg};
use crate::stats::{median, quartiles, relative_spread, Summary};
use crate::trace::Tracer;
use crate::traced::report_traced;
use crate::{Args, Outcome};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pairs every measurement runs at least, however short the budget.
const MIN_PAIRS: usize = 3;
/// Events per rank the ladder replays.
const LADDER_EVENTS_PER_RANK: usize = 100_000;

/// Runs a workload for `args`: untraced, it measures for the whole
/// budget and sets the end-to-end metrics; traced, it measures half the
/// budget untraced and half traced, captures one more session's events
/// and replays them through the layer ladder. `measure(out, budget, min,
/// traced)` runs the workload's pairs.
pub fn drive(
    out: &mut Outcome,
    args: &Args,
    workload: &str,
    ranks: usize,
    ladder_cfg: &LadderCfg,
    mut measure: impl FnMut(&mut Outcome, Duration, usize, Option<&Traced>) -> Result<Samples, BoxError>,
) -> Result<(), BoxError> {
    // A warm-up pair (sockets, allocator, pools) that counts for nothing.
    measure(&mut Outcome::default(), Duration::ZERO, 1, None)?;
    if !args.trace {
        let s = measure(out, args.seconds, MIN_PAIRS, None)?;
        set_end_to_end(out, &s);
        return Ok(());
    }
    let half = args.seconds / 2;
    let untraced = measure(out, half, MIN_PAIRS, None)?;
    let tr = Arc::new(Tracer::new());
    let timer = Arc::new(CallTimer::default());
    let traced = Traced {
        timer: Some(Arc::clone(&timer)),
        tracer: Some(Arc::clone(&tr)),
        capture: None,
    };
    let t = measure(out, half, MIN_PAIRS, Some(&traced))?;
    let capture = Capture::new(ranks, LADDER_EVENTS_PER_RANK);
    let last = Traced {
        capture: Some(Arc::clone(&capture)),
        ..Traced::default()
    };
    measure(out, Duration::ZERO, 1, Some(&last))?;
    let totals = ladder::run(&tr, &capture.take(), ladder_cfg, out)?;
    report_traced(
        out,
        args,
        workload,
        &tr,
        &timer.take(),
        &untraced,
        &t,
        &totals,
    )
}

/// What one instrumented session measured.
#[derive(Debug, Default)]
pub struct SessionSample {
    pub setup_s: f64,
    pub drain_ms: f64,
    /// Events analyzed per second of session wall time.
    pub rate: f64,
    pub wire_per_event: f64,
    /// First body entry to last body exit, seconds.
    pub span_s: f64,
    pub freshness_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    /// The queries were timed in one burst after the session (a batch
    /// workload's held report), not spread over it.
    pub query_burst: bool,
    /// How late each scheduled call was issued. An open-loop generator
    /// schedules every batch; a closed-loop one schedules only its first
    /// call, due when the session starts (every later call is due the
    /// moment the previous one returns, so it cannot be late).
    pub late_ms: Vec<f64>,
}

/// All pairs of one measurement.
#[derive(Default)]
pub struct Samples {
    pub sessions: Vec<SessionSample>,
    /// The reference span of each pair, seconds (aligned with `sessions`).
    pub ref_span_s: Vec<f64>,
}

impl Samples {
    fn each(&self, f: impl Fn(&SessionSample) -> f64) -> Vec<f64> {
        self.sessions.iter().map(f).collect()
    }

    pub fn rate(&self) -> f64 {
        median(&self.each(|s| s.rate))
    }

    /// Instrumented over reference span, median over pairs.
    pub fn slowdown(&self) -> f64 {
        let r: Vec<f64> = self
            .sessions
            .iter()
            .zip(&self.ref_span_s)
            .map(|(s, r)| s.span_s / r)
            .collect();
        median(&r)
    }

    /// Pooled median, and the lower quartile over sessions of each
    /// session's p99. Host preemption episodes lasting seconds inflate the
    /// p99 of every session they overlap (3.9 ms against 5–17 ms on
    /// `serve_live`); when they cover half a run, a median over sessions
    /// flips between the two, while the lower quartile still reads the
    /// system's own tail. A slower system moves every session's p99.
    fn freshness_p50_p99(&self) -> (f64, f64, usize) {
        let pooled: Vec<f64> = self
            .sessions
            .iter()
            .flat_map(|s| s.freshness_ms.iter().copied())
            .collect();
        let p99s: Vec<f64> = self
            .sessions
            .iter()
            .filter(|s| !s.freshness_ms.is_empty())
            .map(|s| Summary::at(&s.freshness_ms, 99.0))
            .collect();
        let tail = quartiles(&p99s).map_or_else(|| median(&p99s), |[q1, _, _]| q1);
        (median(&pooled), tail, pooled.len())
    }

    /// Each session's query p99, median over sessions, and a median that
    /// depends on how the queries were timed. A query is microseconds of
    /// CPU work whose time follows the host's speed at that moment, which
    /// swings by up to 2x in episodes of about 100 ms covering a share of
    /// sessions that changes from run to run. Queries spread over a
    /// session see every speed, and their pooled median moves smoothly
    /// with that share. A burst after the session sees one speed, so each
    /// session's median lands on one of the two and a median over them
    /// flips; the 10th percentile over sessions reads the least-contended
    /// ones, the code's own cost. A session's p99 is set by the interrupts
    /// and wake-ups that land in it, which the median over sessions evens
    /// out. NOTES.md has the measurements.
    fn query_p50_p99(&self) -> (f64, f64, usize) {
        let timed: Vec<&SessionSample> = self
            .sessions
            .iter()
            .filter(|s| !s.query_ms.is_empty())
            .collect();
        let per_session =
            |p: f64| -> Vec<f64> { timed.iter().map(|s| Summary::at(&s.query_ms, p)).collect() };
        let pooled: Vec<f64> = timed
            .iter()
            .flat_map(|s| s.query_ms.iter().copied())
            .collect();
        let p50 = if timed.iter().any(|s| s.query_burst) {
            Summary::at(&per_session(50.0), 10.0)
        } else {
            median(&pooled)
        };
        (p50, median(&per_session(99.0)), pooled.len())
    }
}

/// Runs `pair(n)` for n = 0, 1, ... until `budget` is spent and at least
/// `min` pairs ran. A pair returns its session sample and reference span,
/// or `None` when the session failed (already counted by the caller).
pub fn measure(
    budget: Duration,
    min: usize,
    mut pair: impl FnMut(u64) -> Result<Option<(SessionSample, f64)>, BoxError>,
) -> Result<Samples, BoxError> {
    let mut s = Samples::default();
    let start = Instant::now();
    let mut n = 0;
    while (n as usize) < min || start.elapsed() < budget {
        if let Some((session, reference)) = pair(n)? {
            s.sessions.push(session);
            s.ref_span_s.push(reference);
        }
        n += 1;
    }
    Ok(s)
}

/// Runs the reference and the instrumented side of pair `n`, alternating
/// which goes first.
pub fn alternate<T>(
    n: u64,
    reference: impl FnOnce() -> Result<f64, BoxError>,
    instrumented: impl FnOnce() -> Result<T, BoxError>,
) -> Result<(T, f64), BoxError> {
    if n.is_multiple_of(2) {
        let r = reference()?;
        Ok((instrumented()?, r))
    } else {
        let i = instrumented()?;
        Ok((i, reference()?))
    }
}

/// Reduces the samples to the end-to-end metrics.
pub fn set_end_to_end(out: &mut Outcome, s: &Samples) {
    let n = s.sessions.len();
    let each = |f: fn(&SessionSample) -> f64| s.each(f);
    out.set("setup_s", median(&each(|x| x.setup_s)), n);
    out.set("events_per_s", s.rate(), n);
    out.set("app_slowdown", s.slowdown(), n);
    out.set("drain_ms", median(&each(|x| x.drain_ms)), n);
    out.set(
        "wire_bytes_per_event",
        median(&each(|x| x.wire_per_event)),
        n,
    );
    let (f50, f99, nf) = s.freshness_p50_p99();
    out.set("freshness_p50_ms", f50, nf);
    out.set("freshness_p99_ms", f99, nf);
    let (q50, q99, nq) = s.query_p50_p99();
    out.set("query_p50_ms", q50, nq);
    out.set("query_p99_ms", q99, nq);
    // p90: sleep wake-ups put the p99 at the mercy of the host.
    let p90s: Vec<f64> = s
        .sessions
        .iter()
        .map(|x| Summary::at(&x.late_ms, 90.0))
        .collect();
    let nl = s.sessions.iter().map(|x| x.late_ms.len()).sum();
    out.set("gen_late_ms", median(&p90s), nl);
    for (name, v) in [
        ("setup_s", each(|x| x.setup_s)),
        ("events_per_s", each(|x| x.rate)),
        ("drain_ms", each(|x| x.drain_ms)),
    ] {
        if let (Some([q1, q2, q3]), Some(sp)) = (quartiles(&v), relative_spread(&v)) {
            out.notes.push(format!(
                "{name} over {n} sessions: q1={q1:.6} median={q2:.6} q3={q3:.6} spread={sp:.3}"
            ));
        }
    }
    for (name, pooled) in [
        (
            "freshness_ms",
            s.sessions
                .iter()
                .flat_map(|x| x.freshness_ms.clone())
                .collect::<Vec<_>>(),
        ),
        (
            "query_ms",
            s.sessions.iter().flat_map(|x| x.query_ms.clone()).collect(),
        ),
        (
            "late_ms",
            s.sessions.iter().flat_map(|x| x.late_ms.clone()).collect(),
        ),
    ] {
        let sm = Summary::of(&pooled);
        if let Some((p, t)) = sm.tail {
            out.notes.push(format!(
                "{name} pooled over {n} sessions: n={} p50={:.4} p{p}={t:.4}",
                sm.n, sm.p50
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sessions(burst: bool) -> Samples {
        let sessions = [[1.0, 1.0, 2.0], [5.0, 5.0, 6.0], [9.0, 9.0, 10.0]]
            .into_iter()
            .map(|q| SessionSample {
                query_ms: q.to_vec(),
                query_burst: burst,
                ..SessionSample::default()
            })
            .collect();
        Samples {
            sessions,
            ref_span_s: vec![1.0; 3],
        }
    }

    #[test]
    fn spread_queries_pool_their_median() {
        // Pooled median 5; per-session p99s 2, 6, 10.
        assert_eq!(sessions(false).query_p50_p99(), (5.0, 6.0, 9));
    }

    #[test]
    fn burst_queries_take_the_least_contended_sessions_median() {
        // Per-session medians 1, 5, 9: the 10th percentile is the first.
        assert_eq!(sessions(true).query_p50_p99(), (1.0, 6.0, 9));
    }
}
