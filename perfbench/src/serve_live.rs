//! `serve_live`: one application rank emits seeded POSIX and MPI-like
//! calls in an open loop — a batch every `PERIOD`, sleeping in between —
//! into a `Coupling::Serving` session with one serving rank and small
//! stream blocks, so packs seal every few milliseconds. One client rank
//! subscribes and, after each update, issues a profile query and a
//! density query (a closed loop).

use crate::common::{timed, wire_bytes, BoxError, CallTimes, Probe, Rng, Traced};
use crate::ladder::LadderCfg;
use crate::run::{self, alternate, Samples, SessionSample};
use crate::stats::Summary;
use crate::trace::{Tracer, ROOT};
use crate::{Args, Outcome};
use opmr_analysis::wire::encode_partials;
use opmr_core::{Coupling, Session, SessionBuilder, SessionOutcome};
use opmr_events::EventKind;
use opmr_instrument::InstrumentedMpi;
use opmr_runtime::{Launcher, RankError};
use opmr_serve::{ServeClient, ServeConfig};
use opmr_vmpi::{Balance, StreamConfig, Vmpi};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Calls per batch; the last one of each batch is MPI-like.
const BATCH: usize = 8;
const PERIOD: Duration = Duration::from_millis(1);
const BATCHES: usize = 500;
/// 1 KiB blocks hold 20 fixed-layout events: a pack seals every 2.5 ms.
const BLOCK: usize = 1024;
const METRICS_WINDOW_NS: u64 = 1_000_000;

fn stream() -> StreamConfig {
    StreamConfig::new(BLOCK, 4, Balance::None)
}

#[derive(Clone, Copy)]
enum Call {
    Posix { kind: EventKind, bytes: u64 },
    Barrier,
    Allreduce,
}

/// The generated batches.
struct Plan {
    batches: Vec<[Call; BATCH]>,
}

fn plan(seed: u64) -> Plan {
    const POSIX: [EventKind; 3] = [
        EventKind::PosixWrite,
        EventKind::PosixRead,
        EventKind::PosixOpen,
    ];
    let mut rng = Rng::new(seed);
    let batches = (0..BATCHES)
        .map(|_| {
            let mut b = [Call::Barrier; BATCH];
            for c in b.iter_mut().take(BATCH - 1) {
                let kind = POSIX[rng.below(3) as usize];
                let bytes = match kind {
                    EventKind::PosixOpen => 0,
                    _ => rng.below(1 << 20),
                };
                *c = Call::Posix { kind, bytes };
            }
            if rng.below(2) == 0 {
                b[BATCH - 1] = Call::Allreduce;
            }
            b
        })
        .collect();
    Plan { batches }
}

fn issue(imp: &InstrumentedMpi, world: &opmr_runtime::Comm, c: Call) -> opmr_vmpi::Result<()> {
    match c {
        Call::Posix { kind, bytes } => imp.posix(kind, bytes, Duration::from_micros(3)),
        Call::Barrier => imp.barrier(world),
        Call::Allreduce => imp.allreduce_sum(world, &[1u64]).map(|_| ()),
    }
}

/// What the open-loop generator and the subscriber observe.
#[derive(Default)]
struct Observed {
    /// When the schedule started (batch `b` is due at `t0 + b * PERIOD`).
    t0: OnceLock<Instant>,
    /// Set once the subscription is registered; the schedule waits for it.
    subscribed: AtomicBool,
    late_ms: Mutex<Vec<f64>>,
    gen_span_s: Mutex<f64>,
    sub: Mutex<Subscriber>,
}

#[derive(Default)]
struct Subscriber {
    freshness_ms: Vec<f64>,
    query_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    updates: u64,
    resyncs: u64,
    query_failures: u64,
    /// `(shard, version, folded bytes)` of every update, for the audit.
    seen: Vec<(u16, u64, bytes::Bytes)>,
    /// The folded bytes the subscriber holds at the end.
    last: Option<bytes::Bytes>,
}

/// Waits (sleeping) for the subscription, at most a few seconds.
fn wait_subscribed(obs: &Observed) {
    let give_up = Instant::now() + Duration::from_secs(5);
    while !obs.subscribed.load(Ordering::Acquire) && Instant::now() < give_up {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Runs the schedule: sleep until each batch is due, then issue it.
fn generate(
    plan: &Plan,
    obs: &Observed,
    mut issue_batch: impl FnMut(&[Call; BATCH]) -> Result<(), RankError>,
) -> Result<(), RankError> {
    let t0 = *obs.t0.get_or_init(Instant::now);
    let mut late = Vec::with_capacity(plan.batches.len());
    for (b, batch) in plan.batches.iter().enumerate() {
        let due = t0 + PERIOD * b as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        issue_batch(batch)?;
    }
    *obs.gen_span_s.lock() = t0.elapsed().as_secs_f64();
    obs.late_ms.lock().extend(late);
    Ok(())
}

fn fold_events(c: &ServeClient, shard: u16) -> u64 {
    c.shard_report(shard)
        .map_or(0, |r| r.parts.iter().map(|p| p.profile.events()).sum())
}

fn client_body(
    c: &mut ServeClient,
    obs: &Observed,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(), RankError> {
    let span = |name: &'static str, f: &mut dyn FnMut() -> Result<(), RankError>| match tracer {
        Some(t) => t.span(ROOT, 0, name, f),
        None => f(),
    };
    c.subscribe()?;
    c.version_info()?;
    obs.subscribed.store(true, Ordering::Release);
    let mut sub = Subscriber::default();
    loop {
        let mut got = None;
        span("serve.next_update", &mut || {
            got = c.next_update()?;
            Ok(())
        })?;
        let u = got.ok_or("subscription ended before the final update")?;
        let held_at = Instant::now();
        sub.updates += 1;
        sub.resyncs += u.resync as u64;
        sub.lag_ms.push(u.lag_ns as f64 / 1e6);
        let held = c.shard_report(u.shard).ok_or("update left no report")?;
        sub.seen.push((u.shard, u.version, held.encoded.clone()));
        // The newest event held: index 0 is Init, batch b holds indices
        // 1 + b*BATCH ..= (b+1)*BATCH.
        let events = fold_events(c, u.shard);
        if let (Some(t0), Some(newest)) = (obs.t0.get(), events.checked_sub(2)) {
            let batch = newest / BATCH as u64;
            if batch < BATCHES as u64 {
                let due = *t0 + PERIOD * batch as u32;
                sub.freshness_ms
                    .push(held_at.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }
        if u.finished {
            sub.last = Some(held.encoded.clone());
            break;
        }
        for kind in ["serve.query_profile", "serve.query_density"] {
            let t = Instant::now();
            let r = span(kind, &mut || {
                if kind == "serve.query_profile" {
                    c.query_profile(0, 0, 0, u32::MAX)?;
                } else {
                    c.query_density(0, 0, 0, u32::MAX)?;
                }
                Ok(())
            });
            sub.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
            sub.query_failures += r.is_err() as u64;
        }
    }
    *obs.sub.lock() = sub;
    Ok(())
}

fn session(
    plan: &Arc<Plan>,
    probe: &Arc<Probe>,
    obs: &Arc<Observed>,
    traced: Option<&Traced>,
) -> SessionBuilder {
    let (p, pr, o, t) = (
        Arc::clone(plan),
        Arc::clone(probe),
        Arc::clone(obs),
        traced.cloned(),
    );
    let (co, ct) = (Arc::clone(obs), traced.and_then(|t| t.tracer.clone()));
    Session::builder()
        .analyzer_ranks(1)
        .coupling(Coupling::Serving)
        .engine_config(opmr_analysis::EngineConfig {
            workers: 2,
            ..Default::default()
        })
        .metrics(METRICS_WINDOW_NS)
        .stream_config(stream())
        .serve_config(ServeConfig {
            publish_every_packs: 1,
            ring: 4096,
            ..ServeConfig::default()
        })
        .app_try("live", 1, move |imp| {
            let t = t.clone().unwrap_or_default();
            t.body(imp, |mut local: Option<&mut CallTimes>| {
                pr.enter();
                wait_subscribed(&o);
                let world = imp.comm_world();
                generate(&p, &o, |batch| {
                    for &c in batch {
                        timed(&mut local, || issue(imp, &world, c))?;
                    }
                    Ok(())
                })?;
                pr.exit();
                Ok(())
            })
        })
        .client_try("subscriber", 1, move |c| client_body(c, &co, ct.as_ref()))
}

/// The same schedule without instrumentation: POSIX calls are synthetic
/// and cost nothing; MPI-like calls go to the raw runtime.
fn run_reference(plan: &Arc<Plan>, obs: &Arc<Observed>) -> Result<(), BoxError> {
    let (plan, obs) = (Arc::clone(plan), Arc::clone(obs));
    Launcher::new()
        .partition_try("live", 1, move |mpi| {
            let v = Vmpi::new(mpi)?;
            let world = v.comm_world();
            generate(&plan, &obs, |batch| {
                for &c in batch {
                    match c {
                        Call::Posix { kind, bytes } => {
                            std::hint::black_box((kind, bytes));
                        }
                        Call::Barrier => v.mpi().barrier(&world)?,
                        Call::Allreduce => {
                            opmr_runtime::collectives::allreduce_t(
                                v.mpi(),
                                &world,
                                &[1u64],
                                opmr_runtime::collectives::ops::sum,
                            )?;
                        }
                    }
                }
                Ok(())
            })
        })
        .run()?;
    Ok(())
}

/// Audits one session: every update's folded bytes equal the stored
/// snapshot of that version, the final subscriber report equals the
/// session report, and every query succeeded.
fn audit(out: &mut Outcome, o: &SessionOutcome, sub: &Subscriber) {
    let Some(store) = o.snapshot_store.as_ref() else {
        out.check(false, || "serve: session kept no snapshot store".into());
        return;
    };
    for (shard, version, bytes) in &sub.seen {
        let stored = store.shard(*shard as usize).get(*version);
        out.check(stored.is_some_and(|e| e.encoded == *bytes), || {
            format!("serve: update (shard {shard}, version {version}) differs from the store")
        });
    }
    let want = encode_partials(&o.report.to_partials());
    out.check(sub.last.as_ref() == Some(&want), || {
        "serve: the final subscriber report differs from the session report".into()
    });
    for q in 0..sub.query_ms.len() as u64 {
        out.check(q >= sub.query_failures, || "serve: a query failed".into());
    }
}

/// Serve-plane observations summed over the measured sessions.
#[derive(Default)]
struct Plane {
    lag_ms: Vec<f64>,
    updates: u64,
    resyncs: u64,
}

/// One instrumented session with its audit.
fn instrumented(
    out: &mut Outcome,
    plan: &Arc<Plan>,
    traced: Option<&Traced>,
    plane: &mut Plane,
) -> Result<Option<SessionSample>, BoxError> {
    let probe = Arc::new(Probe::new());
    let obs = Arc::new(Observed::default());
    let wire0 = wire_bytes();
    let result = session(plan, &probe, &obs, traced).run();
    let drain_ms = probe.drain_ms();
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            out.check(false, || format!("serve: session failed: {e}"));
            return Ok(None);
        }
    };
    out.check(true, String::new);
    let sub = std::mem::take(&mut *obs.sub.lock());
    audit(out, &o, &sub);
    plane.lag_ms.extend(&sub.lag_ms);
    plane.updates += sub.updates;
    plane.resyncs += sub.resyncs;
    let events: u64 = o.report.apps.iter().map(|a| a.events).sum();
    let late_ms = std::mem::take(&mut *obs.late_ms.lock());
    let span_s = *obs.gen_span_s.lock();
    Ok(Some(SessionSample {
        setup_s: probe.setup_s(),
        drain_ms,
        rate: events as f64 / o.wall_s,
        wire_per_event: wire_bytes().saturating_sub(wire0) as f64 / events.max(1) as f64,
        span_s,
        freshness_ms: sub.freshness_ms,
        query_ms: sub.query_ms,
        query_burst: false,
        late_ms,
    }))
}

fn measure(
    out: &mut Outcome,
    plan: &Arc<Plan>,
    budget: Duration,
    min: usize,
    traced: Option<&Traced>,
    plane: &mut Plane,
) -> Result<Samples, BoxError> {
    run::measure(budget, min, |n| {
        let reference = || {
            let obs = Arc::new(Observed::default());
            run_reference(plan, &obs)?;
            let span = *obs.gen_span_s.lock();
            Ok(span)
        };
        let (s, r) = alternate(n, reference, || instrumented(out, plan, traced, plane))?;
        Ok(s.map(|s| (s, r)))
    })
}

pub fn run(args: &Args) -> Result<Outcome, BoxError> {
    let plan = Arc::new(plan(args.seed));
    let mut out = Outcome::default();
    let mut plane = Plane::default();
    let cfg = LadderCfg {
        stream: stream(),
        waitstate: false,
        metrics_window_ns: METRICS_WINDOW_NS,
        reduce_window: 8,
        publish_every: 1,
    };
    run::drive(
        &mut out,
        args,
        "serve_live",
        1,
        &cfg,
        |out, budget, min, traced| measure(out, &plan, budget, min, traced, &mut plane),
    )?;
    if args.trace {
        let n = plane.lag_ms.len();
        out.set(
            "serve.update_lag_ms_p50",
            Summary::at(&plane.lag_ms, 50.0),
            n,
        );
        out.set(
            "serve.update_lag_ms_p99",
            Summary::at(&plane.lag_ms, 99.0),
            n,
        );
        out.set(
            "serve.resync_per_update",
            plane.resyncs as f64 / plane.updates.max(1) as f64,
            plane.updates as usize,
        );
    }
    Ok(out)
}
