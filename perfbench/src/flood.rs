//! `flood_socket`: two application ranks flood the event pipeline with
//! cheap intercepted calls (seeded POSIX calls plus a sparse ring
//! `sendrecv`) in a closed loop. They run as thread-hosted process 1 of a
//! two-process Unix-socket mesh; process 0 holds one Direct-coupled
//! analyzer rank with the `metrics` and `waitstate` knowledge sources and
//! the default encoding and compression.

use crate::common::{
    counter, held_report_queries, timed, wire_bytes, BoxError, Probe, Rng, Traced, SESSION_STREAM,
    STAMP_EVERY,
};
use crate::ladder::LadderCfg;
use crate::run::{self, alternate, Samples, SessionSample};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use crate::{Args, Outcome};
use opmr_core::{Session, SessionBuilder, SessionOutcome};
use opmr_events::EventKind;
use opmr_instrument::InstrumentedMpi;
use opmr_runtime::{Endpoint, Launcher, SocketConfig, Src, TagSel};
use opmr_vmpi::Vmpi;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const RANKS: usize = 2;
const CALLS_PER_RANK: usize = 100_000;
/// One ring `sendrecv` per this many calls, on average.
const RING_EVERY: u64 = 256;
const RING_TAG: i32 = 0x0F10;
/// One metrics window spans a whole session (timestamps count from each
/// rank's init), so the report's size, and the work of every query on it,
/// does not depend on how long the session took: with short windows a
/// session the host slowed would leave more windows, and a slower query.
const METRICS_WINDOW_NS: u64 = 10_000_000_000;
#[derive(Clone, Copy)]
enum Op {
    Posix {
        kind: EventKind,
        bytes: u64,
        ns: u64,
    },
    Ring {
        bytes: usize,
    },
}

/// The generated calls of every rank and what the report must show.
pub struct Plan {
    ops: Vec<Vec<Op>>,
    /// Expected `(hits, bytes)` per `(rank, kind)`.
    expect: BTreeMap<(u32, u16), (u64, u64)>,
}

fn plan(seed: u64) -> Plan {
    const POSIX: [EventKind; 4] = [
        EventKind::PosixWrite,
        EventKind::PosixRead,
        EventKind::PosixOpen,
        EventKind::PosixClose,
    ];
    // Ring positions are shared (both ranks must meet); sizes are not.
    let mut shared = Rng::new(seed);
    let ring: Vec<bool> = (0..CALLS_PER_RANK)
        .map(|_| shared.below(RING_EVERY) == 0)
        .collect();
    let mut ops = Vec::new();
    for rank in 0..RANKS {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(rank as u64 + 1));
        let v: Vec<Op> = ring
            .iter()
            .map(|&is_ring| {
                if is_ring {
                    Op::Ring {
                        bytes: 1 + rng.below(4096) as usize,
                    }
                } else {
                    let kind = POSIX[rng.below(4) as usize];
                    let bytes = match kind {
                        EventKind::PosixWrite | EventKind::PosixRead => rng.below(1 << 16),
                        _ => 0,
                    };
                    Op::Posix {
                        kind,
                        bytes,
                        ns: 200 + rng.below(5_000),
                    }
                }
            })
            .collect();
        ops.push(v);
    }
    let mut expect: BTreeMap<(u32, u16), (u64, u64)> = BTreeMap::new();
    for (rank, v) in ops.iter().enumerate() {
        let r = rank as u32;
        let mut add = |kind: EventKind, bytes: u64| {
            let e = expect.entry((r, kind as u16)).or_default();
            e.0 += 1;
            e.1 += bytes;
        };
        add(EventKind::Init, 0);
        add(EventKind::Finalize, 0);
        for (i, op) in v.iter().enumerate() {
            match *op {
                Op::Posix { kind, bytes, .. } => add(kind, bytes),
                Op::Ring { bytes } => {
                    let peer_bytes = match ops[1 - rank][i] {
                        Op::Ring { bytes } => bytes,
                        Op::Posix { .. } => 0,
                    };
                    add(EventKind::Sendrecv, (bytes + peer_bytes) as u64);
                }
            }
        }
    }
    Plan { ops, expect }
}

fn issue(imp: &InstrumentedMpi, world: &opmr_runtime::Comm, op: Op) -> opmr_vmpi::Result<()> {
    match op {
        Op::Posix { kind, bytes, ns } => imp.posix(kind, bytes, Duration::from_nanos(ns)),
        Op::Ring { bytes } => {
            let peer = 1 - imp.rank();
            imp.sendrecv(
                world,
                peer,
                RING_TAG,
                vec![imp.rank() as u8; bytes],
                Src::Rank(peer),
                TagSel::Tag(RING_TAG),
            )
            .map(|_| ())
        }
    }
}

fn session(plan: &Arc<Plan>, probe: &Arc<Probe>, traced: Option<&Traced>) -> SessionBuilder {
    let (plan, probe, traced) = (Arc::clone(plan), Arc::clone(probe), traced.cloned());
    Session::builder()
        .analyzer_ranks(1)
        .waitstate()
        .metrics(METRICS_WINDOW_NS)
        .engine_config(opmr_analysis::EngineConfig {
            workers: 2,
            ..Default::default()
        })
        .stream_config(SESSION_STREAM)
        .app_try("flood", RANKS, move |imp| {
            let t = traced.clone().unwrap_or_default();
            t.body(imp, |mut local| {
                probe.enter();
                let world = imp.comm_world();
                for (i, &op) in plan.ops[imp.rank()].iter().enumerate() {
                    if i.is_multiple_of(STAMP_EVERY) {
                        probe.stamp();
                    }
                    timed(&mut local, || issue(imp, &world, op))?;
                }
                probe.exit();
                Ok(())
            })
        })
}

/// One instrumented session over the socket mesh; returns process 0's
/// outcome.
fn run_socket(
    plan: &Arc<Plan>,
    probe: &Arc<Probe>,
    traced: Option<&Traced>,
    n: u64,
) -> Result<SessionOutcome, BoxError> {
    let dir = std::path::Path::new(".bench_out").join("sock");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("flood-{}-{n}", std::process::id()));
    let cfg =
        SocketConfig::new(Endpoint::Unix(path.clone())).connect_timeout(Duration::from_secs(20));
    let worker = {
        let (b, cfg) = (session(plan, probe, traced), cfg.clone());
        std::thread::spawn(move || b.run_multiproc(cfg, 1, 2))
    };
    let main = session(plan, probe, traced).run_multiproc(cfg, 0, 2);
    let remote = worker.join().map_err(|_| "socket worker panicked")?;
    for suffix in ["", ".p1"] {
        let mut p = path.clone().into_os_string();
        p.push(suffix);
        let _ = std::fs::remove_file(p);
    }
    let main = main?;
    remote?;
    Ok(main)
}

/// The same calls on the raw runtime, uninstrumented: POSIX calls are
/// synthetic and cost nothing, ring exchanges are raw `Mpi::sendrecv`.
fn run_reference(
    plan: &Arc<Plan>,
    probe: &Arc<Probe>,
    tr: Option<&Arc<Tracer>>,
) -> Result<(), BoxError> {
    let (plan, probe, tr) = (Arc::clone(plan), Arc::clone(probe), tr.cloned());
    Launcher::new()
        .partition_try("flood", RANKS, move |mpi| {
            let v = Vmpi::new(mpi)?;
            let world = v.comm_world();
            let rank = v.rank();
            let peer = 1 - rank;
            probe.enter();
            for (i, op) in plan.ops[rank].iter().enumerate() {
                match *op {
                    Op::Posix { kind, bytes, ns } => {
                        std::hint::black_box((kind, bytes, ns));
                    }
                    Op::Ring { bytes } => {
                        let call = || {
                            v.mpi().sendrecv(
                                &world,
                                peer,
                                RING_TAG,
                                vec![rank as u8; bytes],
                                Src::Rank(peer),
                                TagSel::Tag(RING_TAG),
                            )
                        };
                        match &tr {
                            Some(t) => t.span(ROOT, i as u64, "runtime.sendrecv", call)?,
                            None => call()?,
                        };
                    }
                }
            }
            probe.exit();
            Ok(())
        })
        .run()?;
    Ok(())
}

/// Checks the report against the generated calls.
fn check_report(out: &mut Outcome, plan: &Plan, o: &SessionOutcome) {
    let Some(app) = o.report.apps.iter().find(|a| a.name == "flood") else {
        out.check(false, || "flood: report has no flood chapter".into());
        return;
    };
    let mut seen: BTreeMap<(u32, u16), (u64, u64)> = BTreeMap::new();
    for rank in 0..app.profile.ranks() {
        for kind in app.profile.kinds() {
            if let Some(s) = app.profile.rank_kind(rank, kind) {
                seen.insert((rank, kind as u16), (s.hits, s.bytes));
            }
        }
    }
    out.check(seen == plan.expect && app.decode_errors == 0, || {
        format!(
            "flood: per-(rank, kind) hits/bytes differ from the generated calls ({} cells seen, {} expected, {} decode errors)",
            seen.len(),
            plan.expect.len(),
            app.decode_errors
        )
    });
}

/// Socket-layer counters summed over the measured sessions.
#[derive(Default)]
struct Socket {
    events: u64,
    bytes: u64,
    frames: Vec<f64>,
}

/// One instrumented session with its output checks and queries.
fn instrumented(
    out: &mut Outcome,
    plan: &Arc<Plan>,
    n: u64,
    traced: Option<&Traced>,
    sock: &mut Socket,
) -> Result<Option<SessionSample>, BoxError> {
    let probe = Arc::new(Probe::new());
    let (wire0, sock0, frames0) = (
        wire_bytes(),
        counter("transport_socket_bytes_sent_total"),
        counter("transport_socket_frames_sent_total"),
    );
    let result = run_socket(plan, &probe, traced, n);
    let drain_ms = probe.drain_ms();
    let freshness_ms = probe.freshness_ms();
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            out.check(false, || format!("flood: session failed: {e}"));
            return Ok(None);
        }
    };
    out.check(true, String::new);
    check_report(out, plan, &o);
    let events: u64 = o.report.apps.iter().map(|a| a.events).sum();
    sock.events += events;
    sock.bytes += counter("transport_socket_bytes_sent_total").saturating_sub(sock0);
    sock.frames
        .push(counter("transport_socket_frames_sent_total").saturating_sub(frames0) as f64);
    let query_ms = held_report_queries(out, &o, RANKS as u32);
    Ok(Some(SessionSample {
        setup_s: probe.setup_s(),
        drain_ms,
        rate: events as f64 / o.wall_s,
        wire_per_event: wire_bytes().saturating_sub(wire0) as f64 / events.max(1) as f64,
        span_s: probe.span_s(),
        freshness_ms,
        query_ms,
        query_burst: true,
        late_ms: probe.first_call_late_ms().into_iter().collect(),
    }))
}

fn measure(
    out: &mut Outcome,
    plan: &Arc<Plan>,
    budget: Duration,
    min: usize,
    traced: Option<&Traced>,
    sock: &mut Socket,
) -> Result<Samples, BoxError> {
    let tr = traced.and_then(|t| t.tracer.as_ref());
    run::measure(budget, min, |n| {
        let reference = || {
            let probe = Arc::new(Probe::new());
            run_reference(plan, &probe, tr)?;
            Ok(probe.span_s())
        };
        let (s, r) = alternate(n, reference, || instrumented(out, plan, n, traced, sock))?;
        Ok(s.map(|s| (s, r)))
    })
}

pub fn run(args: &Args) -> Result<Outcome, BoxError> {
    let plan = Arc::new(plan(args.seed));
    let mut out = Outcome::default();
    let mut sock = Socket::default();
    let cfg = LadderCfg {
        stream: SESSION_STREAM,
        waitstate: true,
        metrics_window_ns: METRICS_WINDOW_NS,
        reduce_window: 8,
        publish_every: 16,
    };
    run::drive(
        &mut out,
        args,
        "flood_socket",
        RANKS,
        &cfg,
        |out, budget, min, traced| measure(out, &plan, budget, min, traced, &mut sock),
    )?;
    if args.trace {
        out.set(
            "runtime.socket_bytes_per_event",
            sock.bytes as f64 / sock.events.max(1) as f64,
            sock.frames.len(),
        );
        out.set(
            "runtime.socket_frames",
            median(&sock.frames),
            sock.frames.len(),
        );
    }
    Ok(out)
}
