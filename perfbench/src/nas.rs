//! `nas_tbon`: NAS CG class S on two in-process ranks under
//! `Coupling::Tbon { fanout: 2 }` with `ReduceOp::Aggregate` over three
//! analyzer ranks. Instrumented sessions alternate with uninstrumented
//! reference runs of the same rank programs on the raw runtime.

use crate::common::{
    held_report_queries, timed, wire_bytes, BoxError, CallTimes, Probe, Rng, Traced,
    SESSION_STREAM, STAMP_EVERY,
};
use crate::ladder::LadderCfg;
use crate::run::{self, alternate, Samples, SessionSample};
use crate::trace::{Tracer, ROOT};
use crate::{Args, Outcome};
use bytes::Bytes;
use opmr_analysis::report::stable_digest;
use opmr_core::{Coupling, Session, SessionBuilder};
use opmr_instrument::InstrumentedMpi;
use opmr_netsim::{tera100, CollKind, Op, Phase, Workload};
use opmr_reduce::ReduceOp;
use opmr_runtime::{Comm, Launcher, RankError, Src, TagSel};
use opmr_vmpi::Vmpi;
use opmr_workloads::{Benchmark, Class};
use std::sync::Arc;
use std::time::Duration;

const RANKS: usize = 2;
const ANALYZERS: usize = 3;
const FANOUT: usize = 2;
const TAG: i32 = 0x0D17;
const METRICS_WINDOW_NS: u64 = 1_000_000;
const ITERATIONS: u32 = 750;

/// CG class S on two ranks, a fixed program: how much work is left in
/// the tree's last aggregation window when the run ends moves `drain_ms`
/// by a factor of two, so the iteration count stays fixed and the seed
/// picks only the message payload bytes.
fn program(seed: u64) -> Result<Program, BoxError> {
    Ok(Program {
        w: Benchmark::Cg.build(Class::S, RANKS, &tera100(), Some(ITERATIONS))?,
        fill: Rng::new(seed).below(256) as u8,
    })
}

/// The generated rank programs and the payload byte they send.
struct Program {
    w: Workload,
    fill: u8,
}

/// The calls a rank program makes, on either side of the comparison.
trait Calls {
    fn vmpi(&self) -> &Vmpi;
    fn world(&self) -> Comm;
    fn exchange(&self, world: &Comm, peer: usize, data: Bytes) -> Result<(), RankError>;
    fn send(&self, world: &Comm, to: usize, data: Bytes) -> Result<(), RankError>;
    fn recv(&self, world: &Comm, from: usize) -> Result<(), RankError>;
    fn allreduce(&self, comm: &Comm, n: usize) -> Result<(), RankError>;
    fn barrier(&self, comm: &Comm) -> Result<(), RankError>;
}

impl Calls for InstrumentedMpi {
    fn vmpi(&self) -> &Vmpi {
        InstrumentedMpi::vmpi(self)
    }
    fn world(&self) -> Comm {
        self.comm_world()
    }
    fn exchange(&self, world: &Comm, peer: usize, data: Bytes) -> Result<(), RankError> {
        self.sendrecv(world, peer, TAG, data, Src::Rank(peer), TagSel::Tag(TAG))?;
        Ok(())
    }
    fn send(&self, world: &Comm, to: usize, data: Bytes) -> Result<(), RankError> {
        Ok(InstrumentedMpi::send(self, world, to, TAG, data)?)
    }
    fn recv(&self, world: &Comm, from: usize) -> Result<(), RankError> {
        InstrumentedMpi::recv(self, world, Src::Rank(from), TagSel::Tag(TAG))?;
        Ok(())
    }
    fn allreduce(&self, comm: &Comm, n: usize) -> Result<(), RankError> {
        self.allreduce_sum(comm, &vec![1.0f64; n])?;
        Ok(())
    }
    fn barrier(&self, comm: &Comm) -> Result<(), RankError> {
        Ok(InstrumentedMpi::barrier(self, comm)?)
    }
}

/// The uninstrumented side: raw runtime calls, with `sendrecv` spans in
/// traced runs.
struct Raw {
    v: Vmpi,
    tracer: Option<Arc<Tracer>>,
    exchanges: std::cell::Cell<u64>,
}

/// One reference `sendrecv` in this many is recorded as a span.
const SENDRECV_SPAN_EVERY: u64 = 16;

impl Calls for Raw {
    fn vmpi(&self) -> &Vmpi {
        &self.v
    }
    fn world(&self) -> Comm {
        self.v.comm_world()
    }
    fn exchange(&self, world: &Comm, peer: usize, data: Bytes) -> Result<(), RankError> {
        let call = || {
            self.v
                .mpi()
                .sendrecv(world, peer, TAG, data, Src::Rank(peer), TagSel::Tag(TAG))
        };
        let n = self.exchanges.get() + 1;
        self.exchanges.set(n);
        match &self.tracer {
            Some(t) if n.is_multiple_of(SENDRECV_SPAN_EVERY) => {
                t.span(ROOT, n, "runtime.sendrecv", call)?
            }
            _ => call()?,
        };
        Ok(())
    }
    fn send(&self, world: &Comm, to: usize, data: Bytes) -> Result<(), RankError> {
        Ok(self.v.mpi().send(world, to, TAG, data)?)
    }
    fn recv(&self, world: &Comm, from: usize) -> Result<(), RankError> {
        self.v
            .mpi()
            .recv(world, Src::Rank(from), TagSel::Tag(TAG))?;
        Ok(())
    }
    fn allreduce(&self, comm: &Comm, n: usize) -> Result<(), RankError> {
        opmr_runtime::collectives::allreduce_t(
            self.v.mpi(),
            comm,
            &vec![1.0f64; n],
            opmr_runtime::collectives::ops::sum,
        )?;
        Ok(())
    }
    fn barrier(&self, comm: &Comm) -> Result<(), RankError> {
        Ok(self.v.mpi().barrier(comm)?)
    }
}

fn payload(bytes: u64, fill: u8) -> Bytes {
    Bytes::from(vec![fill; (bytes as usize).clamp(1, 1 << 20)])
}

/// Executes `w.programs[rank]` through `c`, timing each call into
/// `local` when given. Compute intervals are scaled to zero.
fn execute(
    c: &impl Calls,
    w: &Workload,
    fill: u8,
    probe: &Probe,
    mut local: Option<&mut CallTimes>,
) -> Result<(), RankError> {
    let rank = c.vmpi().rank();
    let fill = fill ^ rank as u8;
    let first = c.vmpi().my_partition().first_world_rank;
    let world = c.world();
    let mut comms = Vec::with_capacity(w.groups.len());
    for (gi, g) in w.groups.iter().enumerate() {
        comms.push(if g.contains(&(rank as u32)) {
            let ranks = g.iter().map(|&r| first + r as usize).collect();
            Some(
                c.vmpi()
                    .mpi()
                    .comm_from_world_ranks(ranks, 0xF0_0000 + gi as u64)?,
            )
        } else {
            None
        });
    }
    let prog = &w.programs[rank];
    let mut phase = Phase::start().normalize(prog);
    let mut calls = 0usize;
    while let Some(cur) = phase {
        let Some(op) = prog.op_at(cur) else { break };
        if op.is_comm() {
            if calls.is_multiple_of(STAMP_EVERY) {
                probe.stamp();
            }
            calls += 1;
        }
        match op {
            Op::Compute { .. } | Op::FsWrite { .. } | Op::FsMeta => {}
            Op::Send { to, bytes } => timed(&mut local, || {
                c.send(&world, to as usize, payload(bytes, fill))
            })?,
            Op::Recv { from } => timed(&mut local, || c.recv(&world, from as usize))?,
            Op::Exchange { peer, bytes } => timed(&mut local, || {
                c.exchange(&world, peer as usize, payload(bytes, fill))
            })?,
            Op::Coll { group, kind, bytes } => {
                let comm = comms
                    .get(group as usize)
                    .and_then(|c| c.as_ref())
                    .ok_or("op references a group without this rank")?;
                match kind {
                    CollKind::Barrier => timed(&mut local, || c.barrier(comm))?,
                    CollKind::Allreduce | CollKind::Reduce => {
                        let n = (bytes as usize / 8).clamp(1, 4096);
                        timed(&mut local, || c.allreduce(comm, n))?
                    }
                    other => return Err(format!("CG does not issue {other:?}").into()),
                }
            }
        }
        phase = cur.advance(prog);
    }
    Ok(())
}

fn session(
    p: &Arc<Program>,
    coupling: Coupling,
    probe: &Arc<Probe>,
    traced: Option<&Traced>,
) -> SessionBuilder {
    let (p, probe, traced) = (Arc::clone(p), Arc::clone(probe), traced.cloned());
    let b = Session::builder()
        .analyzer_ranks(ANALYZERS)
        .coupling(coupling)
        .stream_config(SESSION_STREAM);
    let b = match coupling {
        Coupling::Tbon { .. } => b.reduce_op(ReduceOp::Aggregate),
        _ => b,
    };
    b.app_try("cg", RANKS, move |imp| {
        let t = traced.clone().unwrap_or_default();
        t.body(imp, |local| {
            probe.enter();
            execute(imp, &p.w, p.fill, &probe, local)?;
            probe.exit();
            Ok(())
        })
    })
}

fn run_reference(
    p: &Arc<Program>,
    probe: &Arc<Probe>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(), BoxError> {
    let (p, probe, tracer) = (Arc::clone(p), Arc::clone(probe), tracer.cloned());
    Launcher::new()
        .partition_try("cg", RANKS, move |mpi| {
            let raw = Raw {
                v: Vmpi::new(mpi)?,
                tracer: tracer.clone(),
                exchanges: std::cell::Cell::new(0),
            };
            probe.enter();
            execute(&raw, &p.w, p.fill, &probe, None)?;
            probe.exit();
            Ok(())
        })
        .run()?;
    Ok(())
}

struct Ctx {
    p: Arc<Program>,
    /// `stable_digest` of the same programs under Direct coupling.
    digest: u64,
}

/// One instrumented TBON session with its output checks and queries;
/// adds the tree's byte counters to `reduce`.
fn instrumented(
    out: &mut Outcome,
    ctx: &Ctx,
    traced: Option<&Traced>,
    reduce: &mut (u64, u64),
) -> Result<Option<SessionSample>, BoxError> {
    let probe = Arc::new(Probe::new());
    let wire0 = wire_bytes();
    let result = session(&ctx.p, Coupling::Tbon { fanout: FANOUT }, &probe, traced).run();
    let drain_ms = probe.drain_ms();
    let freshness_ms = probe.freshness_ms();
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            out.check(false, || format!("nas: session failed: {e}"));
            return Ok(None);
        }
    };
    out.check(true, String::new);
    let got = stable_digest(&o.report);
    out.check(got == ctx.digest, || {
        format!(
            "nas: TBON digest {got:016x} != Direct digest {:016x}",
            ctx.digest
        )
    });
    for (_, st) in &o.reduce_stats {
        reduce.0 += st.bytes_in;
        reduce.1 += st.bytes_out;
    }
    let events: u64 = o.report.apps.iter().map(|a| a.events).sum();
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
    ctx: &Ctx,
    budget: Duration,
    min: usize,
    traced: Option<&Traced>,
    reduce: &mut (u64, u64),
) -> Result<Samples, BoxError> {
    let tracer = traced.and_then(|t| t.tracer.as_ref());
    run::measure(budget, min, |n| {
        let reference = || {
            let probe = Arc::new(Probe::new());
            run_reference(&ctx.p, &probe, tracer)?;
            Ok(probe.span_s())
        };
        let (s, r) = alternate(n, reference, || instrumented(out, ctx, traced, reduce))?;
        Ok(s.map(|s| (s, r)))
    })
}

pub fn run(args: &Args) -> Result<Outcome, BoxError> {
    let p = Arc::new(program(args.seed)?);
    let mut out = Outcome::default();
    // The reference digest: the same programs under Direct coupling.
    let direct = session(&p, Coupling::Direct, &Arc::new(Probe::new()), None).run();
    let digest = match direct {
        Ok(o) => stable_digest(&o.report),
        Err(e) => return Err(format!("nas: Direct reference session failed: {e}").into()),
    };
    let ctx = Ctx { p, digest };
    let mut reduce = (0, 0);
    let cfg = LadderCfg {
        stream: SESSION_STREAM,
        waitstate: false,
        metrics_window_ns: METRICS_WINDOW_NS,
        reduce_window: 8,
        publish_every: 16,
    };
    run::drive(
        &mut out,
        args,
        "nas_tbon",
        RANKS,
        &cfg,
        |out, budget, min, traced| measure(out, &ctx, budget, min, traced, &mut reduce),
    )?;
    if args.trace {
        // The session's own tree: bytes forwarded over bytes received,
        // summed over every node.
        out.set(
            "reduce.measured_ratio",
            reduce.1 as f64 / reduce.0.max(1) as f64,
            1,
        );
    }
    Ok(out)
}
