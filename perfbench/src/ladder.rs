//! The layer ladder: replays a session's own event stream through the
//! public functions of each layer on the event path, one span per call.
//!
//! Rungs, in pipeline order: `events` (pack encode/decode), `vmpi` (one
//! writer and one reader rank moving the encoded packs as stream blocks),
//! `analysis` (the blackboard engine with the workload's knowledge
//! sources), `metrics` (the windowed fold), `reduce` (partial-set
//! encode/decode of aggregated windows) and `serve` (store publish plus
//! delta encode/apply). Every rung also checks its output.

use crate::common::BoxError;
use crate::trace::{Span, Tracer, ROOT};
use crate::Outcome;
use bytes::{Bytes, BytesMut};
use opmr_analysis::wire::{encode_partials, AppPartial};
use opmr_analysis::{AnalysisEngine, EngineConfig, MpiProfile, Topology};
use opmr_events::{Event, EventPack};
use opmr_metrics::{MetricsConfig, MetricsSeries};
use opmr_reduce::{decode_partial_set, encode_partial_set, ReducePartial};
use opmr_runtime::Launcher;
use opmr_serve::{apply_delta, encode_delta, ShardedStore};
use opmr_vmpi::{ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError, WriteStream};
use std::sync::Arc;

/// How the replayed session was configured.
#[derive(Debug, Clone, Copy)]
pub struct LadderCfg {
    pub stream: StreamConfig,
    pub waitstate: bool,
    pub metrics_window_ns: u64,
    /// Packs folded per reduction window.
    pub reduce_window: usize,
    /// Packs between two serve-store publications.
    pub publish_every: usize,
}

/// What the ladder measured beyond the metrics it sets.
pub struct LadderTotals {
    pub events: u64,
    /// Sum of the self time of every ladder call span, ns.
    pub self_ns: u64,
    /// Encoded bytes in over partial-set bytes out.
    pub reduce_ratio: f64,
}

fn sum_ns(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(n, t), s| (n + 1, t + s.duration_ns()))
}

fn per(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

/// Packs each rank's events the way its recorder would, interleaving
/// ranks pack by pack.
fn build_packs(per_rank: &[Vec<Event>], cfg: &LadderCfg) -> Vec<EventPack> {
    let cap =
        EventPack::capacity_for_block_with(cfg.stream.block_size, cfg.stream.pack_encoding).max(1);
    let chunks: Vec<Vec<&[Event]>> = per_rank.iter().map(|v| v.chunks(cap).collect()).collect();
    let longest = chunks.iter().map(Vec::len).max().unwrap_or(0);
    let mut packs = Vec::new();
    for seq in 0..longest {
        for (rank, c) in chunks.iter().enumerate() {
            if let Some(events) = c.get(seq) {
                packs.push(EventPack::new(0, rank as u32, seq as u32, events.to_vec()));
            }
        }
    }
    packs
}

pub fn run(
    tr: &Arc<Tracer>,
    per_rank: &[Vec<Event>],
    cfg: &LadderCfg,
    out: &mut Outcome,
) -> Result<LadderTotals, BoxError> {
    let packs = build_packs(per_rank, cfg);
    let events: u64 = packs.iter().map(|p| p.events.len() as u64).sum();
    let enc = cfg.stream.pack_encoding;
    let ladder = tr.id();
    let t_ladder = tr.now();

    // events: encode and decode every pack.
    let mut blocks: Vec<Bytes> = Vec::with_capacity(packs.len());
    let mut roundtrip_ok = true;
    tr.scope(ladder, 0, "ladder.events", |rung| {
        let mut buf = BytesMut::with_capacity(cfg.stream.block_size);
        for (i, p) in packs.iter().enumerate() {
            let b = tr.span(rung, i as u64, "events.encode", || {
                buf.clear();
                p.encode_into(enc, &mut buf);
                Bytes::copy_from_slice(&buf)
            });
            let back = tr.span(rung, i as u64, "events.decode", || EventPack::decode(&b));
            roundtrip_ok &= back.is_ok_and(|d| d.events == p.events);
            blocks.push(b);
        }
    });
    out.check(roundtrip_ok, || {
        "events: a pack did not survive encode/decode".into()
    });
    let block_bytes: u64 = blocks.iter().map(|b| b.len() as u64).sum();

    // vmpi: one writer rank streams every block to one reader rank.
    let blocks = Arc::new(blocks);
    let (agains, received) = vmpi_rung(tr, ladder, &blocks, cfg.stream)?;
    out.check(received == *blocks, || {
        "vmpi: the reader did not receive the written blocks in order".into()
    });

    // analysis: the engine with the workload's knowledge sources.
    let engine = AnalysisEngine::new(EngineConfig::default());
    if cfg.waitstate {
        engine.enable_waitstate();
    }
    engine.enable_metrics(MetricsConfig {
        window_ns: cfg.metrics_window_ns,
    });
    engine.start();
    let (report, bb) = tr.scope(ladder, 0, "ladder.analysis", |rung| {
        for (i, b) in blocks.iter().enumerate() {
            tr.span(rung, i as u64, "analysis.post", || {
                engine.post_block(b.clone())
            });
        }
        tr.span(rung, 0, "analysis.finish", || {
            engine.blackboard().drain();
            let bb = engine.blackboard().stats();
            (engine.finish(), bb)
        })
    });
    let analyzed: u64 = report.apps.iter().map(|a| a.events).sum();
    out.check(analyzed == events, || {
        format!("analysis: engine saw {analyzed} of {events} events")
    });

    // metrics: the windowed fold, pack by pack.
    let mut series = MetricsSeries::new(cfg.metrics_window_ns);
    tr.scope(ladder, 0, "ladder.metrics", |rung| {
        for (i, p) in packs.iter().enumerate() {
            tr.span(rung, i as u64, "metrics.fold", || {
                series.fold_pack(&p.events)
            });
        }
    });
    let engine_series = report.apps.first().and_then(|a| a.metrics.as_ref());
    out.check(
        engine_series.is_some_and(|m| m.encode() == series.encode()),
        || "metrics: the ladder fold differs from the engine's".into(),
    );

    // reduce: aggregate windows into partial sets and round-trip them.
    let mut reduce_ok = true;
    let mut reduce_out = 0u64;
    tr.scope(ladder, 0, "ladder.reduce", |rung| {
        for (w, window) in packs.chunks(cfg.reduce_window.max(1)).enumerate() {
            let w = w as u64;
            let part = tr.span(rung, w, "reduce.absorb", || {
                let mut part = ReducePartial::new(0);
                let mut m = MetricsSeries::new(cfg.metrics_window_ns);
                for p in window {
                    part.packs += 1;
                    part.profile.add_all(&p.events);
                    part.topology.add_all(&p.events);
                    for e in &p.events {
                        part.density.add_event(e.rank);
                    }
                    m.fold_pack(&p.events);
                }
                part.metrics = Some(m);
                part
            });
            let wire = tr.span(rung, w, "reduce.encode", || encode_partial_set(&[part]));
            reduce_out += wire.len() as u64;
            let back = tr.span(rung, w, "reduce.decode", || decode_partial_set(&wire));
            reduce_ok &= back.is_ok_and(|b| encode_partial_set(&b) == wire);
        }
    });
    out.check(reduce_ok, || {
        "reduce: a partial set did not round-trip".into()
    });

    // serve: cumulative snapshots published, diffed and applied.
    let (serve_ok, delta_bytes, deltas) = serve_rung(tr, ladder, &packs, &blocks, cfg)?;
    out.check(serve_ok, || {
        "serve: an applied delta differs from the published snapshot".into()
    });
    tr.record(ladder, ROOT, 0, "ladder", t_ladder);

    let spans = tr.spans();
    let n_blocks = blocks.len() as u64;
    let total = |name| sum_ns(&spans, name);
    let (_, enc_ns) = total("events.encode");
    let (_, dec_ns) = total("events.decode");
    out.set(
        "events.encode_ns_per_event",
        per(enc_ns, events),
        packs.len(),
    );
    out.set(
        "events.decode_ns_per_event",
        per(dec_ns, events),
        packs.len(),
    );
    out.set(
        "events.bytes_per_event",
        per(block_bytes, events),
        packs.len(),
    );
    let (nw, w_ns) = total("vmpi.write");
    let (nr, r_ns) = total("vmpi.read");
    out.set("vmpi.write_us_per_block", per(w_ns, nw) / 1e3, nw as usize);
    out.set(
        "vmpi.read_wait_us_per_block",
        per(r_ns, nr) / 1e3,
        nr as usize,
    );
    out.set("vmpi.again_per_block", per(agains, n_blocks), nr as usize);
    let (np, post_ns) = total("analysis.post");
    let (_, fin_ns) = total("analysis.finish");
    out.set(
        "analysis.post_ns_per_event",
        per(post_ns, events),
        np as usize,
    );
    out.set("analysis.finish_ms", fin_ns as f64 / 1e6, 1);
    out.set(
        "analysis.events_per_busy_s",
        events as f64 / ((post_ns + fin_ns) as f64 / 1e9),
        np as usize,
    );
    out.set(
        "blackboard.ks_invocations_per_block",
        per(bb.jobs_executed, n_blocks),
        n_blocks as usize,
    );
    out.set("blackboard.drops", bb.entries_dropped as f64, 1);
    let (nf, fold_ns) = total("metrics.fold");
    out.set(
        "metrics.fold_ns_per_event",
        per(fold_ns, events),
        nf as usize,
    );
    out.set("metrics.series_bytes", series.encoded_size() as f64, 1);
    let (ne, renc_ns) = total("reduce.encode");
    let (nd, rdec_ns) = total("reduce.decode");
    out.set("reduce.encode_us", per(renc_ns, ne) / 1e3, ne as usize);
    out.set("reduce.decode_us", per(rdec_ns, nd) / 1e3, nd as usize);
    let (npub, pub_ns) = total("serve.publish");
    let (nde, de_ns) = total("serve.encode_delta");
    let (nap, ap_ns) = total("serve.apply_delta");
    out.set("serve.publish_us", per(pub_ns, npub) / 1e3, npub as usize);
    out.set("serve.encode_delta_us", per(de_ns, nde) / 1e3, nde as usize);
    out.set("serve.apply_delta_us", per(ap_ns, nap) / 1e3, nap as usize);
    out.set(
        "serve.delta_bytes",
        per(delta_bytes, deltas),
        deltas as usize,
    );

    // Self time of every call span (rung scopes and the root excluded).
    let self_ns = crate::trace::self_times(&spans);
    let rungs: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent == ladder)
        .map(|s| s.id)
        .collect();
    let call_self: u64 = spans
        .iter()
        .filter(|s| rungs.contains(&s.parent))
        .map(|s| self_ns.get(&s.id).copied().unwrap_or(0))
        .sum();
    Ok(LadderTotals {
        events,
        self_ns: call_self,
        reduce_ratio: reduce_out as f64 / block_bytes.max(1) as f64,
    })
}

/// Streams `blocks` from a writer rank to a reader rank; returns the
/// reader's `Again` count and the blocks it received.
fn vmpi_rung(
    tr: &Arc<Tracer>,
    ladder: u64,
    blocks: &Arc<Vec<Bytes>>,
    stream: StreamConfig,
) -> Result<(u64, Vec<Bytes>), BoxError> {
    let rung = tr.id();
    let start = tr.now();
    let agains = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let received = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (wtr, wblocks) = (Arc::clone(tr), Arc::clone(blocks));
    let (rtr, ragains, rrecv) = (Arc::clone(tr), Arc::clone(&agains), Arc::clone(&received));
    Launcher::new()
        .partition_try("writer", 1, move |mpi| {
            let v = Vmpi::new(mpi)?;
            let reader = v
                .partition_by_name("reader")
                .ok_or("no reader partition")?
                .first_world_rank;
            let mut w = WriteStream::open_to(&v, vec![reader], stream, 7)?;
            for (i, b) in wblocks.iter().enumerate() {
                wtr.span(rung, i as u64, "vmpi.write", || {
                    w.write(b)?;
                    w.flush()
                })?;
            }
            w.close()?;
            Ok(())
        })
        .partition_try("reader", 1, move |mpi| {
            let v = Vmpi::new(mpi)?;
            let writer = v
                .partition_by_name("writer")
                .ok_or("no writer partition")?
                .first_world_rank;
            let mut r = ReadStream::open_from(&v, vec![writer], stream, 7)?;
            let mut i = 0u64;
            loop {
                let id = rtr.id();
                let t = rtr.now();
                let got = loop {
                    match r.read(ReadMode::NonBlocking) {
                        Err(VmpiError::Again) => {
                            ragains.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                        other => break other?,
                    }
                };
                let Some(block) = got else { break };
                rtr.record(id, rung, i, "vmpi.read", t);
                rrecv.lock().push(block.data);
                i += 1;
            }
            Ok(())
        })
        .run()?;
    tr.record(rung, ladder, 0, "ladder.vmpi", start);
    let received = std::mem::take(&mut *received.lock());
    Ok((agains.load(std::sync::atomic::Ordering::Relaxed), received))
}

/// Publishes a cumulative snapshot every `publish_every` packs, encodes
/// the delta from the previous one and applies it to a subscriber copy.
fn serve_rung(
    tr: &Arc<Tracer>,
    ladder: u64,
    packs: &[EventPack],
    blocks: &[Bytes],
    cfg: &LadderCfg,
) -> Result<(bool, u64, u64), BoxError> {
    let store = ShardedStore::new(1, 32, 1);
    let mut profile = MpiProfile::new();
    let mut topology = Topology::new();
    let mut series = MetricsSeries::new(cfg.metrics_window_ns);
    let mut wire_bytes = 0u64;
    let mut prev: Vec<AppPartial> = Vec::new();
    let mut held: Vec<AppPartial> = Vec::new();
    let mut ok = true;
    let mut delta_bytes = 0u64;
    let mut deltas = 0u64;
    let every = cfg.publish_every.max(1);
    tr.scope(ladder, 0, "ladder.serve", |rung| -> Result<(), BoxError> {
        for (i, (p, b)) in packs.iter().zip(blocks).enumerate() {
            profile.add_all(&p.events);
            topology.add_all(&p.events);
            series.fold_pack(&p.events);
            wire_bytes += b.len() as u64;
            let last = i + 1 == packs.len();
            if (i + 1) % every != 0 && !last {
                continue;
            }
            let v = (i / every) as u64 + 1;
            let next = vec![AppPartial {
                app_id: 0,
                packs: i as u64 + 1,
                wire_bytes,
                decode_errors: 0,
                profile: profile.clone(),
                topology: topology.clone(),
                waitstate: None,
                metrics: Some(series.clone()),
            }];
            tr.span(rung, v, "serve.publish", || store.publish(next.clone()))?;
            let delta = tr.span(rung, v, "serve.encode_delta", || {
                encode_delta(v - 1, &prev, v, &next)
            })?;
            delta_bytes += delta.len() as u64;
            deltas += 1;
            tr.span(rung, v, "serve.apply_delta", || {
                apply_delta(&mut held, &delta)
            })?;
            ok &= encode_partials(&held) == encode_partials(&next);
            prev = next;
        }
        Ok(())
    })?;
    ok &= store
        .current()
        .is_some_and(|e| e.encoded == encode_partials(&prev));
    Ok((ok, delta_bytes, deltas))
}
