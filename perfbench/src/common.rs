//! Pieces every workload shares: the seeded generator, body timestamps,
//! sampled call timing, counter deltas, event capture for the ladder and
//! the in-process report query.

use crate::trace::Tracer;
use opmr_analysis::wire::{decode_partials, encode_partials, encode_profile};
use opmr_events::Event;
use opmr_instrument::InstrumentedMpi;
use opmr_vmpi::StreamConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// A session's default stream (64 KiB blocks, fixed-layout packs, no
/// compression), spelled out so the layer ladder replays the same layout.
pub const SESSION_STREAM: StreamConfig = StreamConfig {
    block_size: 64 * 1024,
    n_async: 3,
    balance: opmr_vmpi::Balance::RoundRobin,
    read_timeout: None,
    max_retries: 8,
    retry_backoff: std::time::Duration::from_micros(200),
    compression: opmr_vmpi::Compression::None,
    pack_encoding: opmr_vmpi::PackEncoding::Fixed,
};

/// SplitMix64: the benchmark's only randomness, fed by `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Body timestamps of one session: when the first rank entered its body
/// and when the last one left it, relative to the session's start.
pub struct Probe {
    t0: Instant,
    first_entry: AtomicU64,
    last_exit: AtomicU64,
    /// Issue times (ns since `t0`) of every stamped call.
    stamps: Mutex<Vec<u64>>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            t0: Instant::now(),
            first_entry: AtomicU64::new(u64::MAX),
            last_exit: AtomicU64::new(0),
            stamps: Mutex::new(Vec::new()),
        }
    }

    /// Stamps a call's issue time (closed-loop generators stamp every
    /// [`STAMP_EVERY`]-th call).
    pub fn stamp(&self) {
        let now = self.now_ns();
        self.stamps.lock().push(now);
    }

    /// Freshness of every stamped call when the consumer holds the final
    /// report (call when `run()` returned), milliseconds: a batch session
    /// delivers one result, so each call's data is that old when seen.
    pub fn freshness_ms(&self) -> Vec<f64> {
        let held = self.now_ns();
        self.stamps
            .lock()
            .iter()
            .map(|&t| held.saturating_sub(t) as f64 / 1e6)
            .collect()
    }

    /// Session start to the first stamped call, milliseconds: how late a
    /// closed-loop generator, due at the start, began.
    pub fn first_call_late_ms(&self) -> Option<f64> {
        self.stamps.lock().first().map(|&t| t as f64 / 1e6)
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&self) {
        self.first_entry.fetch_min(self.now_ns(), Ordering::SeqCst);
    }

    pub fn exit(&self) {
        self.last_exit.fetch_max(self.now_ns(), Ordering::SeqCst);
    }

    /// Session start to the first rank entering its body, seconds.
    pub fn setup_s(&self) -> f64 {
        self.first_entry.load(Ordering::SeqCst) as f64 / 1e9
    }

    /// First body entry to last body exit, seconds.
    pub fn span_s(&self) -> f64 {
        let (a, b) = (
            self.first_entry.load(Ordering::SeqCst),
            self.last_exit.load(Ordering::SeqCst),
        );
        b.saturating_sub(a) as f64 / 1e9
    }

    /// Last body exit to now (call when `run()` returned), milliseconds.
    pub fn drain_ms(&self) -> f64 {
        self.now_ns()
            .saturating_sub(self.last_exit.load(Ordering::SeqCst)) as f64
            / 1e6
    }
}

/// Closed-loop generators stamp one call in this many.
pub const STAMP_EVERY: usize = 256;

/// Timings of the intercepted calls an application body makes (traced
/// runs only): every call's duration is summed, one in `SAMPLE_EVERY` is
/// kept for the percentiles.
#[derive(Default)]
pub struct CallTimer {
    inner: Mutex<CallTimes>,
}

#[derive(Default, Clone)]
pub struct CallTimes {
    pub calls: u64,
    pub in_call_ns: u64,
    pub body_ns: u64,
    pub sampled_ns: Vec<f64>,
    /// Where sampled calls are also recorded as spans: the tracer and the
    /// rank's body span.
    pub span: Option<(Arc<Tracer>, u64)>,
}

const SAMPLE_EVERY: u64 = 8;
/// One sampled call in this many is also recorded as a span.
const SPAN_EVERY: u64 = 64;

impl CallTimer {
    /// Times `f` as one intercepted call of the rank owning `local`.
    pub fn time<T>(local: &mut CallTimes, f: impl FnOnce() -> T) -> T {
        let n = local.calls + 1;
        let span = match &local.span {
            Some((tr, parent)) if n.is_multiple_of(SPAN_EVERY) => {
                Some((tr.id(), tr.now(), *parent))
            }
            _ => None,
        };
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        local.calls = n;
        local.in_call_ns += ns;
        if n.is_multiple_of(SAMPLE_EVERY) {
            local.sampled_ns.push(ns as f64);
        }
        if let (Some((id, start, parent)), Some((tr, _))) = (span, &local.span) {
            tr.record(id, parent, n, "instrument.call", start);
        }
        out
    }

    /// Runs one rank's application body: times every intercepted call
    /// `body` routes through [`CallTimer::time`] and, with a tracer,
    /// wraps the body in an `instrument.body` span.
    pub fn body<T>(
        &self,
        tracer: Option<&Arc<Tracer>>,
        rank: usize,
        body: impl FnOnce(&mut CallTimes) -> T,
    ) -> T {
        let mut local = CallTimes::default();
        let id = tracer.map(|t| t.id());
        let start_ns = tracer.map_or(0, |t| t.now());
        if let (Some(t), Some(id)) = (tracer, id) {
            local.span = Some((Arc::clone(t), id));
        }
        let start = Instant::now();
        let out = body(&mut local);
        local.body_ns = start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (tracer, id) {
            t.record(
                id,
                crate::trace::ROOT,
                rank as u64,
                "instrument.body",
                start_ns,
            );
        }
        self.absorb(local);
        out
    }

    /// Folds one rank's local timings in.
    fn absorb(&self, local: CallTimes) {
        let mut g = self.inner.lock();
        g.calls += local.calls;
        g.in_call_ns += local.in_call_ns;
        g.body_ns += local.body_ns;
        g.sampled_ns.extend(local.sampled_ns);
    }

    pub fn take(&self) -> CallTimes {
        std::mem::take(&mut *self.inner.lock())
    }
}

/// What a traced session's bodies record: call timings, the rank's own
/// events (for the ladder) and spans.
#[derive(Clone, Default)]
pub struct Traced {
    pub timer: Option<Arc<CallTimer>>,
    pub capture: Option<Arc<Capture>>,
    pub tracer: Option<Arc<Tracer>>,
}

impl Traced {
    /// Runs an application body under whatever this trace asks for.
    pub fn body<T>(
        &self,
        imp: &InstrumentedMpi,
        body: impl FnOnce(Option<&mut CallTimes>) -> T,
    ) -> T {
        if let Some(c) = &self.capture {
            c.attach(imp);
        }
        match &self.timer {
            Some(timer) => timer.body(self.tracer.as_ref(), imp.rank(), |l| body(Some(l))),
            None => body(None),
        }
    }
}

/// Times `f` as an intercepted call when the body is timed.
pub fn timed<T>(local: &mut Option<&mut CallTimes>, f: impl FnOnce() -> T) -> T {
    match local {
        Some(l) => CallTimer::time(l, f),
        None => f(),
    }
}

/// Captures up to a bounded number of each rank's recorded events (in
/// order) through an interceptor hook, for the layer ladder.
pub struct Capture {
    cap_per_rank: usize,
    per_rank: Mutex<Vec<Vec<Event>>>,
}

impl Capture {
    pub fn new(ranks: usize, cap_per_rank: usize) -> Arc<Capture> {
        Arc::new(Capture {
            cap_per_rank,
            per_rank: Mutex::new(vec![Vec::new(); ranks]),
        })
    }

    /// Installs the hook on `imp`. The `Init` event precedes any hook, so
    /// it is added here by hand.
    pub fn attach(self: &Arc<Self>, imp: &InstrumentedMpi) {
        let me = Arc::clone(self);
        let rank = imp.rank();
        me.push(
            rank,
            Event::basic(opmr_events::EventKind::Init, rank as u32, 0, 0),
        );
        imp.add_hook(move |e| me.push(rank, *e));
    }

    fn push(&self, rank: usize, e: Event) {
        let mut g = self.per_rank.lock();
        if let Some(v) = g.get_mut(rank) {
            if v.len() < self.cap_per_rank {
                v.push(e);
            }
        }
    }

    pub fn take(&self) -> Vec<Vec<Event>> {
        std::mem::take(&mut *self.per_rank.lock())
    }
}

/// Counter value in the process-wide registry (0 if never registered).
pub fn counter(name: &str) -> u64 {
    opmr_obs::registry().snapshot().counter(name).unwrap_or(0)
}

/// Writer-side stream bytes on the wire, process-wide so far.
pub fn wire_bytes() -> u64 {
    counter("vmpi_stream_bytes_on_wire_total")
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Queries a consumer times against the final report of a batch session:
/// enough that a session's p99 is its fourth-slowest query, so that one
/// or two interrupts landing in the burst do not set it.
const QUERY_SAMPLES: usize = 300;

/// Runs the consumer's queries against the report a batch session
/// delivered, after one untimed query; returns each query's latency, ms.
/// Each query counts as an operation, a failed one as failed.
pub fn held_report_queries(
    out: &mut crate::Outcome,
    o: &opmr_core::SessionOutcome,
    ranks: u32,
) -> Vec<f64> {
    let snapshot = encode_partials(&o.report.to_partials());
    let _ = local_query(&snapshot, ranks);
    (0..QUERY_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let ok = local_query(&snapshot, ranks).is_ok();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.check(ok, || "query on the held report failed".into());
            ms
        })
        .collect()
}

/// Answers the consumer's profile + density query against a report it
/// already holds, along the serve plane's answer path without the
/// transport: decode the snapshot bytes, keep the ranks in range, encode
/// the answer. Returns the answer size so the work cannot be elided.
fn local_query(snapshot: &[u8], rank_hi: u32) -> Result<usize, BoxError> {
    let parts = decode_partials(snapshot)?;
    let app = parts.first().ok_or("snapshot holds no application")?;
    let mut profile = opmr_analysis::profiler::MpiProfile::new();
    for kind in app.profile.kinds() {
        for rank in 0..app.profile.ranks().min(rank_hi) {
            if let Some(s) = app.profile.rank_kind(rank, kind) {
                profile.absorb_stats(rank, kind, s.hits, s.time_ns, s.bytes, s.min_ns, s.max_ns);
            }
        }
    }
    let mut out = bytes::BytesMut::new();
    encode_profile(&profile, &mut out);
    let density: Vec<u64> = (0..app.profile.ranks().min(rank_hi))
        .map(|r| {
            app.profile
                .kinds()
                .into_iter()
                .filter_map(|k| app.profile.rank_kind(r, k))
                .map(|s| s.hits)
                .sum()
        })
        .collect();
    Ok(out.len() + density.len() * 8)
}
