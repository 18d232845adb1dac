//! Ablation: VMPI stream throughput vs `NA` (async window), block size and
//! load-balancing policy — DESIGN.md's stream ablation — plus the cost of
//! the frame integrity check every socket, serve and reduce frame carries.

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench harness code

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use opmr_events::{checksum, try_frame, FrameBuf};
use opmr_runtime::Launcher;
use opmr_vmpi::{Balance, ReadMode, ReadStream, StreamConfig, Vmpi, WriteStream};

/// Ships `total` bytes writer→reader with the given stream config.
fn ship(total: usize, cfg: StreamConfig) {
    Launcher::new()
        .partition("w", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 1).unwrap();
            let chunk = vec![0u8; cfg.block_size];
            let mut left = total;
            while left > 0 {
                let n = left.min(chunk.len());
                st.write(&chunk[..n]).unwrap();
                left -= n;
            }
            st.close().unwrap();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 1).unwrap();
            while st.read(ReadMode::Blocking).unwrap().is_some() {}
        })
        .run()
        .unwrap();
}

fn bench_window_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_window_depth");
    let total = 16 << 20;
    g.throughput(Throughput::Bytes(total as u64));
    g.sample_size(10);
    for na in [1usize, 3, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(na), &na, |b, &na| {
            b.iter(|| ship(total, StreamConfig::new(1 << 20, na, Balance::None)));
        });
    }
    g.finish();
}

fn bench_block_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_block_size");
    let total = 16 << 20;
    g.throughput(Throughput::Bytes(total as u64));
    g.sample_size(10);
    for shift in [16usize, 18, 20] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}KiB", (1 << shift) / 1024)),
            &shift,
            |b, &shift| {
                b.iter(|| ship(total, StreamConfig::new(1 << shift, 3, Balance::None)));
            },
        );
    }
    g.finish();
}

fn bench_balance_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_balance_policy");
    let total = 8 << 20;
    g.throughput(Throughput::Bytes(total as u64));
    g.sample_size(10);
    for (name, policy) in [
        ("none", Balance::None),
        ("random", Balance::Random { seed: 7 }),
        ("round_robin", Balance::RoundRobin),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, &policy| {
            b.iter(|| {
                // One writer fanning out to three readers.
                let cfg = StreamConfig::new(1 << 18, 3, policy);
                Launcher::new()
                    .partition("w", 1, move |mpi| {
                        let v = Vmpi::new(mpi).unwrap();
                        let mut st = WriteStream::open_to(&v, vec![1, 2, 3], cfg, 1).unwrap();
                        st.write(&vec![0u8; total]).unwrap();
                        st.close().unwrap();
                    })
                    .partition("r", 3, move |mpi| {
                        let v = Vmpi::new(mpi).unwrap();
                        let cfg_r = StreamConfig::new(1 << 18, 3, Balance::None);
                        let mut st = ReadStream::open_from(&v, vec![0], cfg_r, 1).unwrap();
                        while st.read(ReadMode::Blocking).unwrap().is_some() {}
                    })
                    .run()
                    .unwrap();
            });
        });
    }
    g.finish();
}

/// Bytes framed per timed call, so small frames are not lost in timer
/// resolution.
const FRAME_BYTES_PER_ITER: usize = 16 << 20;

/// One frame hop as the socket transport pays it: `try_frame` on the
/// sender (copy + checksum) and `FrameBuf::push` + `next_frame` on the
/// receiver (copy + verification), reported in ns per payload byte; and
/// the bare checksum for comparison.
fn bench_frame(c: &mut Criterion) {
    let payloads: Vec<(&str, Vec<u8>)> = [
        ("1KiB", 1usize << 10),
        ("64KiB", 64 << 10),
        ("1MiB", 1 << 20),
    ]
    .into_iter()
    .map(|(name, len)| (name, (0..len).map(|i| (i * 131 + 7) as u8).collect()))
    .collect();
    let mut g = c.benchmark_group("frame_roundtrip");
    g.throughput(Throughput::Bytes(FRAME_BYTES_PER_ITER as u64));
    g.sample_size(10);
    for (name, payload) in &payloads {
        g.bench_with_input(BenchmarkId::from_parameter(name), payload, |b, payload| {
            b.iter(|| {
                let mut fb = FrameBuf::new();
                for _ in 0..FRAME_BYTES_PER_ITER / payload.len() {
                    fb.push(&try_frame(payload).unwrap());
                    black_box(fb.next_frame().unwrap().unwrap());
                }
            });
        });
    }
    g.finish();
    let mut g = c.benchmark_group("frame_checksum");
    g.throughput(Throughput::Bytes(FRAME_BYTES_PER_ITER as u64));
    g.sample_size(10);
    for (name, payload) in &payloads {
        g.bench_with_input(BenchmarkId::from_parameter(name), payload, |b, payload| {
            b.iter(|| {
                for _ in 0..FRAME_BYTES_PER_ITER / payload.len() {
                    black_box(checksum(black_box(payload)));
                }
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_window_depth,
    bench_block_size,
    bench_balance_policy,
    bench_frame
);
criterion_main!(benches);
