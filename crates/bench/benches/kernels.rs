//! Criterion bench: raw substrate kernels — matmul, softmax, row gather
//! and bit packing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paro::quant::{Bitwidth, PackedCodes};
use paro::tensor::rng::seeded;
use paro::tensor::Tensor;
use rand::distributions::Uniform;

fn bench_kernels(c: &mut Criterion) {
    let dist = Uniform::new(-1.0f32, 1.0);
    let mut group = c.benchmark_group("kernels");

    for n in [64usize, 256] {
        let a = Tensor::random(&[n, n], &dist, &mut seeded(1));
        let b = Tensor::random(&[n, n], &dist, &mut seeded(2));
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("softmax", n), &n, |bench, _| {
            bench.iter(|| a.softmax_rows().unwrap())
        });
        let perm: Vec<usize> = (0..n).rev().collect();
        group.bench_with_input(BenchmarkId::new("gather_rows", n), &n, |bench, _| {
            bench.iter(|| a.gather_rows(&perm).unwrap())
        });
    }

    let codes: Vec<u32> = (0..65536).map(|i| (i % 4) as u32).collect();
    group.bench_function("pack_2bit_64k", |b| {
        b.iter(|| PackedCodes::pack(&codes, Bitwidth::B2).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels
}
criterion_main!(benches);
