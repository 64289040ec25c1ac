//! Ablation benchmarks for the implementation design choices called out in
//! DESIGN.md:
//!
//! 1. **Attention decomposition** — the PCG logits via the
//!    `W₉ = [W₉ᵃ; W₉ᵇ]` broadcast (O(n²) after one n×n matmul) versus the
//!    literal Eq 15 pairing that concatenates `[h_i ‖ h_j]` for every pair
//!    (O(n³)). Both produce identical logits; the bench quantifies the win.
//! 2. **Zero-skipping matmul** — the eager `Tensor::matmul`'s per-entry
//!    `av == 0` row skip on realistic (mostly-zero) flow matrices versus
//!    dense random input. (The plan's layout GEMM has no skip; DESIGN
//!    §12.2.)

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stgnn_tensor::{Shape, Tensor};

fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Tensor {
    let data: Vec<f32> = (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(Shape::matrix(r, c), data).unwrap()
}

/// The decomposed attention logits: `s·1ᵀ + 1·dᵀ` after `h = F·W₈`.
fn attention_decomposed(f: &Tensor, w8: &Tensor, w9a: &Tensor, w9b: &Tensor) -> Tensor {
    let h = f.matmul(w8).unwrap();
    let s = h.matmul(w9a).unwrap(); // n×1
    let d = h.matmul(w9b).unwrap(); // n×1
    let n = f.shape().rows();
    let ones_row = Tensor::ones(Shape::matrix(1, n));
    s.matmul(&ones_row)
        .unwrap()
        .add_row_broadcast(&d.transpose().unwrap())
        .unwrap()
        .elu()
}

/// The literal Eq 15: for every pair, concatenate `[h_i ‖ h_j]` and dot
/// with the full `W₉ ∈ R^{2n×1}`.
fn attention_naive(f: &Tensor, w8: &Tensor, w9a: &Tensor, w9b: &Tensor) -> Tensor {
    let h = f.matmul(w8).unwrap();
    let n = f.shape().rows();
    let mut out = Tensor::zeros(Shape::matrix(n, n));
    let buf = out.data_mut();
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for (k, &hv) in h.row(i).iter().enumerate() {
                acc += hv * w9a.data()[k];
            }
            for (k, &hv) in h.row(j).iter().enumerate() {
                acc += hv * w9b.data()[k];
            }
            buf[i * n + j] = if acc > 0.0 { acc } else { acc.exp_m1() };
        }
    }
    out
}

fn bench_attention_decomposition(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = c.benchmark_group("pcg_attention_logits");
    for &n in &[32usize, 64, 128] {
        let f = random_matrix(&mut rng, n, n);
        let w8 = random_matrix(&mut rng, n, n);
        let w9a = random_matrix(&mut rng, n, 1);
        let w9b = random_matrix(&mut rng, n, 1);
        // Correctness guard: both paths agree before we time them.
        let a = attention_decomposed(&f, &w8, &w9a, &w9b);
        let b = attention_naive(&f, &w8, &w9a, &w9b);
        assert!(a.approx_eq(&b, 1e-2), "decomposition diverged from Eq 15");
        group.bench_with_input(BenchmarkId::new("decomposed", n), &n, |bench, _| {
            bench.iter(|| black_box(attention_decomposed(&f, &w8, &w9a, &w9b)));
        });
        group.bench_with_input(BenchmarkId::new("naive_pairwise", n), &n, |bench, _| {
            bench.iter(|| black_box(attention_naive(&f, &w8, &w9a, &w9b)));
        });
    }
    group.finish();
}

fn bench_sparse_aware_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let n = 96;
    let dense = random_matrix(&mut rng, n, n);
    // Realistic flow matrix: ~5% of station pairs exchange bikes in a slot.
    let sparse_data: Vec<f32> = (0..n * n)
        .map(|_| {
            if rng.gen::<f32>() < 0.05 {
                rng.gen_range(1.0..4.0)
            } else {
                0.0
            }
        })
        .collect();
    let sparse = Tensor::from_vec(Shape::matrix(n, n), sparse_data).unwrap();
    let rhs = random_matrix(&mut rng, n, n);

    let mut group = c.benchmark_group("matmul_zero_skip");
    group.bench_function("dense_lhs", |b| {
        b.iter(|| black_box(dense.matmul(&rhs).unwrap()))
    });
    group.bench_function("sparse_flow_lhs", |b| {
        b.iter(|| black_box(sparse.matmul(&rhs).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_attention_decomposition,
    bench_sparse_aware_matmul
);
criterion_main!(benches);
