//! GEMM and convolution throughput at a workload's own layer shapes.
//!
//! FLOPs are computed from the shapes (2·m·k·n for a GEMM, 2 multiply-adds
//! per kernel tap for a convolution), not counted by hardware.

use candle::BenchId;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// How long each kernel is repeated for.
const PROBE_TIME: Duration = Duration::from_millis(150);

/// Achieved rates, GFLOP/s (computed FLOPs over measured time).
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// The workload's largest dense layer as a GEMM.
    pub gemm_gflops: f64,
    /// The workload's largest convolution; 0 for a model without one.
    pub conv_gflops: f64,
}

/// Probes the shapes of `bench`'s model (as `candle::models` builds it)
/// at `features` inputs and `batch` rows.
pub fn for_bench(bench: BenchId, features: usize, batch: usize) -> Probe {
    match bench {
        BenchId::Nt3 => {
            // Conv1D(1→16, k5, s2) → MaxPool(2) → Conv1D(16→16, k3) →
            // Flatten → Dense(→32).
            let steps1 = tensor::conv1d_output_len(features, 5, 2).expect("NT3 width");
            let pooled = tensor::pool1d_output_len(steps1, 2).expect("NT3 width");
            let steps2 = tensor::conv1d_output_len(pooled, 3, 1).expect("NT3 width");
            Probe {
                gemm_gflops: gemm(batch, steps2 * 16, 32),
                conv_gflops: conv(batch, pooled, 16, 16, 3),
            }
        }
        // Dense(features → features/2 clamped to 8..64) leads the MLP
        // models.
        _ => Probe {
            gemm_gflops: gemm(batch, features, (features / 2).clamp(8, 64)),
            conv_gflops: 0.0,
        },
    }
}

fn gemm(m: usize, k: usize, n: usize) -> f64 {
    let a = filled(&[m, k]);
    let b = filled(&[k, n]);
    rate(2.0 * (m * k * n) as f64, || {
        black_box(tensor::matmul(black_box(&a), black_box(&b)).expect("shapes agree"));
    })
}

fn conv(batch: usize, steps: usize, in_ch: usize, out_ch: usize, kernel: usize) -> f64 {
    let x = filled(&[batch, steps, in_ch]);
    let w = filled(&[kernel, in_ch, out_ch]);
    let out_steps = tensor::conv1d_output_len(steps, kernel, 1).expect("kernel fits");
    let flops = 2.0 * (batch * out_steps * kernel * in_ch * out_ch) as f64;
    rate(flops, || {
        black_box(tensor::conv1d_forward(black_box(&x), black_box(&w), 1).expect("shapes agree"));
    })
}

fn filled(dims: &[usize]) -> Tensor {
    let n = dims.iter().product::<usize>();
    let data = (0..n).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
    Tensor::from_vec(dims, data).expect("length matches shape")
}

fn rate(flops: f64, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < PROBE_TIME {
        op();
        iters += 1;
    }
    flops * iters as f64 / start.elapsed().as_secs_f64() / 1e9
}
