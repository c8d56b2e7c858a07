//! The paper's evaluation in miniature: per-layer latency (Figure 13),
//! total latency against the paper's measured CPU/GPU latencies
//! (Figure 15), throughput vs batch size against their published peaks
//! (Figure 16), and cache-capacity scaling (Table IV).
//!
//! Run with: `cargo run --release --example inception_evaluation`

use neural_cache_repro::cache::paper::{CPU, GPU};
use neural_cache_repro::cache::{throughput_sweep, time_inference, SystemConfig};
use neural_cache_repro::dnn::inception::inception_v3;

fn main() {
    let model = inception_v3();
    let config = SystemConfig::xeon_e5_2697_v3();
    let nc = time_inference(&config, &model);

    println!("== Per-layer latency (ms) ==");
    println!("{:<18} {:>13}", "layer", "Neural Cache");
    for layer in &nc.layers {
        println!("{:<18} {:>13.4}", layer.name, layer.total().as_millis_f64());
    }
    let nc_ms = nc.total().as_millis_f64();
    println!(
        "\ntotal: Neural Cache {nc_ms:.2} ms | paper: CPU {:.1} ms, GPU {:.1} ms  ({:.1}x / {:.1}x)",
        CPU.latency_ms,
        GPU.latency_ms,
        CPU.latency_ms / nc_ms,
        GPU.latency_ms / nc_ms,
    );

    println!("\n== Throughput vs batch size (inferences/sec) ==");
    let batches = [1usize, 4, 16, 64, 256];
    println!("{:>6} {:>13}", "batch", "Neural Cache");
    for r in throughput_sweep(&config, &model, &batches) {
        println!("{:>6} {:>13.1}", r.batch, r.throughput_ips);
    }
    println!(
        "paper peaks: CPU {:.1}, GPU {:.1}",
        CPU.peak_ips(),
        GPU.peak_ips()
    );

    println!("\n== Capacity scaling (batch 1) ==");
    for mb in [35usize, 45, 60] {
        let t = time_inference(&SystemConfig::with_capacity_mb(mb), &model).total();
        println!("{mb} MB: {t}");
    }
}
