//! Regenerates the **converter results of Sec 5.1**: quantization size
//! reductions (4x), 4 MB weight sharding, training-op pruning, and the
//! browser-cache benefit of shard-granular fetching.
//!
//! ```text
//! cargo run --release -p webml-bench --bin converter_report
//! ```

use webml_bench::harness::TableBackend;
use webml_converter::{prune::GraphDef, shard, to_artifacts, Quantization, SimulatedNetwork};
use webml_models::{repo, MobileNet, MobileNetConfig};

fn main() {
    let (engine, _) = TableBackend::NativeCudaClass.engine();
    let net = MobileNet::new(
        &engine,
        MobileNetConfig { alpha: 0.5, input_size: 96, classes: 100, batch_norm: true, seed: 1 },
    )
    .expect("build mobilenet");
    println!("MobileNet alpha=0.5 ({} parameters)\n", net.count_params());

    // Quantization (Sec 5.1: "reducing the model size by 4X").
    let full = to_artifacts(net.model(), None).expect("artifacts");
    let q16 = to_artifacts(net.model(), Some(Quantization::U16)).expect("artifacts");
    let q8 = to_artifacts(net.model(), Some(Quantization::U8)).expect("artifacts");
    println!("| Format | Weight bytes | Reduction |");
    println!("|---|---|---|");
    println!("| float32 | {} | 1.0x |", full.weight_bytes());
    println!(
        "| uint16 | {} | {:.1}x |",
        q16.weight_bytes(),
        full.weight_bytes() as f64 / q16.weight_bytes() as f64
    );
    println!(
        "| uint8 | {} | {:.1}x |",
        q8.weight_bytes(),
        full.weight_bytes() as f64 / q8.weight_bytes() as f64
    );

    // Sharding ("packs weights into 4MB files").
    let shards = shard::split(&full.weight_data, shard::SHARD_BYTES);
    println!(
        "\nsharding: {} bytes -> {} shard(s), all <= 4 MB: {}",
        full.weight_bytes(),
        shards.len(),
        shards.iter().all(|s| s.len() <= shard::SHARD_BYTES)
    );

    // Browser-cache benefit on reload.
    let sim = SimulatedNetwork::new();
    repo::publish(net.model(), &sim, "https://bucket/m").expect("publish");
    repo::load(&engine, &sim, "https://bucket/m").expect("first load");
    let first = sim.stats();
    repo::load(&engine, &sim, "https://bucket/m").expect("second load");
    let second = sim.stats();
    println!(
        "\nfirst load:  {} network requests, {} bytes transferred",
        first.network_requests, first.bytes_transferred
    );
    println!(
        "reload:      {} new network requests, {} bytes from cache",
        second.network_requests - first.network_requests,
        second.bytes_from_cache
    );

    // Training-op pruning.
    let graph = GraphDef::from_triples(&[
        ("input", "Placeholder", &[]),
        ("w1", "VariableV2", &[]),
        ("conv", "Conv2D", &["input", "w1"]),
        ("relu", "Relu", &["conv"]),
        ("w2", "VariableV2", &[]),
        ("logits", "MatMul", &["relu", "w2"]),
        ("softmax", "Softmax", &["logits"]),
        ("labels", "Placeholder", &[]),
        ("xent", "SoftmaxCrossEntropyWithLogits", &["logits", "labels"]),
        ("grad_w1", "Conv2DBackpropFilter", &["input", "xent"]),
        ("grad_w2", "MatMul", &["relu", "xent"]),
        ("train_w1", "ApplyGradientDescent", &["w1", "grad_w1"]),
        ("train_w2", "ApplyGradientDescent", &["w2", "grad_w2"]),
        ("save", "SaveV2", &["w1", "w2"]),
        ("restore", "RestoreV2", &[]),
        ("init", "NoOp", &[]),
    ]);
    let pruned = graph.prune(&["softmax"]).expect("prune");
    println!(
        "\npruning: training graph {} nodes -> inference graph {} nodes",
        graph.len(),
        pruned.len()
    );
    println!(
        "removed: {:?}",
        graph
            .nodes
            .iter()
            .filter(|n| !pruned.nodes.iter().any(|p| p.name == n.name))
            .map(|n| n.name.as_str())
            .collect::<Vec<_>>()
    );
}
