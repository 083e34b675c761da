//! # webml-converter
//!
//! The model converter (paper Sec 5.1): serializes models to the "web
//! format" — a topology JSON plus binary weight files — and loads them
//! back.
//!
//! Reproduced design points:
//! - weights are packed into **4 MB shards**, "optimizing for browser
//!   auto-caching" ([`shard`]);
//! - optional **quantization** reduces the model size by 4x (u8) or 2x
//!   (u16) ([`quantize`]);
//! - **training-op pruning** strips optimizer/save/restore subgraphs from a
//!   graph before serving it for inference ([`prune`]);
//! - a simulated HTTP layer with a browser-style cache demonstrates the
//!   shard-granularity caching benefit ([`fetch`]).

#![warn(missing_docs)]

pub mod artifacts;
pub mod fetch;
pub mod graph_exec;
pub mod plan;
pub mod prune;
pub mod quantize;
pub mod shard;

pub use artifacts::{ModelArtifacts, WeightSpec};
pub use fetch::{FetchStats, SimulatedNetwork};
pub use graph_exec::{GraphModel, PlanStats};
pub use plan::{Arg, PendingFetches, Plan, PlannedOp};
pub use prune::{GraphDef, NodeDef};
pub use quantize::Quantization;

use serde_json::Value;
use std::path::Path;
use webml_core::{Engine, Error, Result, Tensor};
use webml_layers::Sequential;

/// Convert a model into in-memory artifacts (topology + specs + bytes).
///
/// # Errors
/// Fails when weight data cannot be read.
pub fn to_artifacts(model: &Sequential, quantization: Option<Quantization>) -> Result<ModelArtifacts> {
    let topology = model.to_topology();
    let mut specs = Vec::new();
    let mut data = Vec::new();
    for (name, var) in model.named_weights() {
        let tensor = var.value();
        let values = tensor.to_f32_vec()?;
        let spec = match quantization {
            None => {
                for v in &values {
                    data.extend_from_slice(&v.to_le_bytes());
                }
                WeightSpec::full(name, tensor.shape().0)
            }
            Some(q) => {
                let (bytes, scale, min) = q.quantize(&name, &values)?;
                data.extend_from_slice(&bytes);
                WeightSpec::quantized(name, tensor.shape().0, q, scale, min)
            }
        };
        specs.push(spec);
    }
    Ok(ModelArtifacts { topology, weight_specs: specs, weight_data: bytes::Bytes::from(data) })
}

/// Reconstruct a model from artifacts on `engine`.
///
/// # Errors
/// Fails on malformed artifacts.
pub fn from_artifacts(engine: &Engine, artifacts: &ModelArtifacts) -> Result<Sequential> {
    let mut model = Sequential::from_topology(engine, &artifacts.topology)?;
    let weights = decode_weights(engine, &artifacts.weight_specs, &artifacts.weight_data)?;
    model.set_weights_by_name(&weights)?;
    Ok(model)
}

/// Decode weight tensors from specs plus concatenated bytes.
///
/// # Errors
/// Fails when byte counts do not line up with the specs.
pub fn decode_weights(
    engine: &Engine,
    specs: &[WeightSpec],
    data: &[u8],
) -> Result<Vec<(String, Tensor)>> {
    decode_weights_impl(engine, specs, data, false)
}

/// [`decode_weights`], but U8-quantized weights stay resident as raw codes
/// (`DType::U8` tensors carrying their [`webml_core::QuantParams`]) instead
/// of being decoded to f32 — load time never materializes an f32 copy, and
/// the weight holds one byte per element until a dequant-free fused kernel
/// consumes it. U16 and full-precision weights decode exactly as
/// [`decode_weights`] does.
///
/// # Errors
/// Fails when byte counts do not line up with the specs.
pub fn decode_weights_quantized(
    engine: &Engine,
    specs: &[WeightSpec],
    data: &[u8],
) -> Result<Vec<(String, Tensor)>> {
    decode_weights_impl(engine, specs, data, true)
}

fn decode_weights_impl(
    engine: &Engine,
    specs: &[WeightSpec],
    data: &[u8],
    keep_u8: bool,
) -> Result<Vec<(String, Tensor)>> {
    let mut offset = 0usize;
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let count = spec.shape.iter().product::<usize>();
        let byte_len = spec.byte_len();
        if offset + byte_len > data.len() {
            return Err(Error::Serialization {
                message: format!("weight {} overruns data buffer", spec.name),
            });
        }
        let slice = &data[offset..offset + byte_len];
        offset += byte_len;
        if keep_u8 {
            if let Some(q) = &spec.quantization {
                if q.kind == Quantization::U8 {
                    q.kind.check_buffer(&spec.name, slice.len(), &spec.shape)?;
                    let params = match &q.per_channel {
                        Some(pc) => webml_core::QuantParams::per_channel(
                            pc.axis,
                            pc.scales.clone(),
                            pc.mins.clone(),
                        ),
                        None => webml_core::QuantParams::per_tensor(q.scale, q.min),
                    };
                    let tensor =
                        engine.quantized_tensor(slice.to_vec(), spec.shape.clone(), params)?;
                    out.push((spec.name.clone(), tensor));
                    continue;
                }
            }
        }
        let values: Vec<f32> = match &spec.quantization {
            None => slice
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect(),
            Some(q) => {
                q.kind.check_buffer(&spec.name, slice.len(), &spec.shape)?;
                match &q.per_channel {
                    None => q.kind.dequantize(slice, q.scale, q.min)?,
                    Some(pc) => {
                        // Per-channel dequantization via the core reference
                        // semantics (U8 only; per-channel U16 is not
                        // emitted by the converter).
                        webml_core::QuantParams::per_channel(
                            pc.axis,
                            pc.scales.clone(),
                            pc.mins.clone(),
                        )
                        .dequantize(slice, &spec.shape)?
                    }
                }
            }
        };
        if values.len() != count {
            return Err(Error::Serialization {
                message: format!("weight {}: expected {count} values, got {}", spec.name, values.len()),
            });
        }
        let tensor = engine.tensor(values, spec.shape.clone())?;
        out.push((spec.name.clone(), tensor));
    }
    Ok(out)
}

/// Save a model to a directory in the web format:
/// `model.json` plus `group1-shard{i}of{n}.bin` files of at most 4 MB.
///
/// # Errors
/// Fails on IO errors.
pub fn save_model(
    model: &Sequential,
    dir: impl AsRef<Path>,
    quantization: Option<Quantization>,
) -> Result<()> {
    let artifacts = to_artifacts(model, quantization)?;
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(io_err)?;
    let shards = shard::split(&artifacts.weight_data, shard::SHARD_BYTES);
    let paths: Vec<String> =
        (0..shards.len()).map(|i| format!("group1-shard{}of{}.bin", i + 1, shards.len())).collect();
    let manifest = artifacts.manifest_json(&paths);
    std::fs::write(dir.join("model.json"), serde_json::to_vec_pretty(&manifest).map_err(json_err)?)
        .map_err(io_err)?;
    for (path, shard) in paths.iter().zip(&shards) {
        std::fs::write(dir.join(path), shard).map_err(io_err)?;
    }
    Ok(())
}

/// Load a model from a directory written by [`save_model`]
/// (`tf.loadModel(url)` for the filesystem case).
///
/// # Errors
/// Fails on IO errors or malformed files.
pub fn load_model(engine: &Engine, dir: impl AsRef<Path>) -> Result<Sequential> {
    let dir = dir.as_ref();
    let manifest: Value = serde_json::from_slice(
        &std::fs::read(dir.join("model.json")).map_err(io_err)?,
    )
    .map_err(json_err)?;
    let artifacts = artifacts_from_manifest(&manifest, |path| {
        std::fs::read(dir.join(path)).map_err(io_err)
    })?;
    from_artifacts(engine, &artifacts)
}

/// Load a model through the simulated network (`tf.loadModel(url)` over
/// HTTP with the browser cache).
///
/// # Errors
/// Fails on missing URLs or malformed payloads.
pub fn load_model_from_network(
    engine: &Engine,
    net: &SimulatedNetwork,
    base_url: &str,
) -> Result<Sequential> {
    let manifest_bytes = net.fetch(&format!("{base_url}/model.json"))?;
    let manifest: Value = serde_json::from_slice(&manifest_bytes).map_err(json_err)?;
    let artifacts =
        artifacts_from_manifest(&manifest, |path| net.fetch(&format!("{base_url}/{path}")))?;
    from_artifacts(engine, &artifacts)
}

/// Parse a manifest JSON, fetching shard bytes through `read`.
///
/// # Errors
/// Fails on malformed manifests.
pub fn artifacts_from_manifest(
    manifest: &Value,
    mut read: impl FnMut(&str) -> Result<Vec<u8>>,
) -> Result<ModelArtifacts> {
    let topology = manifest
        .get("modelTopology")
        .cloned()
        .ok_or_else(|| Error::Serialization { message: "missing modelTopology".into() })?;
    let groups = manifest
        .get("weightsManifest")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::Serialization { message: "missing weightsManifest".into() })?;
    let mut specs = Vec::new();
    let mut data = Vec::new();
    for group in groups {
        for w in group.get("weights").and_then(Value::as_array).into_iter().flatten() {
            specs.push(WeightSpec::from_json(w)?);
        }
        for path in group.get("paths").and_then(Value::as_array).into_iter().flatten() {
            let p = path.as_str().ok_or_else(|| Error::Serialization {
                message: "non-string shard path".into(),
            })?;
            data.extend_from_slice(&read(p)?);
        }
    }
    Ok(ModelArtifacts { topology, weight_specs: specs, weight_data: bytes::Bytes::from(data) })
}

/// Which weights of `graph` can be stored quantized for dequant-free
/// inference, mapped to the per-channel quantization axis of their filter
/// layout. A weight qualifies only when **every** consumer uses it as the
/// weight operand (`inputs[1]`) of a matmul / conv2d / depthwise-conv2d
/// node — a weight also fed to any other op would force a runtime
/// dequantize there, so it stays f32. Axes follow the kernels' channel
/// layouts: matmul `[k, n]` → 1 (output columns), conv2d HWIO → 3 (output
/// channels), depthwise HWIM → 2 (input channels).
pub fn quantizable_weights(graph: &GraphDef) -> std::collections::HashMap<String, usize> {
    let weight_names: std::collections::HashSet<&str> = graph
        .nodes
        .iter()
        .filter(|n| matches!(n.op.as_str(), "Const" | "VariableV2"))
        .map(|n| n.name.as_str())
        .collect();
    // `None` = disqualified; `Some(axis)` = consistent so far.
    let mut verdict: std::collections::HashMap<&str, Option<usize>> =
        std::collections::HashMap::new();
    for node in &graph.nodes {
        for (k, input) in node.inputs.iter().enumerate() {
            let name = input.trim_start_matches('^');
            if !weight_names.contains(name) {
                continue;
            }
            let axis = match (node.op.as_str(), k) {
                ("MatMul", 1) => Some(1),
                ("Conv2D", 1) => Some(3),
                ("DepthwiseConv2dNative", 1) => Some(2),
                _ => None,
            };
            let entry = verdict.entry(name).or_insert(axis);
            if *entry != axis {
                *entry = None;
            }
        }
    }
    verdict
        .into_iter()
        .filter_map(|(name, axis)| axis.map(|a| (name.to_string(), a)))
        .collect()
}

fn io_err(e: std::io::Error) -> Error {
    Error::Serialization { message: format!("io error: {e}") }
}

fn json_err(e: serde_json::Error) -> Error {
    Error::Serialization { message: format!("json error: {e}") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webml_core::cpu::CpuBackend;
    use webml_layers::{Activation, Dense};

    fn engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    fn small_model(e: &Engine) -> Sequential {
        let mut m = Sequential::new(e).with_seed(11);
        m.add(Dense::new(8).with_input_dim(4).with_activation(Activation::Relu));
        m.add(Dense::new(3));
        m.build([4]).unwrap();
        m
    }

    #[test]
    fn artifacts_round_trip_exact() {
        let e = engine();
        let mut model = small_model(&e);
        let x = e.tensor_2d(&[0.1, -0.2, 0.3, 0.4], 1, 4).unwrap();
        let expect = model.predict(&x).unwrap().to_f32_vec().unwrap();
        let artifacts = to_artifacts(&model, None).unwrap();
        let mut restored = from_artifacts(&e, &artifacts).unwrap();
        let got = restored.predict(&x).unwrap().to_f32_vec().unwrap();
        assert_eq!(got, expect, "full-precision round trip must be exact");
    }

    #[test]
    fn quantized_round_trip_approximate() {
        let e = engine();
        let mut model = small_model(&e);
        let x = e.tensor_2d(&[0.1, -0.2, 0.3, 0.4], 1, 4).unwrap();
        let expect = model.predict(&x).unwrap().to_f32_vec().unwrap();
        let artifacts = to_artifacts(&model, Some(Quantization::U8)).unwrap();
        // 4x size reduction.
        let full = to_artifacts(&model, None).unwrap();
        assert_eq!(full.weight_data.len(), artifacts.weight_data.len() * 4);
        let mut restored = from_artifacts(&e, &artifacts).unwrap();
        let got = restored.predict(&x).unwrap().to_f32_vec().unwrap();
        for (g, w) in got.iter().zip(&expect) {
            assert!((g - w).abs() < 0.1, "quantized {g} vs {w}");
        }
    }

    #[test]
    fn decode_quantized_keeps_codes_resident() {
        let e = engine();
        let model = small_model(&e);
        let artifacts = to_artifacts(&model, Some(Quantization::U8)).unwrap();
        let full = decode_weights(&e, &artifacts.weight_specs, &artifacts.weight_data).unwrap();
        let kept =
            decode_weights_quantized(&e, &artifacts.weight_specs, &artifacts.weight_data)
                .unwrap();
        for ((_, f), (name, q)) in full.iter().zip(&kept) {
            assert!(q.is_quantized(), "{name} must stay resident as U8 codes");
            assert_eq!(q.bytes() * 4, f.bytes(), "{name} holds one byte per code");
            // Dequantizing the resident codes reproduces the f32 decode.
            let qv = webml_core::ops::dequantize(q).unwrap().to_f32_vec().unwrap();
            let fv = f.to_f32_vec().unwrap();
            for (a, b) in qv.iter().zip(&fv) {
                assert!((a - b).abs() < 1e-6, "{name}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quantized_weights_survive_shard_boundaries() {
        // A single quantized weight larger than one 4 MB shard: its codes
        // span a shard boundary and must reassemble bitwise.
        let count = shard::SHARD_BYTES + 4096;
        let codes: Vec<u8> = (0..count).map(|i| (i % 251) as u8).collect();
        let spec = WeightSpec::quantized("big".to_string(), vec![count], Quantization::U8, 0.5, -1.0);
        let artifacts = ModelArtifacts {
            topology: serde_json::json!({}),
            weight_specs: vec![spec],
            weight_data: bytes::Bytes::from(codes.clone()),
        };
        let shards = shard::split(&artifacts.weight_data, shard::SHARD_BYTES);
        assert!(shards.len() >= 2, "weight must cross a shard boundary");
        let paths: Vec<String> = (0..shards.len())
            .map(|i| format!("group1-shard{}of{}.bin", i + 1, shards.len()))
            .collect();
        let manifest = artifacts.manifest_json(&paths);
        let reloaded = artifacts_from_manifest(&manifest, |path| {
            let i = paths.iter().position(|p| p == path).expect("known shard");
            Ok(shards[i].clone())
        })
        .unwrap();
        let e = engine();
        let ws =
            decode_weights_quantized(&e, &reloaded.weight_specs, &reloaded.weight_data).unwrap();
        assert_eq!(ws.len(), 1);
        let t = &ws[0].1;
        assert!(t.is_quantized());
        match t.data_sync().unwrap() {
            webml_core::TensorData::U8(v) => assert_eq!(v, codes, "codes reassemble bitwise"),
            other => panic!("expected U8 codes, got {other:?}"),
        }
        let params = t.quant_params().expect("params survive the manifest");
        assert_eq!(*params, webml_core::QuantParams::per_tensor(0.5, -1.0));
    }

    #[test]
    fn quantizable_weights_requires_kernel_only_consumers() {
        let g = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("w_mm", "Const", &[]),
            ("w_conv", "Const", &[]),
            ("b", "Const", &[]),
            ("w_shared", "Const", &[]),
            ("mm", "MatMul", &["x", "w_mm"]),
            ("biased", "BiasAdd", &["mm", "b"]),
            ("conv", "Conv2D", &["biased", "w_conv"]),
            // Used both as a matmul weight and as a binary operand:
            // disqualified (the Add would need a runtime dequantize).
            ("mm2", "MatMul", &["biased", "w_shared"]),
            ("sum", "Add", &["mm2", "w_shared"]),
        ]);
        let eligible = quantizable_weights(&g);
        assert_eq!(eligible.get("w_mm"), Some(&1), "matmul weight quantizes on axis 1");
        assert_eq!(eligible.get("w_conv"), Some(&3), "conv weight quantizes on axis 3");
        assert!(!eligible.contains_key("b"), "bias is not a kernel weight operand");
        assert!(!eligible.contains_key("w_shared"), "mixed consumers disqualify");
    }

    #[test]
    fn save_load_directory() {
        let e = engine();
        let mut model = small_model(&e);
        let dir = std::env::temp_dir().join(format!("webml-test-{}", std::process::id()));
        save_model(&model, &dir, None).unwrap();
        assert!(dir.join("model.json").exists());
        assert!(dir.join("group1-shard1of1.bin").exists());
        let mut loaded = load_model(&e, &dir).unwrap();
        let x = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 1, 4).unwrap();
        assert_eq!(
            loaded.predict(&x).unwrap().to_f32_vec().unwrap(),
            model.predict(&x).unwrap().to_f32_vec().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_fields_error() {
        let e = engine();
        let bad = serde_json::json!({"weightsManifest": []});
        assert!(artifacts_from_manifest(&bad, |_| Ok(Vec::new())).is_err());
        let _ = e;
    }
}
