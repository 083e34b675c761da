//! Cross-backend consistency: every backend (plainjs, cpu, webgl, native)
//! must produce numerically matching results for the same op graph — the
//! property TensorFlow.js guarantees across its plain-JS/WebGL/Node
//! implementations (paper Sec 3.4).

use webml::core::conv_util::Padding;
use webml::{ops, DType, Engine, Tensor};

const BACKENDS: [&str; 4] = ["plainjs", "cpu", "webgl", "native"];

fn on_each_backend(f: impl Fn(&Engine) -> Vec<f32>) -> Vec<(String, Vec<f32>)> {
    BACKENDS
        .iter()
        .map(|name| {
            let e = webml::new_engine();
            e.set_backend(name).expect("backend registered");
            (name.to_string(), f(&e))
        })
        .collect()
}

fn assert_all_agree(results: &[(String, Vec<f32>)], tol: f32) {
    let (ref_name, reference) = &results[0];
    for (name, values) in &results[1..] {
        assert_eq!(values.len(), reference.len(), "{name} vs {ref_name} length");
        for (i, (a, b)) in values.iter().zip(reference).enumerate() {
            assert!(
                (a - b).abs() <= tol,
                "{name}[{i}] = {a} differs from {ref_name}[{i}] = {b}"
            );
        }
    }
}

#[test]
fn elementwise_chain_agrees() {
    let results = on_each_backend(|e| {
        let a = e.rand_uniform([64], -2.0, 2.0, 7).unwrap();
        let b = e.rand_uniform([64], 0.5, 2.0, 8).unwrap();
        let y = ops::add(
            &ops::mul(&ops::sigmoid(&a).unwrap(), &b).unwrap(),
            &ops::relu(&ops::neg(&a).unwrap()).unwrap(),
        )
        .unwrap();
        y.to_f32_vec().unwrap()
    });
    assert_all_agree(&results, 1e-5);
}

#[test]
fn broadcast_binary_agrees() {
    let results = on_each_backend(|e| {
        let a = e.rand_uniform([4, 1, 6], -1.0, 1.0, 1).unwrap();
        let b = e.rand_uniform([5, 1], -1.0, 1.0, 2).unwrap();
        ops::sub(&a, &b).unwrap().to_f32_vec().unwrap()
    });
    assert_all_agree(&results, 1e-6);
}

#[test]
fn matmul_agrees() {
    let results = on_each_backend(|e| {
        let a = e.rand_uniform([17, 23], -1.0, 1.0, 3).unwrap();
        let b = e.rand_uniform([23, 11], -1.0, 1.0, 4).unwrap();
        ops::matmul(&a, &b, false, false).unwrap().to_f32_vec().unwrap()
    });
    assert_all_agree(&results, 1e-3);
}

#[test]
fn matmul_transposes_agree() {
    for (ta, tb) in [(true, false), (false, true), (true, true)] {
        let results = on_each_backend(|e| {
            let a_dims = if ta { [9, 7] } else { [7, 9] };
            let b_dims = if tb { [5, 9] } else { [9, 5] };
            let a = e.rand_uniform(a_dims, -1.0, 1.0, 5).unwrap();
            let b = e.rand_uniform(b_dims, -1.0, 1.0, 6).unwrap();
            ops::matmul(&a, &b, ta, tb).unwrap().to_f32_vec().unwrap()
        });
        assert_all_agree(&results, 1e-4);
    }
}

#[test]
fn conv_pool_pipeline_agrees() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([1, 10, 10, 3], -1.0, 1.0, 9).unwrap();
        let w = e.rand_uniform([3, 3, 3, 8], -0.5, 0.5, 10).unwrap();
        let y = ops::conv2d(&x, &w, (2, 2), Padding::Same, (1, 1)).unwrap();
        let p = ops::max_pool(&y, (2, 2), (2, 2), Padding::Valid).unwrap();
        let a = ops::avg_pool(&y, (2, 2), (1, 1), Padding::Same).unwrap();
        let mut out = p.to_f32_vec().unwrap();
        out.extend(a.to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-4);
}

#[test]
fn depthwise_conv_agrees() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([2, 8, 8, 4], -1.0, 1.0, 11).unwrap();
        let w = e.rand_uniform([3, 3, 4, 2], -0.5, 0.5, 12).unwrap();
        ops::depthwise_conv2d(&x, &w, (1, 1), Padding::Same, (1, 1))
            .unwrap()
            .to_f32_vec()
            .unwrap()
    });
    assert_all_agree(&results, 1e-4);
}

#[test]
fn reductions_agree() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([4, 5, 6], -2.0, 2.0, 13).unwrap();
        let mut out = ops::sum(&x, Some(&[1]), false).unwrap().to_f32_vec().unwrap();
        out.extend(ops::mean(&x, Some(&[0, 2]), false).unwrap().to_f32_vec().unwrap());
        out.extend(ops::max(&x, None, false).unwrap().to_f32_vec().unwrap());
        out.extend(ops::argmax(&x, 2).unwrap().to_f32_vec().unwrap());
        // Nothing to add up: three empty sums, and a mean compared on bits.
        let empty = e.tensor(Vec::<f32>::new(), [3, 0]).unwrap();
        let sum = ops::sum(&empty, Some(&[1]), false).unwrap().to_f32_vec().unwrap();
        assert_eq!(sum, [0.0; 3]);
        out.extend(sum);
        let mean = ops::mean(&empty, Some(&[1]), false).unwrap().to_f32_vec().unwrap();
        out.extend(mean.iter().map(|v| v.to_bits() as f32));
        out
    });
    assert_all_agree(&results, 1e-4);
}

#[test]
fn softmax_and_xent_agree() {
    let results = on_each_backend(|e| {
        let logits = e.rand_uniform([8, 10], -3.0, 3.0, 14).unwrap();
        let labels = e.one_hot(&e.tensor((0..8).collect::<Vec<i32>>(), [8]).unwrap(), 10).unwrap();
        let mut out = ops::softmax(&logits).unwrap().to_f32_vec().unwrap();
        out.extend(ops::softmax_cross_entropy(&labels, &logits).unwrap().to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-5);
}

#[test]
fn shape_ops_agree() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([3, 4, 5], -1.0, 1.0, 15).unwrap();
        let mut out = ops::transpose(&x, Some(&[2, 0, 1])).unwrap().to_f32_vec().unwrap();
        out.extend(ops::slice(&x, &[1, 0, 2], &[2, 3, 3]).unwrap().to_f32_vec().unwrap());
        out.extend(ops::pad(&x, &[(1, 0), (0, 1), (2, 2)], 0.5).unwrap().to_f32_vec().unwrap());
        out.extend(ops::reverse(&x, &[1]).unwrap().to_f32_vec().unwrap());
        out.extend(ops::tile(&x, &[1, 2, 1]).unwrap().to_f32_vec().unwrap());
        let a = ops::slice(&x, &[0, 0, 0], &[1, 4, 5]).unwrap();
        let b = ops::slice(&x, &[1, 0, 0], &[2, 4, 5]).unwrap();
        out.extend(ops::concat(&[&a, &b], 0).unwrap().to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-6);
}

#[test]
fn gather_select_one_hot_agree() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([6, 3], -1.0, 1.0, 16).unwrap();
        let ix = e.tensor(vec![5i32, 0, 3], [3]).unwrap();
        let mut out = ops::gather(&x, &ix, 0).unwrap().to_f32_vec().unwrap();
        let cond = ops::greater(&x, &e.scalar(0.0).unwrap()).unwrap();
        out.extend(
            ops::select(&cond, &x, &ops::neg(&x).unwrap()).unwrap().to_f32_vec().unwrap(),
        );
        out.extend(e.one_hot(&ix, 7).unwrap().to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-6);
}

/// Indices of any rank: the output is `x`'s dims before `axis`, then the
/// index dims, then `x`'s dims after `axis` — on the GPU rungs too, whose
/// programs read the index buffer by flat index.
#[test]
fn gather_with_rank2_indices_matches_cpu_on_every_backend() {
    let e = webml::new_engine();
    let x = e.tensor((0..12).map(|v| v as f32).collect::<Vec<_>>(), [4, 3]).unwrap();
    let idx = e.tensor(vec![3i32, 0, 1, 2, 2, 1], [2, 3]).unwrap();
    for (axis, dims) in [(0, vec![2, 3, 3]), (1, vec![4, 2, 3])] {
        let mut want = None;
        for name in ["cpu", "plainjs", "native", "webgl", "webgpu"] {
            e.set_backend(name).expect("backend registered");
            let y = ops::gather(&x, &idx, axis).unwrap();
            assert_eq!(y.dims(), dims, "{name} axis {axis}");
            let got = y.to_f32_vec().unwrap();
            assert_eq!(&got, want.get_or_insert_with(|| got.clone()), "{name} axis {axis}");
        }
        if axis == 0 {
            let rows = [9., 10., 11., 0., 1., 2., 3., 4., 5., 6., 7., 8., 6., 7., 8., 3., 4., 5.];
            assert_eq!(want.unwrap(), rows);
        }
    }
}

#[test]
fn resize_and_cast_agree() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([1, 5, 7, 2], 0.0, 10.0, 17).unwrap();
        let mut out = ops::resize_bilinear(&x, 9, 4, false).unwrap().to_f32_vec().unwrap();
        out.extend(ops::resize_bilinear(&x, 10, 14, true).unwrap().to_f32_vec().unwrap());
        out.extend(ops::cast(&x, DType::I32).unwrap().to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-4);
}

#[test]
fn gradients_agree_across_backends() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([4, 4], -1.0, 1.0, 18).unwrap();
        let w = e.rand_uniform([4, 4], -1.0, 1.0, 19).unwrap();
        let grads = e
            .grads(&[&x, &w], || {
                let y = ops::matmul(&x, &w, false, false)?;
                ops::sum(&ops::sigmoid(&y)?, None, false)
            })
            .unwrap();
        let mut out = grads[0].to_f32_vec().unwrap();
        out.extend(grads[1].to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-4);
}

#[test]
fn conv_training_gradients_agree() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([1, 6, 6, 2], -1.0, 1.0, 20).unwrap();
        let w = e.rand_uniform([3, 3, 2, 4], -0.5, 0.5, 21).unwrap();
        let grads = e
            .grads(&[&x, &w], || {
                let y = ops::conv2d(&x, &w, (1, 1), Padding::Same, (1, 1))?;
                ops::sum(&ops::mul(&y, &y)?, None, false)
            })
            .unwrap();
        let mut out = grads[0].to_f32_vec().unwrap();
        out.extend(grads[1].to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-2);
}

#[test]
fn migration_between_backends_preserves_data() {
    // A tensor created on one backend is transparently moved when used on
    // another (tfjs moveData semantics).
    let e = webml::new_engine();
    e.set_backend("cpu").unwrap();
    let a = e.tensor_1d(&[1.0, 2.0, 3.0]).unwrap();
    e.set_backend("webgl").unwrap();
    let b = e.tensor_1d(&[10.0, 20.0, 30.0]).unwrap();
    let c = ops::add(&a, &b).unwrap();
    assert_eq!(c.to_f32_vec().unwrap(), vec![11.0, 22.0, 33.0]);
    e.set_backend("native").unwrap();
    let d: Tensor = ops::mul(&c, &c).unwrap();
    assert_eq!(d.to_f32_vec().unwrap(), vec![121.0, 484.0, 1089.0]);
}

#[test]
fn depthwise_training_gradients_agree() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([1, 6, 6, 3], -1.0, 1.0, 22).unwrap();
        let w = e.rand_uniform([3, 3, 3, 2], -0.5, 0.5, 23).unwrap();
        let grads = e
            .grads(&[&x, &w], || {
                let y = ops::depthwise_conv2d(&x, &w, (1, 1), Padding::Same, (1, 1))?;
                ops::sum(&ops::mul(&y, &y)?, None, false)
            })
            .unwrap();
        let mut out = grads[0].to_f32_vec().unwrap();
        out.extend(grads[1].to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-2);
}

#[test]
fn pool_gradients_agree() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([1, 8, 8, 2], -1.0, 1.0, 24).unwrap();
        let g_max = e
            .grads(&[&x], || {
                let y = ops::max_pool(&x, (2, 2), (2, 2), Padding::Valid)?;
                ops::sum(&ops::mul(&y, &y)?, None, false)
            })
            .unwrap();
        let g_avg = e
            .grads(&[&x], || {
                let y = ops::avg_pool(&x, (3, 3), (2, 2), Padding::Same)?;
                ops::sum(&y, None, false)
            })
            .unwrap();
        let mut out = g_max[0].to_f32_vec().unwrap();
        out.extend(g_avg[0].to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-4);
}

#[test]
fn batch_norm_and_softmax_training_agree() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([4, 6], -2.0, 2.0, 25).unwrap();
        let gamma = e.rand_uniform([6], 0.5, 1.5, 26).unwrap();
        let labels = e.one_hot(&e.tensor((0..4).collect::<Vec<i32>>(), [4]).unwrap(), 6).unwrap();
        let grads = e
            .grads(&[&x, &gamma], || {
                let (m, v) = ops::moments(&x, Some(&[0]), false)?;
                let normed = ops::batch_norm(&x, &m, &v, None, Some(&gamma), 1e-3)?;
                ops::mean(&ops::softmax_cross_entropy(&labels, &normed)?, None, false)
            })
            .unwrap();
        let mut out = grads[0].to_f32_vec().unwrap();
        out.extend(grads[1].to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-3);
}

#[test]
fn new_ops_agree_across_backends() {
    let results = on_each_backend(|e| {
        let x = e.rand_uniform([5, 7], -2.0, 2.0, 27).unwrap();
        let mut out = ops::erf(&x).unwrap().to_f32_vec().unwrap();
        out.extend(ops::gelu(&x).unwrap().to_f32_vec().unwrap());
        out.extend(ops::cumsum(&x, 1).unwrap().to_f32_vec().unwrap());
        let alpha = e.scalar(0.2).unwrap();
        out.extend(ops::prelu(&x, &alpha).unwrap().to_f32_vec().unwrap());
        out
    });
    assert_all_agree(&results, 1e-4);
}
