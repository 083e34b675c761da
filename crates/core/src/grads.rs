//! The user-facing gradient API (paper Sec 3.5): eager differentiation in
//! the style of `tf.grad` / `tf.grads` / `tf.valueAndGrads`.
//!
//! While the supplied function runs, every kernel is recorded on a tape;
//! backpropagation then walks the tape in reverse over the nodes that lie on
//! a path from the requested inputs to the output. Because differentiation
//! is eager, native Rust `if`/`while` control flow works inside the closure
//! — no special control-flow ops are needed.

use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::ops;
use crate::tensor::Tensor;
use std::collections::HashMap;

impl Engine {
    /// Compute `f()` and the gradients of its scalar-ish output with respect
    /// to each tensor in `xs`.
    ///
    /// Inputs in `xs` that do not influence the output receive a zero
    /// gradient (TensorFlow.js throws in this case; returning zeros composes
    /// better with optimizers over partially-frozen variable sets).
    ///
    /// All intermediate tensors allocated by `f` and by backpropagation are
    /// disposed before returning; only the value and gradients survive.
    ///
    /// # Errors
    /// Propagates errors from `f` and from gradient functions, and fails if
    /// an op on the path has no registered gradient.
    pub fn value_and_grads(
        &self,
        xs: &[&Tensor],
        f: impl FnOnce() -> Result<Tensor>,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        self.start_scope("grads");
        let result = self.value_and_grads_inner(xs, f);
        match &result {
            Ok((y, gs)) => {
                let mut keep: Vec<usize> = gs.iter().map(|g| g.id()).collect();
                keep.push(y.id());
                self.end_scope(&keep);
            }
            Err(_) => self.end_scope(&[]),
        }
        result
    }

    fn value_and_grads_inner(
        &self,
        xs: &[&Tensor],
        f: impl FnOnce() -> Result<Tensor>,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        self.push_tape();
        let y = match f() {
            Ok(y) => y,
            Err(e) => {
                drop(self.pop_tape());
                return Err(e);
            }
        };
        let tape = self.pop_tape();

        let x_ids: Vec<usize> = xs.iter().map(|t| t.id()).collect();
        let (path, from_x) = tape.filter_nodes(&x_ids, &[y.id()]);

        // Seed dL/dy = 1.
        let mut grad_map: HashMap<usize, Tensor> = HashMap::new();
        grad_map.insert(y.id(), ops::ones_like(&y)?);

        for &i in path.iter().rev() {
            let node = &tape.nodes[i];
            if !node.outputs.iter().any(|out| grad_map.contains_key(&out.id())) {
                continue;
            }
            // Assemble output gradients (zeros where nothing flowed).
            let mut dys = Vec::with_capacity(node.outputs.len());
            for out in &node.outputs {
                match grad_map.get(&out.id()) {
                    Some(g) => dys.push(g.clone()),
                    None => dys.push(ops::zeros_like(out)?),
                }
            }
            // Only an input that depends on an x can pass its gradient on.
            let wanted: Vec<bool> = node.input_ids.iter().map(|id| from_x.contains(id)).collect();
            let input_grads = (node.grad_fn)(&dys, &node.inputs, &node.outputs, &wanted)
                .map_err(|e| match e {
                    Error::GradientNotDefined { .. } => Error::GradientNotDefined { op: node.kernel },
                    other => other,
                })?;
            if input_grads.len() != node.inputs.len() {
                return Err(Error::invalid(
                    "grads",
                    format!(
                        "gradient of {} returned {} grads for {} inputs",
                        node.kernel,
                        input_grads.len(),
                        node.inputs.len()
                    ),
                ));
            }
            for ((input, g), &read) in node.inputs.iter().zip(input_grads).zip(&wanted) {
                // A function that ignored the mask may still fill the slot.
                if let Some(g) = g.filter(|_| read) {
                    match grad_map.remove(&input.id()) {
                        Some(existing) => {
                            grad_map.insert(input.id(), ops::add(&existing, &g)?);
                        }
                        None => {
                            grad_map.insert(input.id(), g);
                        }
                    }
                }
            }
        }

        let mut grads = Vec::with_capacity(xs.len());
        for x in xs {
            match grad_map.get(&x.id()) {
                Some(g) => grads.push(g.clone()),
                None => grads.push(ops::zeros_like(x)?),
            }
        }
        Ok((y, grads))
    }

    /// Gradients only; the output value is disposed.
    ///
    /// # Errors
    /// See [`Engine::value_and_grads`].
    pub fn grads(&self, xs: &[&Tensor], f: impl FnOnce() -> Result<Tensor>) -> Result<Vec<Tensor>> {
        let (y, gs) = self.value_and_grads(xs, f)?;
        y.dispose();
        Ok(gs)
    }

    /// Single-input convenience: `d f(x) / d x`.
    ///
    /// # Errors
    /// See [`Engine::value_and_grads`].
    pub fn grad(&self, x: &Tensor, f: impl FnOnce() -> Result<Tensor>) -> Result<Tensor> {
        Ok(self.grads(&[x], f)?.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testutil::{assert_close, test_engine};
    use crate::ops::{self};

    #[test]
    fn grad_of_square_is_2x() {
        let e = test_engine();
        let x = e.tensor_1d(&[3.0]).unwrap();
        let g = e.grad(&x, || ops::sum(&ops::square(&x)?, None, false)).unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[6.0], 1e-6);
    }

    #[test]
    fn grad_through_chain() {
        // d/dx sum(exp(2x)) at x = 0 is 2.
        let e = test_engine();
        let x = e.tensor_1d(&[0.0]).unwrap();
        let g = e
            .grad(&x, || {
                let two = e.scalar(2.0)?;
                ops::sum(&ops::exp(&ops::mul(&x, &two)?)?, None, false)
            })
            .unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[2.0], 1e-6);
    }

    #[test]
    fn grads_multiple_inputs() {
        // f = sum(a * b): df/da = b, df/db = a.
        let e = test_engine();
        let a = e.tensor_1d(&[2.0, 3.0]).unwrap();
        let b = e.tensor_1d(&[10.0, 20.0]).unwrap();
        let gs = e.grads(&[&a, &b], || ops::sum(&ops::mul(&a, &b)?, None, false)).unwrap();
        assert_close(&gs[0].to_f32_vec().unwrap(), &[10.0, 20.0], 1e-6);
        assert_close(&gs[1].to_f32_vec().unwrap(), &[2.0, 3.0], 1e-6);
    }

    #[test]
    fn fan_out_accumulates() {
        // f = sum(x * x + x): df/dx = 2x + 1.
        let e = test_engine();
        let x = e.tensor_1d(&[4.0]).unwrap();
        let g = e
            .grad(&x, || ops::sum(&ops::add(&ops::mul(&x, &x)?, &x)?, None, false))
            .unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[9.0], 1e-6);
    }

    #[test]
    fn unconnected_input_gets_zeros() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0]).unwrap();
        let unused = e.tensor_1d(&[5.0, 6.0]).unwrap();
        let gs = e.grads(&[&x, &unused], || ops::sum(&ops::square(&x)?, None, false)).unwrap();
        assert_close(&gs[1].to_f32_vec().unwrap(), &[0.0, 0.0], 1e-9);
    }

    #[test]
    fn native_control_flow_works() {
        // Eager differentiation supports plain Rust `if` (paper Sec 3.5).
        let e = test_engine();
        let x = e.tensor_1d(&[2.0]).unwrap();
        let f = |x: &crate::tensor::Tensor| -> crate::error::Result<crate::tensor::Tensor> {
            let v = x.to_scalar()?;
            if v > 0.0 {
                ops::sum(&ops::mul(x, x)?, None, false)
            } else {
                ops::sum(x, None, false)
            }
        };
        let g = e.grad(&x, || f(&x)).unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[4.0], 1e-6);
    }

    #[test]
    fn intermediates_are_disposed_after_grads() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let before = e.num_tensors();
        let g = e
            .grad(&x, || {
                let a = ops::exp(&x)?;
                let b = ops::mul(&a, &x)?;
                ops::sum(&b, None, false)
            })
            .unwrap();
        // Only the gradient survives.
        assert_eq!(e.num_tensors(), before + 1);
        g.dispose();
        assert_eq!(e.num_tensors(), before);
    }

    #[test]
    fn matmul_grad_matches_finite_difference() {
        let e = test_engine();
        let a = e.tensor_2d(&[0.5, -0.3, 0.8, 0.1], 2, 2).unwrap();
        let b = e.tensor_2d(&[1.0, 2.0, -1.0, 0.5], 2, 2).unwrap();
        let gs = e
            .grads(&[&a, &b], || ops::sum(&ops::matmul(&a, &b, false, false)?, None, false))
            .unwrap();
        let ga = gs[0].to_f32_vec().unwrap();
        // Finite difference on a[0].
        let f = |av: &[f32]| -> f32 {
            let at = e.tensor_2d(av, 2, 2).unwrap();
            let y = ops::sum(&ops::matmul(&at, &b, false, false).unwrap(), None, false).unwrap();
            let v = y.to_scalar().unwrap();
            at.dispose();
            y.dispose();
            v
        };
        let base = [0.5, -0.3, 0.8, 0.1];
        for i in 0..4 {
            let mut p = base;
            p[i] += 1e-3;
            let mut m = base;
            m[i] -= 1e-3;
            let fd = (f(&p) - f(&m)) / 2e-3;
            assert!((fd - ga[i]).abs() < 1e-2, "i={i} fd={fd} got={}", ga[i]);
        }
    }

    #[test]
    fn tidy_inside_grad_keeps_needed_tensors() {
        // An inner tidy must not dispose tensors needed by backprop.
        let e = test_engine();
        let x = e.tensor_1d(&[2.0]).unwrap();
        let g = e
            .grad(&x, || {
                e.tidy(|| -> crate::error::Result<crate::tensor::Tensor> {
                    let a = ops::exp(&x)?;
                    ops::sum(&ops::mul(&a, &x)?, None, false)
                })
            })
            .unwrap();
        // d/dx (x e^x) = e^x (1 + x) = e^2 * 3.
        assert_close(&g.to_f32_vec().unwrap(), &[(2.0f32).exp() * 3.0], 1e-4);
    }
}

#[cfg(test)]
mod custom_grad_tests {
    use crate::ops::testutil::{assert_close, test_engine};
    use crate::ops;
    use crate::tape::GradFn;
    use std::sync::Arc;

    #[test]
    fn run_custom_overrides_the_composed_gradient() {
        // f(x) = x^2 computed normally, but with a custom gradient of 7
        // (not 2x): backprop must use the override.
        let e = test_engine();
        let x = e.tensor_1d(&[3.0]).unwrap();
        let grad_fn: GradFn = Arc::new(|dys, _ins, _outs, _wanted| {
            let seven = dys[0].engine().scalar(7.0)?;
            Ok(vec![Some(ops::mul(&dys[0], &seven)?)])
        });
        let g = e
            .grad(&x, || {
                let ys = e.run_custom(
                    "SquareCustom",
                    &[&x],
                    || Ok(vec![ops::square(&x)?]),
                    grad_fn.clone(),
                )?;
                ops::sum(&ys[0], None, false)
            })
            .unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[7.0], 1e-6);
    }

    #[test]
    fn run_custom_forward_value_is_normal() {
        let e = test_engine();
        let x = e.tensor_1d(&[2.0, -3.0]).unwrap();
        let grad_fn: GradFn = Arc::new(|dys, _ins, _outs, _wanted| Ok(vec![Some(dys[0].clone())]));
        let ys = e
            .run_custom("Id", &[&x], || Ok(vec![ops::square(&x)?]), grad_fn)
            .unwrap();
        assert_eq!(ys[0].to_f32_vec().unwrap(), vec![4.0, 9.0]);
    }

    #[test]
    fn run_custom_inner_ops_are_not_taped() {
        // A custom op whose inner computation would normally add many tape
        // nodes contributes exactly one gradient path.
        let e = test_engine();
        let x = e.tensor_1d(&[1.5]).unwrap();
        // Custom stable "softplus" with the analytic gradient sigmoid(x).
        let grad_fn: GradFn = Arc::new(|dys, ins, _outs, _wanted| {
            Ok(vec![Some(ops::mul(&dys[0], &ops::sigmoid(&ins[0])?)?)])
        });
        let g = e
            .grad(&x, || {
                let ys = e.run_custom(
                    "StableSoftplus",
                    &[&x],
                    || {
                        // Deliberately convoluted forward; gradient must
                        // still be the single custom one.
                        let a = ops::exp(&x)?;
                        let b = ops::log1p(&a)?;
                        Ok(vec![ops::identity(&b)?])
                    },
                    grad_fn.clone(),
                )?;
                ops::sum(&ys[0], None, false)
            })
            .unwrap();
        let expect = 1.0 / (1.0 + (-1.5f32).exp());
        assert_close(&g.to_f32_vec().unwrap(), &[expect], 1e-5);
    }
}

/// Backprop hands every gradient function the mask of inputs whose gradient
/// someone reads, and the functions that would run a kernel for an unread
/// one skip it; a gradient that is read never changes by a bit.
#[cfg(test)]
mod wanted_mask_tests {
    use crate::conv_util::Padding;
    use crate::engine::Engine;
    use crate::error::Result;
    use crate::ops::testutil::test_engine;
    use crate::ops;
    use crate::tape::GradFn;
    use crate::tensor::Tensor;
    use std::sync::{Arc, Mutex};

    fn wave(e: &Engine, dims: &[usize], step: f32) -> Tensor {
        let vals: Vec<f32> = (0..dims.iter().product()).map(|i| (i as f32 * step).sin()).collect();
        e.tensor(vals, dims.to_vec()).unwrap()
    }

    /// Bits of each gradient and the names of the kernels the call ran.
    fn profiled(
        e: &Engine,
        xs: &[&Tensor],
        f: &dyn Fn() -> Result<Tensor>,
    ) -> (Vec<Vec<u32>>, Vec<&'static str>) {
        let (grads, profile) = e.profile(|| e.grads(xs, f).unwrap());
        let bits = grads
            .iter()
            .map(|g| g.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect())
            .collect();
        (bits, profile.kernels.iter().map(|k| k.name).collect())
    }

    fn count(kernels: &[&str], name: &str) -> usize {
        kernels.iter().filter(|&&k| k == name).count()
    }

    /// Differentiate `f(a, b)` w.r.t. both, `a` only and `b` only: the
    /// single-input gradients equal the joint ones on bits, `a_kernel` runs
    /// only when `a`'s gradient is asked for and `b_kernel` only for `b`'s.
    fn each_side_alone(
        e: &Engine,
        a: &Tensor,
        b: &Tensor,
        f: &dyn Fn() -> Result<Tensor>,
        a_kernel: &str,
        b_kernel: &str,
    ) {
        let (both, k_both) = profiled(e, &[a, b], f);
        let (only_a, k_a) = profiled(e, &[a], f);
        let (only_b, k_b) = profiled(e, &[b], f);
        assert_eq!(only_a[0], both[0]);
        assert_eq!(only_b[0], both[1]);
        assert_eq!((count(&k_both, a_kernel), count(&k_both, b_kernel)), (1, 1), "{k_both:?}");
        assert_eq!((count(&k_a, a_kernel), count(&k_a, b_kernel)), (1, 0), "{k_a:?}");
        assert_eq!((count(&k_b, a_kernel), count(&k_b, b_kernel)), (0, 1), "{k_b:?}");
    }

    #[test]
    fn conv2d_runs_only_the_backprop_kernel_asked_for() {
        let e = test_engine();
        let x = wave(&e, &[2, 6, 6, 3], 0.17);
        let w = wave(&e, &[3, 3, 3, 4], 0.37);
        let f = || {
            let y = ops::conv2d(&x, &w, (2, 2), Padding::Same, (1, 1))?;
            ops::sum(&ops::square(&y)?, None, false)
        };
        each_side_alone(&e, &x, &w, &f, "Conv2DBackpropInput", "Conv2DBackpropFilter");
    }

    #[test]
    fn depthwise_conv2d_runs_only_the_backprop_kernel_asked_for() {
        let e = test_engine();
        let x = wave(&e, &[2, 5, 5, 3], 0.19);
        let w = wave(&e, &[3, 3, 3, 2], 0.41);
        let f = || {
            let y = ops::depthwise_conv2d(&x, &w, (1, 1), Padding::Same, (1, 1))?;
            ops::sum(&ops::square(&y)?, None, false)
        };
        each_side_alone(
            &e,
            &x,
            &w,
            &f,
            "DepthwiseConv2DBackpropInput",
            "DepthwiseConv2DBackpropFilter",
        );
    }

    #[test]
    fn matmul_runs_one_product_per_gradient_asked_for() {
        let e = test_engine();
        for (ta, tb) in [(false, false), (true, true)] {
            // Logically [4, 5] x [5, 3], stored transposed or not.
            let a = wave(&e, if ta { &[5, 4] } else { &[4, 5] }, 0.13);
            let b = wave(&e, if tb { &[3, 5] } else { &[5, 3] }, 0.29);
            let f = || ops::sum(&ops::square(&ops::matmul(&a, &b, ta, tb)?)?, None, false);
            let (both, k_both) = profiled(&e, &[&a, &b], &f);
            let (only_a, k_a) = profiled(&e, &[&a], &f);
            let (only_b, k_b) = profiled(&e, &[&b], &f);
            assert_eq!((&only_a[0], &only_b[0]), (&both[0], &both[1]));
            // Forward plus one product per gradient.
            assert_eq!(count(&k_both, "MatMul"), 3);
            assert_eq!((count(&k_a, "MatMul"), count(&k_b, "MatMul")), (2, 2));
        }
    }

    #[test]
    fn broadcasting_binary_ops_drop_the_unread_side_and_its_sum() {
        let e = test_engine();
        let x = wave(&e, &[4, 3], 0.23);
        let bias = wave(&e, &[3], 0.31);
        // The forward `Sum` is one; `bias`'s gradient is summed back over
        // the rows it was broadcast along, `x`'s is not.
        let add = || ops::sum(&ops::add(&x, &bias)?, None, false);
        let (both, k_both) = profiled(&e, &[&x, &bias], &add);
        let (only_x, k_x) = profiled(&e, &[&x], &add);
        let (only_bias, k_bias) = profiled(&e, &[&bias], &add);
        assert_eq!((&only_x[0], &only_bias[0]), (&both[0], &both[1]));
        assert_eq!((count(&k_both, "Sum"), count(&k_x, "Sum"), count(&k_bias, "Sum")), (2, 1, 2));

        let mul = || ops::sum(&ops::mul(&x, &bias)?, None, false);
        let (both, k_both) = profiled(&e, &[&x, &bias], &mul);
        let (only_x, k_x) = profiled(&e, &[&x], &mul);
        let (only_bias, k_bias) = profiled(&e, &[&bias], &mul);
        assert_eq!((&only_x[0], &only_bias[0]), (&both[0], &both[1]));
        // Forward `Mul`, the `Mul` that broadcasts the seed back through the
        // forward `Sum`, then `dy * bias` and `dy * x`.
        assert_eq!((count(&k_both, "Mul"), count(&k_x, "Mul"), count(&k_bias, "Mul")), (4, 3, 3));
        assert_eq!((count(&k_both, "Sum"), count(&k_x, "Sum"), count(&k_bias, "Sum")), (2, 1, 2));
    }

    #[test]
    fn concat_and_select_route_the_gradient_only_where_it_is_read() {
        let e = test_engine();
        let a = wave(&e, &[2, 3], 0.23);
        let b = wave(&e, &[2, 3], 0.31);
        let cat = || ops::sum(&ops::square(&ops::concat(&[&a, &b], 0)?)?, None, false);
        let (both, k_both) = profiled(&e, &[&a, &b], &cat);
        let (only_b, k_b) = profiled(&e, &[&b], &cat);
        assert_eq!(only_b[0], both[1]);
        assert_eq!((count(&k_both, "Slice"), count(&k_b, "Slice")), (2, 1));

        let cond = ops::greater(&a, &b).unwrap();
        let pick = || ops::sum(&ops::square(&ops::select(&cond, &a, &b)?)?, None, false);
        let (both, k_both) = profiled(&e, &[&a, &b], &pick);
        let (only_a, k_a) = profiled(&e, &[&a], &pick);
        assert_eq!(only_a[0], both[0]);
        assert_eq!((count(&k_both, "Select"), count(&k_a, "Select")), (3, 2));
    }

    #[test]
    fn fan_in_node_differentiates_only_its_reachable_side() {
        // y = (a · b) · c with only c asked for: the outer product needs its
        // right gradient alone, the inner one is off the path altogether.
        let e = test_engine();
        let a = wave(&e, &[3, 4], 0.11);
        let b = wave(&e, &[4, 2], 0.21);
        let c = wave(&e, &[2, 5], 0.33);
        let f = || {
            let ab = ops::matmul(&a, &b, false, false)?;
            ops::sum(&ops::matmul(&ab, &c, false, false)?, None, false)
        };
        let (all, k_all) = profiled(&e, &[&a, &b, &c], &f);
        let (only_c, k_c) = profiled(&e, &[&c], &f);
        let (only_a, k_a) = profiled(&e, &[&a], &f);
        assert_eq!(only_c[0], all[2]);
        assert_eq!(only_a[0], all[0]);
        // Two forward products; four, one and two backward ones.
        assert_eq!(count(&k_all, "MatMul"), 6);
        assert_eq!(count(&k_c, "MatMul"), 3);
        assert_eq!(count(&k_a, "MatMul"), 4);
    }

    #[test]
    fn an_input_used_twice_wants_both_slots() {
        let e = test_engine();
        let x = wave(&e, &[3, 3], 0.27);
        let other = wave(&e, &[3, 3], 0.43);
        let f = || ops::sum(&ops::add(&ops::matmul(&x, &x, false, false)?, &other)?, None, false);
        let (both, _) = profiled(&e, &[&x, &other], &f);
        let (only_x, k_x) = profiled(&e, &[&x], &f);
        assert_eq!(only_x[0], both[0]);
        // Forward, both backward products, and the `Add` that joins them.
        assert_eq!(count(&k_x, "MatMul"), 3);
        assert_eq!(count(&k_x, "Add"), 2);
    }

    #[test]
    fn run_custom_gets_the_mask_and_may_ignore_it() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let b = e.tensor_1d(&[3.0, 4.0]).unwrap();
        let seen: Arc<Mutex<Vec<Vec<bool>>>> = Arc::default();
        let log = seen.clone();
        // Fills both slots whatever the mask says.
        let grad_fn: GradFn = Arc::new(move |dys, ins, _outs, wanted| {
            log.lock().unwrap().push(wanted.to_vec());
            Ok(vec![Some(ops::mul(&dys[0], &ins[1])?), Some(ops::mul(&dys[0], &ins[0])?)])
        });
        let f = || {
            let ys = e.run_custom("MulCustom", &[&a, &b], || Ok(vec![ops::mul(&a, &b)?]), grad_fn.clone())?;
            ops::sum(&ys[0], None, false)
        };
        let (both, _) = profiled(&e, &[&a, &b], &f);
        let (only_b, _) = profiled(&e, &[&b], &f);
        assert_eq!(only_b[0], both[1]);
        assert_eq!(*seen.lock().unwrap(), vec![vec![true, true], vec![false, true]]);
    }
}
