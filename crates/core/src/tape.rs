//! The gradient tape for eager automatic differentiation (paper Sec 3.5).
//!
//! TensorFlow.js uses eager differentiation: while a gradient scope is
//! active, every kernel the engine runs appends a [`TapeNode`] recording its
//! inputs, outputs and what differentiates it — the [`KernelCall`] itself,
//! whose rule backprop looks up by the call (TF.js registers a kernel and its
//! gradient under one name), the alias marker of a free view, or the user's
//! [`GradFn`] of a `customGrad`. Recording the call costs nothing while no
//! tape records: the owned copy is made only then. Backpropagation walks the
//! tape in reverse, restricted to nodes on a path from the requested inputs
//! `xs` to the output `y`.

use crate::backend::KernelCall;
use crate::error::Result;
use crate::tensor::Tensor;
use std::collections::HashSet;
use std::sync::Arc;

/// A user-supplied gradient (`tf.customGrad`, [`crate::Engine::run_custom`]):
/// given the gradients flowing into each output (`dys`), the saved input
/// tensors, the saved output tensors and a per-input `wanted` mask, produce
/// one slot per input.
///
/// `wanted[i]` says whether anyone will read input `i`'s gradient: backprop
/// sets it exactly for the inputs that depend on a requested `x` (see
/// [`Tape::filter_nodes`]). A slot is `None` for a non-differentiable input
/// (an integer index tensor, a mask) and may be `None` for an unwanted one —
/// a function whose gradients cost a kernel skips the unwanted ones, a cheap
/// one may ignore the mask. A wanted slot holds the same value, to the bit,
/// whatever the rest of the mask says. Every kernel's own rule keeps the same
/// contract.
pub type GradFn = Arc<
    dyn Fn(&[Tensor], &[Tensor], &[Tensor], &[bool]) -> Result<Vec<Option<Tensor>>> + Send + Sync,
>;

/// What backprop differentiates a node by.
#[derive(Clone)]
pub(crate) enum Grad {
    /// A kernel call: its rule ([`crate::grads`]).
    Call(KernelCall<'static>),
    /// A view sharing the input's data (`reshape`, `identity`): the gradient
    /// is `dy` under the input's shape.
    Alias,
    /// A user-supplied gradient.
    Custom(GradFn),
}

/// One recorded kernel invocation.
#[derive(Clone)]
pub(crate) struct TapeNode {
    /// Kernel name, for error messages.
    pub kernel: &'static str,
    /// Tensor ids of the inputs, in call order.
    pub input_ids: Vec<usize>,
    /// Tensor ids of the outputs.
    pub output_ids: Vec<usize>,
    /// Saved input handles (kept alive for the backward pass).
    pub inputs: Vec<Tensor>,
    /// Saved output handles.
    pub outputs: Vec<Tensor>,
    /// What differentiates the node.
    pub grad: Grad,
}

/// An append-only record of kernel invocations inside a gradient scope.
#[derive(Default)]
pub(crate) struct Tape {
    /// Recorded nodes, in execution order.
    pub nodes: Vec<TapeNode>,
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Tape {
        Tape { nodes: Vec::new() }
    }

    /// Append a node.
    pub fn record(&mut self, node: TapeNode) {
        self.nodes.push(node);
    }

    /// Indices of nodes that lie on a path from any of `x_ids` to any of
    /// `y_ids` — the eager analogue of TensorFlow's pruned gradient graph —
    /// and the ids of every tensor that depends on an x (the xs included).
    ///
    /// A node qualifies if (a) at least one input is reachable *from* an x
    /// (forward pass over the tape) and (b) at least one output *reaches* a y
    /// (backward pass). Nodes off this path are skipped during backprop, and
    /// on a path node only the inputs in the returned set need a gradient:
    /// any other input's gradient could never flow on to an x.
    pub fn filter_nodes(&self, x_ids: &[usize], y_ids: &[usize]) -> (Vec<usize>, HashSet<usize>) {
        // Forward reachability from xs.
        let mut from_x: HashSet<usize> = x_ids.iter().copied().collect();
        let mut fwd = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if node.input_ids.iter().any(|id| from_x.contains(id)) {
                fwd[i] = true;
                for &out in &node.output_ids {
                    from_x.insert(out);
                }
            }
        }
        // Backward reachability to ys.
        let mut to_y: HashSet<usize> = y_ids.iter().copied().collect();
        let mut bwd = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate().rev() {
            if node.output_ids.iter().any(|id| to_y.contains(id)) {
                bwd[i] = true;
                for &inp in &node.input_ids {
                    to_y.insert(inp);
                }
            }
        }
        ((0..self.nodes.len()).filter(|&i| fwd[i] && bwd[i]).collect(), from_x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_node(kernel: &'static str, inputs: Vec<usize>, outputs: Vec<usize>) -> TapeNode {
        TapeNode {
            kernel,
            input_ids: inputs,
            output_ids: outputs,
            inputs: Vec::new(),
            outputs: Vec::new(),
            grad: Grad::Alias,
        }
    }

    #[test]
    fn filter_keeps_only_path_nodes() {
        let mut tape = Tape::new();
        tape.record(dummy_node("a", vec![1], vec![2])); // on path
        tape.record(dummy_node("b", vec![9], vec![10])); // unrelated
        tape.record(dummy_node("c", vec![2], vec![3])); // on path
        tape.record(dummy_node("d", vec![3], vec![4])); // past y? output 4 != y
        let (kept, from_x) = tape.filter_nodes(&[1], &[3]);
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(from_x, HashSet::from([1, 2, 3, 4]));
    }

    #[test]
    fn filter_handles_fan_in() {
        let mut tape = Tape::new();
        tape.record(dummy_node("m1", vec![1, 2], vec![3]));
        tape.record(dummy_node("m2", vec![3, 4], vec![5]));
        // x = 4 only: node m1 is not reachable from x, m2 is.
        let (kept, from_x) = tape.filter_nodes(&[4], &[5]);
        assert_eq!(kept, vec![1]);
        // m2's other input does not depend on x: its gradient is not wanted.
        assert_eq!(from_x, HashSet::from([4, 5]));
    }

    #[test]
    fn filter_empty_when_no_path() {
        let mut tape = Tape::new();
        tape.record(dummy_node("a", vec![1], vec![2]));
        assert!(tape.filter_nodes(&[5], &[2]).0.is_empty());
        assert!(tape.filter_nodes(&[1], &[7]).0.is_empty());
    }
}
