//! The backend abstraction (paper Sec 3.4).
//!
//! A backend implements device-specific *kernels* plus data-management
//! methods (`register`, `read`, `read_sync`, `dispose_data`) that store the
//! buffer backing each tensor. Tensors are decoupled from their data: the
//! engine refcounts [`DataId`]s so `reshape`/`clone` are free shallow copies.

use crate::conv_util::Conv2dInfo;
use crate::dtype::{DType, TensorData};
use crate::error::{Error, Result};
use crate::quant::QuantParams;
use crate::shape::{broadcast_shapes, Shape};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Opaque identifier of a data container held by a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u64);

/// A borrowed view of a tensor passed to backend kernels: the data handle
/// plus the logical geometry the kernel should interpret it with.
#[derive(Debug, Clone, Copy)]
pub struct KTensor<'a> {
    /// Backend data container.
    pub data: DataId,
    /// Logical shape.
    pub shape: &'a Shape,
    /// Element type.
    pub dtype: DType,
    /// Affine dequantization params when `data` holds U8 weight codes
    /// (paper Sec 5.1): quantization is a property of the operand, so the
    /// fused kernels pick their dequant-free variant from this field. The
    /// op layer only lets params through that the factored accumulation can
    /// use (`ops::fused`'s single gate): per-tensor, or per-channel indexed
    /// by the kernel's output column / channel.
    pub quant: Option<&'a QuantParams>,
}

impl<'a> KTensor<'a> {
    /// A plain (unquantized) operand view.
    pub fn new(data: DataId, shape: &'a Shape, dtype: DType) -> KTensor<'a> {
        KTensor { data, shape, dtype, quant: None }
    }
}

/// Geometry of a batched matmul `[batch, m, k] × [b_batch, k, n]`, after
/// the transposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatMulGeom {
    /// Batch count of the left operand and the output.
    pub batch: usize,
    /// Output rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Batch count of the right operand; 1 broadcasts it across `batch`
    /// (quantized weights only).
    pub b_batch: usize,
    /// Whether the left operand is stored `[batch, k, m]`.
    pub transpose_a: bool,
    /// Whether the right operand is stored `[b_batch, n, k]`.
    pub transpose_b: bool,
}

impl MatMulGeom {
    /// The geometry of `a × b` for rank-3 operand shapes.
    pub fn of(a: &Shape, b: &Shape, transpose_a: bool, transpose_b: bool) -> MatMulGeom {
        let (m, k) = if transpose_a { (a.dim(2), a.dim(1)) } else { (a.dim(1), a.dim(2)) };
        let n = if transpose_b { b.dim(1) } else { b.dim(2) };
        MatMulGeom { batch: a.dim(0), m, k, n, b_batch: b.dim(0), transpose_a, transpose_b }
    }
}

/// Element-wise unary kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `|x|`
    Abs,
    /// `e^x`
    Exp,
    /// `e^x - 1`
    Expm1,
    /// `ln x`
    Log,
    /// `ln (1 + x)`
    Log1p,
    /// `sqrt x`
    Sqrt,
    /// `1 / sqrt x`
    Rsqrt,
    /// `x^2`
    Square,
    /// `max(x, 0)`
    Relu,
    /// `min(max(x, 0), 6)`
    Relu6,
    /// logistic sigmoid
    Sigmoid,
    /// hyperbolic tangent
    Tanh,
    /// exponential linear unit
    Elu,
    /// scaled exponential linear unit
    Selu,
    /// `ln(1 + e^x)`
    Softplus,
    /// sine
    Sin,
    /// cosine
    Cos,
    /// tangent
    Tan,
    /// arcsine
    Asin,
    /// arccosine
    Acos,
    /// arctangent
    Atan,
    /// floor
    Floor,
    /// ceiling
    Ceil,
    /// round half away from zero
    Round,
    /// sign (-1, 0, 1)
    Sign,
    /// `1 / x`
    Reciprocal,
    /// logical negation (for bool tensors)
    LogicalNot,
    /// 1.0 where NaN else 0.0
    IsNan,
    /// 1.0 where infinite else 0.0
    IsInf,
    /// 1.0 where finite else 0.0
    IsFinite,
    /// leaky ReLU with the given negative slope
    LeakyRelu(f32),
    /// clip into `[min, max]`
    ClipByValue(f32, f32),
    /// Heaviside step: 1 where x > 0, else `alpha`
    Step(f32),
    /// Gauss error function.
    Erf,
}

impl UnaryOp {
    /// The shared scalar semantics of each unary kernel. All backends route
    /// their per-element math through this function (directly or as the body
    /// of a data-parallel program) so results agree bit-for-bit.
    ///
    /// Inlined so that a backend can call it with a constant op inside its
    /// loop: the `match` folds away, the loop vectorises, and this stays the
    /// only definition of the math. `always`, because a hint is not enough
    /// here: the payload variants make `UnaryOp` a 12-byte aggregate that is
    /// passed by reference, the inliner's cost model does not see a constant
    /// through the reference and prices the whole `match`; a 50 176-element
    /// `Relu` then costs 56 µs (a call per element) instead of 5 µs.
    /// [`BinaryOp`] has no payloads and folds with the plain hint.
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Abs => x.abs(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Expm1 => x.exp_m1(),
            UnaryOp::Log => x.ln(),
            UnaryOp::Log1p => x.ln_1p(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Rsqrt => 1.0 / x.sqrt(),
            UnaryOp::Square => x * x,
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Relu6 => x.clamp(0.0, 6.0),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Elu => {
                if x >= 0.0 {
                    x
                } else {
                    x.exp_m1()
                }
            }
            UnaryOp::Selu => {
                const ALPHA: f32 = 1.673_263_2;
                const SCALE: f32 = 1.050_701;
                if x >= 0.0 {
                    SCALE * x
                } else {
                    SCALE * ALPHA * x.exp_m1()
                }
            }
            UnaryOp::Softplus => {
                // Numerically stable: max(x,0) + ln(1 + e^{-|x|}).
                x.max(0.0) + (-x.abs()).exp().ln_1p()
            }
            UnaryOp::Sin => x.sin(),
            UnaryOp::Cos => x.cos(),
            UnaryOp::Tan => x.tan(),
            UnaryOp::Asin => x.asin(),
            UnaryOp::Acos => x.acos(),
            UnaryOp::Atan => x.atan(),
            UnaryOp::Floor => x.floor(),
            UnaryOp::Ceil => x.ceil(),
            UnaryOp::Round => x.round(),
            UnaryOp::Sign => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Reciprocal => 1.0 / x,
            UnaryOp::LogicalNot => {
                if x == 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryOp::IsNan => x.is_nan() as u8 as f32,
            UnaryOp::IsInf => x.is_infinite() as u8 as f32,
            UnaryOp::IsFinite => x.is_finite() as u8 as f32,
            UnaryOp::LeakyRelu(alpha) => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            UnaryOp::ClipByValue(lo, hi) => x.clamp(lo, hi),
            UnaryOp::Step(alpha) => {
                if x > 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            UnaryOp::Erf => {
                // Abramowitz & Stegun 7.1.26 (|error| <= 1.5e-7).
                const A1: f32 = 0.254_829_6;
                const A2: f32 = -0.284_496_72;
                const A3: f32 = 1.421_413_8;
                const A4: f32 = -1.453_152_1;
                const A5: f32 = 1.061_405_4;
                const P: f32 = 0.327_591_1;
                let sign = if x < 0.0 { -1.0 } else { 1.0 };
                let x = x.abs();
                let t = 1.0 / (1.0 + P * x);
                let y = 1.0 - ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t * (-x * x).exp();
                sign * y
            }
        }
    }

    /// Output dtype of the kernel given the input dtype.
    pub fn out_dtype(self, input: DType) -> DType {
        match self {
            UnaryOp::LogicalNot | UnaryOp::IsNan | UnaryOp::IsInf | UnaryOp::IsFinite => DType::Bool,
            _ => input,
        }
    }

    /// Kernel name for profiling output.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "Neg",
            UnaryOp::Abs => "Abs",
            UnaryOp::Exp => "Exp",
            UnaryOp::Expm1 => "Expm1",
            UnaryOp::Log => "Log",
            UnaryOp::Log1p => "Log1p",
            UnaryOp::Sqrt => "Sqrt",
            UnaryOp::Rsqrt => "Rsqrt",
            UnaryOp::Square => "Square",
            UnaryOp::Relu => "Relu",
            UnaryOp::Relu6 => "Relu6",
            UnaryOp::Sigmoid => "Sigmoid",
            UnaryOp::Tanh => "Tanh",
            UnaryOp::Elu => "Elu",
            UnaryOp::Selu => "Selu",
            UnaryOp::Softplus => "Softplus",
            UnaryOp::Sin => "Sin",
            UnaryOp::Cos => "Cos",
            UnaryOp::Tan => "Tan",
            UnaryOp::Asin => "Asin",
            UnaryOp::Acos => "Acos",
            UnaryOp::Atan => "Atan",
            UnaryOp::Floor => "Floor",
            UnaryOp::Ceil => "Ceil",
            UnaryOp::Round => "Round",
            UnaryOp::Sign => "Sign",
            UnaryOp::Reciprocal => "Reciprocal",
            UnaryOp::LogicalNot => "LogicalNot",
            UnaryOp::IsNan => "IsNan",
            UnaryOp::IsInf => "IsInf",
            UnaryOp::IsFinite => "IsFinite",
            UnaryOp::LeakyRelu(_) => "LeakyRelu",
            UnaryOp::ClipByValue(_, _) => "ClipByValue",
            UnaryOp::Step(_) => "Step",
            UnaryOp::Erf => "Erf",
        }
    }
}

/// Element-wise binary kernels (with broadcasting resolved by the op layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `floor(a / b)`
    FloorDiv,
    /// `a ^ b`
    Pow,
    /// `max(a, b)`
    Maximum,
    /// `min(a, b)`
    Minimum,
    /// `a mod b` (Python semantics: sign follows divisor)
    Mod,
    /// `(a - b)^2`
    SquaredDifference,
    /// `atan2(a, b)`
    Atan2,
    /// `a == b` → bool
    Equal,
    /// `a != b` → bool
    NotEqual,
    /// `a > b` → bool
    Greater,
    /// `a >= b` → bool
    GreaterEqual,
    /// `a < b` → bool
    Less,
    /// `a <= b` → bool
    LessEqual,
    /// logical and → bool
    LogicalAnd,
    /// logical or → bool
    LogicalOr,
    /// logical xor → bool
    LogicalXor,
}

impl BinaryOp {
    /// Shared scalar semantics (see [`UnaryOp::apply`]).
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::FloorDiv => (a / b).floor(),
            BinaryOp::Pow => a.powf(b),
            BinaryOp::Maximum => a.max(b),
            BinaryOp::Minimum => a.min(b),
            BinaryOp::Mod => a - b * (a / b).floor(),
            BinaryOp::SquaredDifference => (a - b) * (a - b),
            BinaryOp::Atan2 => a.atan2(b),
            BinaryOp::Equal => (a == b) as u8 as f32,
            BinaryOp::NotEqual => (a != b) as u8 as f32,
            BinaryOp::Greater => (a > b) as u8 as f32,
            BinaryOp::GreaterEqual => (a >= b) as u8 as f32,
            BinaryOp::Less => (a < b) as u8 as f32,
            BinaryOp::LessEqual => (a <= b) as u8 as f32,
            BinaryOp::LogicalAnd => ((a != 0.0) && (b != 0.0)) as u8 as f32,
            BinaryOp::LogicalOr => ((a != 0.0) || (b != 0.0)) as u8 as f32,
            BinaryOp::LogicalXor => ((a != 0.0) ^ (b != 0.0)) as u8 as f32,
        }
    }

    /// Whether the kernel produces a boolean output.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Equal
                | BinaryOp::NotEqual
                | BinaryOp::Greater
                | BinaryOp::GreaterEqual
                | BinaryOp::Less
                | BinaryOp::LessEqual
                | BinaryOp::LogicalAnd
                | BinaryOp::LogicalOr
                | BinaryOp::LogicalXor
        )
    }

    /// Kernel name for profiling output.
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "Add",
            BinaryOp::Sub => "Sub",
            BinaryOp::Mul => "Mul",
            BinaryOp::Div => "Div",
            BinaryOp::FloorDiv => "FloorDiv",
            BinaryOp::Pow => "Pow",
            BinaryOp::Maximum => "Maximum",
            BinaryOp::Minimum => "Minimum",
            BinaryOp::Mod => "Mod",
            BinaryOp::SquaredDifference => "SquaredDifference",
            BinaryOp::Atan2 => "Atan2",
            BinaryOp::Equal => "Equal",
            BinaryOp::NotEqual => "NotEqual",
            BinaryOp::Greater => "Greater",
            BinaryOp::GreaterEqual => "GreaterEqual",
            BinaryOp::Less => "Less",
            BinaryOp::LessEqual => "LessEqual",
            BinaryOp::LogicalAnd => "LogicalAnd",
            BinaryOp::LogicalOr => "LogicalOr",
            BinaryOp::LogicalXor => "LogicalXor",
        }
    }
}

/// One step of a fused elementwise chain (see [`Backend::fused_elementwise`]).
///
/// The chain threads a single running value through each step: a `Unary`
/// step maps it, a `Binary` step combines it (as the left operand) with one
/// of the extra inputs. This is the kernel-level form of fusing e.g.
/// `relu(x * scale + shift)` into one device program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedStep {
    /// Apply a unary op to the running chain value.
    Unary(UnaryOp),
    /// Combine the running chain value (left operand) with `extras[i]`
    /// (right operand), where `i` is the payload index.
    Binary(BinaryOp, usize),
}

/// Reduction kernels. Output shape never keeps reduced dims — the op layer
/// reshapes afterwards (reshape is free) when `keep_dims` is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Product of elements.
    Prod,
    /// Maximum element.
    Max,
    /// Minimum element.
    Min,
    /// Logical any (for bool tensors).
    Any,
    /// Logical all (for bool tensors).
    All,
}

impl ReduceOp {
    /// Identity element of the reduction.
    pub fn init(self) -> f32 {
        match self {
            ReduceOp::Sum | ReduceOp::Mean | ReduceOp::Any => 0.0,
            ReduceOp::Prod | ReduceOp::All => 1.0,
            ReduceOp::Max => f32::NEG_INFINITY,
            ReduceOp::Min => f32::INFINITY,
        }
    }

    /// Combine an accumulator with the next element.
    pub fn combine(self, acc: f32, x: f32) -> f32 {
        match self {
            ReduceOp::Sum | ReduceOp::Mean => acc + x,
            ReduceOp::Prod => acc * x,
            ReduceOp::Max => acc.max(x),
            ReduceOp::Min => acc.min(x),
            ReduceOp::Any => ((acc != 0.0) || (x != 0.0)) as u8 as f32,
            ReduceOp::All => ((acc != 0.0) && (x != 0.0)) as u8 as f32,
        }
    }

    /// Finalize the accumulator given the reduced element count.
    pub fn finalize(self, acc: f32, count: usize) -> f32 {
        match self {
            ReduceOp::Mean => acc / count as f32,
            _ => acc,
        }
    }

    /// Output dtype of the reduction given the input dtype.
    pub fn out_dtype(self, input: DType) -> DType {
        match self {
            ReduceOp::Any | ReduceOp::All => DType::Bool,
            ReduceOp::Mean => {
                if input.is_float() {
                    input
                } else {
                    DType::F32
                }
            }
            ReduceOp::Sum | ReduceOp::Prod => {
                if input == DType::Bool {
                    DType::I32
                } else {
                    input
                }
            }
            ReduceOp::Max | ReduceOp::Min => input,
        }
    }

    /// Kernel name for profiling output.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "Sum",
            ReduceOp::Mean => "Mean",
            ReduceOp::Prod => "Prod",
            ReduceOp::Max => "Max",
            ReduceOp::Min => "Min",
            ReduceOp::Any => "Any",
            ReduceOp::All => "All",
        }
    }
}

/// Index-producing reductions over a single axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgReduceOp {
    /// Index of the maximum.
    ArgMax,
    /// Index of the minimum.
    ArgMin,
}

/// 2-D pooling kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolOp {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Memory usage snapshot of a backend (paper Sec 3.8, `tf.memory()`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendMemory {
    /// Number of live data containers.
    pub num_buffers: usize,
    /// Total bytes held by live containers.
    pub num_bytes: usize,
    /// Backend-specific extra gauges (e.g. textures in GPU, bytes paged).
    pub details: Vec<(String, f64)>,
}

/// Shared state of a [`DataFuture`] / [`DataPromise`] pair.
#[derive(Debug)]
struct FutureState {
    slot: Mutex<Option<Result<TensorData>>>,
    cond: Condvar,
}

/// The write half of a pending async read; completed by the device thread.
#[derive(Debug, Clone)]
pub struct DataPromise {
    state: Arc<FutureState>,
}

impl DataPromise {
    /// Resolve the paired future.
    pub fn complete(&self, data: Result<TensorData>) {
        let mut slot = self.state.slot.lock();
        *slot = Some(data);
        self.state.cond.notify_all();
    }
}

/// A promise-like handle to tensor data being produced asynchronously — the
/// analogue of the Promise returned by `tensor.data()` (paper Sec 3.6).
#[derive(Debug)]
pub struct DataFuture {
    state: Arc<FutureState>,
}

impl DataFuture {
    /// Create an unresolved future plus its completing promise.
    pub fn pending() -> (DataFuture, DataPromise) {
        let state = Arc::new(FutureState { slot: Mutex::new(None), cond: Condvar::new() });
        (DataFuture { state: state.clone() }, DataPromise { state })
    }

    /// Create an already-resolved future (synchronous backends).
    pub fn ready(data: Result<TensorData>) -> DataFuture {
        let state =
            Arc::new(FutureState { slot: Mutex::new(Some(data)), cond: Condvar::new() });
        DataFuture { state }
    }

    /// Non-blocking poll: `Some` once the data is available.
    pub fn poll(&self) -> Option<Result<TensorData>> {
        self.state.slot.lock().clone()
    }

    /// Whether the future has resolved.
    pub fn is_ready(&self) -> bool {
        self.state.slot.lock().is_some()
    }

    /// Block until the data is available.
    pub fn wait(&self) -> Result<TensorData> {
        let mut slot = self.state.slot.lock();
        while slot.is_none() {
            self.state.cond.wait(&mut slot);
        }
        slot.clone().expect("future resolved")
    }
}

/// A backend-neutral fence token (`gl.fenceSync`, paper Sec 4.1.1):
/// covers all device work submitted before it was issued. Obtained from
/// [`Backend::submit_fence`]; awaited with [`Backend::wait_fence`] or
/// polled with [`Backend::fence_passed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FenceToken(pub u64);

/// A device-specific kernel implementation set (paper Sec 3.3/3.4).
///
/// Implementations must be thread-safe: the engine may be shared across
/// threads, and the webgl backend's device thread reads textures concurrently.
pub trait Backend: Send + Sync {
    /// Store a host buffer, returning its container id.
    fn register(&self, data: TensorData, dtype: DType) -> DataId;

    /// Synchronously read a container back to the host (blocking flush on
    /// queued backends — the `dataSync()` path, Figure 2).
    ///
    /// # Errors
    /// Fails if the id is unknown or the device errored.
    fn read_sync(&self, id: DataId) -> Result<TensorData>;

    /// Asynchronously read a container (the `data()` path, Figure 3).
    fn read(&self, id: DataId) -> DataFuture;

    /// Release a container's storage.
    fn dispose_data(&self, id: DataId);

    /// Memory usage snapshot.
    fn memory(&self) -> BackendMemory;

    /// Bits of float precision (32 or 16); the engine derives its epsilon
    /// from it (paper Sec 4.1.3).
    fn float_precision(&self) -> u8 {
        32
    }

    /// Cumulative device-side kernel nanoseconds since backend creation,
    /// as measured by the device's own timer — the disjoint-timer-query
    /// counter on the webgl backend. `None` when the device exposes no
    /// timer (e.g. `EXT_disjoint_timer_query` absent), in which case
    /// profiles degrade gracefully to wall-clock only.
    ///
    /// This is the backend's only timer (paper Sec 3.8): `tf.time` and
    /// `tf.profile` are differences of two samples of it, so windows on
    /// different threads never disturb each other. Implementations may
    /// flush pending device work so the counter covers every kernel
    /// enqueued so far; callers should only sample it while timing.
    fn device_timer_ns(&self) -> Option<u64> {
        None
    }

    // --- async submission (paper Sec 4.1.1, Figs 2-3) ----------------------

    /// Insert a fence into the device command stream and return a token
    /// covering all work submitted so far (`gl.fenceSync`).
    ///
    /// Synchronous backends (cpu, native) return `None`: every kernel has
    /// already completed by the time it returned, so there is nothing to
    /// wait for — `None` means "all prior work is done". Queued backends
    /// override this to return a real token.
    fn submit_fence(&self) -> Option<FenceToken> {
        None
    }

    /// Poll whether `token`'s fence has passed (all work submitted before
    /// it has executed). Non-blocking.
    fn fence_passed(&self, _token: FenceToken) -> bool {
        true
    }

    /// Block until `token`'s fence passes (`gl.clientWaitSync`). Queued
    /// backends implement this as a condvar sleep on the device queue, not
    /// a spin.
    fn wait_fence(&self, _token: FenceToken) {}

    // --- kernels -----------------------------------------------------------

    /// Element-wise unary kernel.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn unary(&self, op: UnaryOp, a: &KTensor<'_>) -> Result<DataId>;

    /// Element-wise binary kernel with broadcasting. `out_shape` is the
    /// broadcast shape computed by the op layer.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn binary(
        &self,
        op: BinaryOp,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
        out_dtype: DType,
    ) -> Result<DataId>;

    /// Cast to another dtype.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn cast(&self, a: &KTensor<'_>, dtype: DType) -> Result<DataId>;

    /// Reduction over `axes` (sorted, unique). Output drops reduced dims.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn reduce(&self, op: ReduceOp, a: &KTensor<'_>, axes: &[usize]) -> Result<DataId>;

    /// Arg-reduction over a single axis; output dtype is I32.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn arg_reduce(&self, op: ArgReduceOp, a: &KTensor<'_>, axis: usize) -> Result<DataId>;

    // --- product kernels (paper Sec 3.9/4.1: draw-call overhead) -----------
    //
    // The epilogue is an argument of the kernel: an optional rank-1 bias
    // added per output channel / column, then an optional activation, in
    // the same pass. With an f32 weight and an empty epilogue the call *is*
    // the plain kernel and must run it, never a fallback: that is how the
    // `fused_*_fallback` compositions call back in. Anything else is fused,
    // and must stay bit-identical to the composition: finish the full
    // accumulation, then `acc + bias[channel]`, then `activation(acc)` —
    // every scalar routed through [`BinaryOp::apply`] / [`UnaryOp::apply`].
    // A fused program the backend cannot run (e.g. the driver rejects the
    // shader) falls back to the matching `fused_*_fallback` helper on the
    // SAME backend instead of surfacing the error.
    //
    // The weight operand (`b` / `filter`) may carry [`KTensor::quant`]: raw
    // U8 codes plus affine params (paper Sec 5.1). A quantized kernel must
    // run *dequant-free* — no f32 weight tensor, codes never tiled or copied
    // — via the factored accumulation `Σ aₖ(qₖs+m) = s·Σ aₖqₖ + m·Σ aₖ`,
    // scale/min applied in the epilogue before bias and activation. The
    // `fused_*_fallback` helpers cover a quantized operand too (dequantize
    // host-side, then this backend's f32 kernel).

    /// Batched matmul `[b, m, k] x [b, k, n]` with an optional rank-1 bias
    /// `[n]` added to every output row and an optional activation. A
    /// quantized `b` may be batch-1 `[1, k, n]` and is then broadcast across
    /// `a`'s batch (per-channel params index the output column).
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId>;

    /// 2-D convolution, NHWC x HWIO, with an optional rank-1 bias
    /// `[out_channels]` and an optional activation (per-channel params of a
    /// quantized filter index the output channel).
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId>;

    /// Gradient of conv2d w.r.t. its input.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId>;

    /// Gradient of conv2d w.r.t. its filter.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId>;

    /// Depthwise 2-D convolution, filter `[fh, fw, c, mul]`, with an
    /// optional rank-1 bias `[out_channels]` and an optional activation
    /// (per-channel params of a quantized filter run along filter axis 2,
    /// the input channel, or 3, the channel multiplier).
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId>;

    /// Gradient of depthwise conv2d w.r.t. its input.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn depthwise_conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId>;

    /// Gradient of depthwise conv2d w.r.t. its filter.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn depthwise_conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId>;

    /// 2-D max/avg pooling.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn pool2d(&self, op: PoolOp, x: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId>;

    /// Gradient of 2-D pooling.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn pool2d_backprop(
        &self,
        op: PoolOp,
        dy: &KTensor<'_>,
        x: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId>;

    /// Contiguous slice `x[begin .. begin+size]` per axis.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn slice(&self, x: &KTensor<'_>, begin: &[usize], size: &[usize]) -> Result<DataId>;

    /// Concatenate along `axis`. All inputs share rank and non-axis dims.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn concat(&self, xs: &[KTensor<'_>], axis: usize) -> Result<DataId>;

    /// Permute dimensions.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn transpose(&self, x: &KTensor<'_>, perm: &[usize]) -> Result<DataId>;

    /// Pad with a constant value; `paddings[i] = (before, after)`.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn pad(&self, x: &KTensor<'_>, paddings: &[(usize, usize)], value: f32) -> Result<DataId>;

    /// Gather slices along `axis` using integer `indices`.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn gather(&self, x: &KTensor<'_>, indices: &KTensor<'_>, axis: usize) -> Result<DataId>;

    /// Tile (repeat) each dimension `reps[i]` times.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn tile(&self, x: &KTensor<'_>, reps: &[usize]) -> Result<DataId>;

    /// Reverse along the given axes.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn reverse(&self, x: &KTensor<'_>, axes: &[usize]) -> Result<DataId>;

    /// Element-wise select: `cond ? a : b` (shapes already broadcast).
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn select(
        &self,
        cond: &KTensor<'_>,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
    ) -> Result<DataId>;

    /// One-hot encode integer `indices` into a new trailing dim of `depth`.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn one_hot(&self, indices: &KTensor<'_>, depth: usize, on: f32, off: f32) -> Result<DataId>;

    /// Bilinear image resize of an NHWC tensor.
    ///
    /// # Errors
    /// Backend-specific execution failure.
    fn resize_bilinear(
        &self,
        x: &KTensor<'_>,
        new_h: usize,
        new_w: usize,
        align_corners: bool,
    ) -> Result<DataId>;

    /// Execute a chain of elementwise steps over `x` as one kernel. Binary
    /// steps broadcast the extra input against the running chain shape; the
    /// final shape must equal `out_shape` (validated by the op layer).
    ///
    /// # Errors
    /// Backend-specific execution failure, or an empty `steps` list.
    fn fused_elementwise(
        &self,
        x: &KTensor<'_>,
        extras: &[KTensor<'_>],
        steps: &[FusedStep],
        out_shape: &Shape,
    ) -> Result<DataId> {
        fused_elementwise_fallback(self, x, extras, steps, out_shape)
    }
}

/// The one quantized fallback: materialize `t`'s f32 values in a temporary
/// container on the same backend (host-side reference dequantization), hand
/// the f32 view to `run`, and dispose the temporary. Used when a backend
/// has no dequant-free kernel or its quantized program is rejected — never
/// on the fast path, which reads the codes in place.
fn with_dequantized<B: Backend + ?Sized>(
    backend: &B,
    t: &KTensor<'_>,
    params: &QuantParams,
    run: impl FnOnce(&KTensor<'_>) -> Result<DataId>,
) -> Result<DataId> {
    let host = backend.read_sync(t.data)?;
    let values = params.dequantize(&host.to_u8_codes(), t.shape.dims())?;
    let fid = backend.register(TensorData::F32(values), DType::F32);
    let out = run(&KTensor::new(fid, t.shape, DType::F32));
    backend.dispose_data(fid);
    out
}

/// Apply the shared bias+activation epilogue with unfused kernels, disposing
/// the intermediate containers. Takes ownership of `id` (disposes it if a
/// later stage replaces it, even on error).
fn epilogue_fallback<B: Backend + ?Sized>(
    backend: &B,
    mut id: DataId,
    out_shape: &Shape,
    bias: Option<&KTensor<'_>>,
    activation: Option<UnaryOp>,
) -> Result<DataId> {
    if let Some(bias) = bias {
        let cur = KTensor::new(id, out_shape, DType::F32);
        let next = backend.binary(BinaryOp::Add, &cur, bias, out_shape, DType::F32);
        backend.dispose_data(id);
        id = next?;
    }
    if let Some(act) = activation {
        let cur = KTensor::new(id, out_shape, DType::F32);
        let next = backend.unary(act, &cur);
        backend.dispose_data(id);
        id = next?;
    }
    Ok(id)
}

/// Whether a product kernel call is the plain kernel: an f32 weight and an
/// empty epilogue (see the kernel contract on [`Backend::matmul`]).
pub fn is_plain(
    weight: &KTensor<'_>,
    bias: Option<&KTensor<'_>>,
    activation: Option<UnaryOp>,
) -> bool {
    weight.quant.is_none() && bias.is_none() && activation.is_none()
}

/// Reference composition for a fused [`Backend::matmul`]: the plain matmul,
/// then bias add, then activation. Also the fallback a fused kernel uses
/// when its program fails to compile on a faulted device. A quantized `b`
/// is dequantized first and re-enters the backend's f32 kernel.
///
/// # Errors
/// Propagates the first failing kernel or read.
pub fn fused_matmul_fallback<B: Backend + ?Sized>(
    backend: &B,
    a: &KTensor<'_>,
    b: &KTensor<'_>,
    bias: Option<&KTensor<'_>>,
    activation: Option<UnaryOp>,
    transpose_a: bool,
    transpose_b: bool,
) -> Result<DataId> {
    let MatMulGeom { batch, m, n, b_batch, .. } =
        MatMulGeom::of(a.shape, b.shape, transpose_a, transpose_b);
    if let Some(params) = b.quant {
        return with_dequantized(backend, b, params, |fb| {
            if b_batch == batch {
                return backend.matmul(a, fb, bias, activation, transpose_a, transpose_b);
            }
            // The f32 kernel wants matching batch dims; only this temporary
            // is tiled, never the codes.
            let tiled_shape = Shape::new(vec![batch, fb.shape.dim(1), fb.shape.dim(2)]);
            let tid = backend.tile(fb, &[batch, 1, 1])?;
            let tb = KTensor::new(tid, &tiled_shape, DType::F32);
            let out = backend.matmul(a, &tb, bias, activation, transpose_a, transpose_b);
            backend.dispose_data(tid);
            out
        });
    }
    let out_shape = Shape::new(vec![batch, m, n]);
    let id = backend.matmul(a, b, None, None, transpose_a, transpose_b)?;
    epilogue_fallback(backend, id, &out_shape, bias, activation)
}

/// Reference composition for a fused [`Backend::conv2d`] (see
/// [`fused_matmul_fallback`]).
///
/// # Errors
/// Propagates the first failing unfused kernel.
pub fn fused_conv2d_fallback<B: Backend + ?Sized>(
    backend: &B,
    x: &KTensor<'_>,
    filter: &KTensor<'_>,
    bias: Option<&KTensor<'_>>,
    activation: Option<UnaryOp>,
    info: &Conv2dInfo,
) -> Result<DataId> {
    if let Some(params) = filter.quant {
        return with_dequantized(backend, filter, params, |ff| {
            backend.conv2d(x, ff, bias, activation, info)
        });
    }
    let id = backend.conv2d(x, filter, None, None, info)?;
    epilogue_fallback(backend, id, &info.out_shape(), bias, activation)
}

/// Reference composition for a fused [`Backend::depthwise_conv2d`] (see
/// [`fused_matmul_fallback`]).
///
/// # Errors
/// Propagates the first failing unfused kernel.
pub fn fused_depthwise_conv2d_fallback<B: Backend + ?Sized>(
    backend: &B,
    x: &KTensor<'_>,
    filter: &KTensor<'_>,
    bias: Option<&KTensor<'_>>,
    activation: Option<UnaryOp>,
    info: &Conv2dInfo,
) -> Result<DataId> {
    if let Some(params) = filter.quant {
        return with_dequantized(backend, filter, params, |ff| {
            backend.depthwise_conv2d(x, ff, bias, activation, info)
        });
    }
    let id = backend.depthwise_conv2d(x, filter, None, None, info)?;
    epilogue_fallback(backend, id, &info.out_shape(), bias, activation)
}

/// Reference composition for [`Backend::fused_elementwise`]: one unfused
/// unary/binary kernel per step, disposing every intermediate.
///
/// # Errors
/// Propagates the first failing unfused kernel; rejects empty `steps` and
/// out-of-range extra indices.
pub fn fused_elementwise_fallback<B: Backend + ?Sized>(
    backend: &B,
    x: &KTensor<'_>,
    extras: &[KTensor<'_>],
    steps: &[FusedStep],
    _out_shape: &Shape,
) -> Result<DataId> {
    if steps.is_empty() {
        return Err(Error::invalid("FusedElementwise", "steps must be non-empty"));
    }
    let mut shape = x.shape.clone();
    let mut id = x.data;
    let mut owned = false; // the incoming x is never disposed
    for step in steps {
        let cur = KTensor::new(id, &shape, DType::F32);
        let res: Result<(DataId, Shape)> = (|| match *step {
            FusedStep::Unary(op) => Ok((backend.unary(op, &cur)?, shape.clone())),
            FusedStep::Binary(op, i) => {
                let e = extras.get(i).ok_or_else(|| {
                    Error::invalid(
                        "FusedElementwise",
                        format!("binary step references extra {i} of {}", extras.len()),
                    )
                })?;
                let s = broadcast_shapes("FusedElementwise", &shape, e.shape)?;
                Ok((backend.binary(op, &cur, e, &s, DType::F32)?, s))
            }
        })();
        if owned {
            backend.dispose_data(id);
        }
        let (next, next_shape) = res?;
        id = next;
        shape = next_shape;
        owned = true;
    }
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_scalar_semantics() {
        assert_eq!(UnaryOp::Relu.apply(-3.0), 0.0);
        assert_eq!(UnaryOp::Relu6.apply(9.0), 6.0);
        assert_eq!(UnaryOp::Sign.apply(-0.5), -1.0);
        assert_eq!(UnaryOp::LeakyRelu(0.2).apply(-10.0), -2.0);
        assert_eq!(UnaryOp::ClipByValue(-1.0, 1.0).apply(5.0), 1.0);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn softplus_is_stable_for_large_inputs() {
        assert!(UnaryOp::Softplus.apply(1000.0).is_finite());
        assert!((UnaryOp::Softplus.apply(1000.0) - 1000.0).abs() < 1e-3);
        assert!(UnaryOp::Softplus.apply(-1000.0).abs() < 1e-6);
    }

    #[test]
    fn binary_scalar_semantics() {
        assert_eq!(BinaryOp::Mod.apply(-7.0, 3.0), 2.0);
        assert_eq!(BinaryOp::FloorDiv.apply(7.0, 2.0), 3.0);
        assert_eq!(BinaryOp::SquaredDifference.apply(5.0, 2.0), 9.0);
        assert_eq!(BinaryOp::Greater.apply(2.0, 1.0), 1.0);
        assert_eq!(BinaryOp::LogicalXor.apply(1.0, 1.0), 0.0);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinaryOp::Equal.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
    }

    #[test]
    fn reduce_identities() {
        assert_eq!(ReduceOp::Sum.init(), 0.0);
        assert_eq!(ReduceOp::Prod.init(), 1.0);
        assert_eq!(ReduceOp::Max.init(), f32::NEG_INFINITY);
        assert_eq!(ReduceOp::Mean.finalize(10.0, 4), 2.5);
    }

    #[test]
    fn future_resolves_via_promise() {
        let (fut, promise) = DataFuture::pending();
        assert!(!fut.is_ready());
        assert!(fut.poll().is_none());
        promise.complete(Ok(TensorData::F32(vec![1.0])));
        assert!(fut.is_ready());
        assert_eq!(fut.wait().unwrap(), TensorData::F32(vec![1.0]));
    }

    #[test]
    fn ready_future_is_immediate() {
        let fut = DataFuture::ready(Ok(TensorData::I32(vec![7])));
        assert_eq!(fut.poll().unwrap().unwrap(), TensorData::I32(vec![7]));
    }

    #[test]
    fn future_wait_blocks_until_complete() {
        let (fut, promise) = DataFuture::pending();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            promise.complete(Ok(TensorData::F32(vec![2.0])));
        });
        assert_eq!(fut.wait().unwrap(), TensorData::F32(vec![2.0]));
        t.join().unwrap();
    }
}
