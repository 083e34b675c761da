//! The backend abstraction (paper Sec 3.4).
//!
//! A backend runs device-specific *kernels* — each one a [`KernelCall`]
//! value, through [`Backend::run`] — plus data-management methods
//! (`register`, `read`, `read_sync`, `dispose_data`) that store the buffer
//! backing each tensor. Tensors are decoupled from their data: the engine
//! refcounts [`DataId`]s so `reshape`/`clone` are free shallow copies.

use crate::conv_util::Conv2dInfo;
use crate::dtype::{DType, TensorData};
use crate::error::{Error, Result};
use crate::quant::QuantParams;
use crate::shape::{broadcast_shapes, reduced_shape, Shape};
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
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
    /// use (the gate of [`crate::ops::run`]): per-tensor, or per-channel indexed
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
/// the transposes; a rank-2 product is a batch of 1.
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
    /// The geometry of `a × b` for rank-2 or rank-3 operand shapes.
    pub fn of(a: &Shape, b: &Shape, transpose_a: bool, transpose_b: bool) -> MatMulGeom {
        // `(batch, rows, cols)` of a stored operand.
        let split = |s: &Shape| match *s.dims() {
            [rows, cols] => (1, rows, cols),
            [batch, rows, cols] => (batch, rows, cols),
            // `KernelCall::output` refuses every other rank first.
            _ => (1, 0, 0),
        };
        let ((batch, a0, a1), (b_batch, b0, b1)) = (split(a), split(b));
        let (m, k) = if transpose_a { (a1, a0) } else { (a0, a1) };
        let n = if transpose_b { b0 } else { b1 };
        MatMulGeom { batch, m, k, n, b_batch, transpose_a, transpose_b }
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

/// One step of a fused elementwise chain ([`KernelCall::FusedElementwise`]).
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

/// A device-specific kernel implementation set (paper Sec 3.3/3.4): storage,
/// readback, fences, a timer, and one entry point that runs any
/// [`KernelCall`].
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

    /// Run `call` over `operands` into a new container of the shape and
    /// dtype [`KernelCall::output`] gives, which is also where a malformed
    /// call becomes an `Err`.
    ///
    /// A product call (paper Sec 3.9/4.1: draw-call overhead) applies its
    /// [`Epilogue`] in the same pass: the full accumulation, then
    /// `acc + bias[channel]`, then the activation, every scalar through
    /// [`BinaryOp::apply`] / [`UnaryOp::apply`], so it is bit-identical to
    /// the unfused composition on an f32 device. A fused program the device
    /// rejects (the driver refuses the shader) surfaces as
    /// [`Error::KernelUnsupported`] like any other rejection; the op layer
    /// ([`crate::ops::run`]) then composes the call from plain calls on the
    /// same backend. A quantized weight ([`KTensor::quant`]) runs
    /// dequant-free — codes read in place, never tiled or copied — through
    /// the factored accumulation `Σ aₖ(qₖs+m) = s·Σ aₖqₖ + m·Σ aₖ`, scale and
    /// min applied before the bias and activation.
    ///
    /// # Errors
    /// A malformed call, an unknown container, or a backend-specific
    /// execution failure.
    fn run(&self, call: &KernelCall<'_>, operands: &[KTensor<'_>]) -> Result<DataId>;
}

/// What a product kernel (matmul, conv2d, depthwise conv2d) does after its
/// accumulation — and so which op the call reports as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epilogue {
    /// The plain op (`MatMul`, `Conv2D`, `DepthwiseConv2D`): nothing, over
    /// an f32 weight.
    None,
    /// The fused op (`FusedMatMul`, ...) over an f32 weight.
    Fused {
        /// Whether the call binds a third operand: a rank-1 f32 bias, one
        /// value per output channel (matmul: column), added first.
        bias: bool,
        /// Applied last.
        activation: Option<UnaryOp>,
    },
    /// The fused op over a quantized weight (`FusedMatMulQuant`, ...),
    /// whose codes the kernel reads in place.
    Quant {
        /// As for [`Epilogue::Fused`].
        bias: bool,
        /// As for [`Epilogue::Fused`].
        activation: Option<UnaryOp>,
    },
}

impl Epilogue {
    /// Whether a bias operand is bound.
    pub fn bias(self) -> bool {
        matches!(self, Epilogue::Fused { bias: true, .. } | Epilogue::Quant { bias: true, .. })
    }

    /// The activation applied last.
    pub fn activation(self) -> Option<UnaryOp> {
        match self {
            Epilogue::None => None,
            Epilogue::Fused { activation, .. } | Epilogue::Quant { activation, .. } => activation,
        }
    }

    /// Whether the call is the plain kernel: an f32 weight and nothing after
    /// the accumulation (a fused op with an empty epilogue is one).
    pub fn is_plain(self) -> bool {
        matches!(self, Epilogue::None | Epilogue::Fused { bias: false, activation: None })
    }

    /// The op's name under this epilogue, from its plain, fused and
    /// quantized names.
    fn name(self, [plain, fused, quant]: [&'static str; 3]) -> &'static str {
        match self {
            Epilogue::None => plain,
            Epilogue::Fused { .. } => fused,
            Epilogue::Quant { .. } => quant,
        }
    }
}

/// One kernel call: which kernel, with the attributes the op it runs for
/// lends it. This is the whole vocabulary below the op layer —
/// [`crate::Engine::run_kernel`] dispatches one, [`Backend::run`] runs one,
/// and [`KernelCall::output`] is the one rule for what it produces. Each
/// variant lists its operands in the order they are bound.
#[allow(missing_docs)] // the attributes are named in their variant's doc
#[derive(Debug, Clone, PartialEq)]
pub enum KernelCall<'a> {
    /// `[x]`, element-wise.
    Unary(UnaryOp),
    /// `[a, b]`, element-wise under NumPy broadcasting.
    Binary(BinaryOp),
    /// `[x]` converted to the dtype.
    Cast(DType),
    /// `[x]` reduced over `axes` (increasing), which the output drops.
    Reduce { op: ReduceOp, axes: Cow<'a, [usize]> },
    /// `[x]` reduced to `I32` indices along `axis`, which the output drops.
    ArgReduce { op: ArgReduceOp, axis: usize },
    /// `[a, b]` and the bias: matrices at rank 2, batches of them at rank 3
    /// (a quantized `b` may have a batch of 1, broadcast across `a`'s),
    /// transposed as asked.
    MatMul { transpose_a: bool, transpose_b: bool, epilogue: Epilogue },
    /// `[x, filter]` and the bias: NHWC × HWIO.
    Conv2d { info: Cow<'a, Conv2dInfo>, epilogue: Epilogue },
    /// `[dy, filter]`: the gradient of a conv2d w.r.t. its input.
    Conv2dBackpropInput(Cow<'a, Conv2dInfo>),
    /// `[x, dy]`: the gradient of a conv2d w.r.t. its filter.
    Conv2dBackpropFilter(Cow<'a, Conv2dInfo>),
    /// `[x, filter]` and the bias, the filter `[fh, fw, c, mul]`.
    DepthwiseConv2d { info: Cow<'a, Conv2dInfo>, epilogue: Epilogue },
    /// `[dy, filter]`: the gradient of a depthwise conv2d w.r.t. its input.
    DepthwiseConv2dBackpropInput(Cow<'a, Conv2dInfo>),
    /// `[x, dy]`: the gradient of a depthwise conv2d w.r.t. its filter.
    DepthwiseConv2dBackpropFilter(Cow<'a, Conv2dInfo>),
    /// `[x]`: max or average pooling over `info`'s windows.
    Pool2d { op: PoolOp, info: Cow<'a, Conv2dInfo> },
    /// `[dy, x]`: the pooling gradient.
    Pool2dBackprop { op: PoolOp, info: Cow<'a, Conv2dInfo> },
    /// `[x]`: `x[begin .. begin + size]` per axis.
    Slice { begin: Cow<'a, [usize]>, size: Cow<'a, [usize]> },
    /// Every operand, along `axis`: equal rank, equal dims off it.
    Concat { axis: usize },
    /// `[x]` with its axes permuted by `perm`.
    Transpose { perm: Cow<'a, [usize]> },
    /// `[x]` padded with `value`, `paddings[i] = (before, after)`.
    Pad { paddings: Cow<'a, [(usize, usize)]>, value: f32 },
    /// `[x, indices]`: the slices of `x` at the integer `indices` along
    /// `axis`, whose dims replace that axis in the output.
    Gather { axis: usize },
    /// `[x]` repeated `reps[i]` times along each axis.
    Tile { reps: Cow<'a, [usize]> },
    /// `[x]` reversed along `axes`.
    Reverse { axes: Cow<'a, [usize]> },
    /// `[cond, a, b]`: `cond ? a : b` under broadcasting.
    Select,
    /// `[indices]` into a new trailing axis of `depth`: `on` at each index,
    /// `off` elsewhere.
    OneHot { depth: usize, on: f32, off: f32 },
    /// `[x]` NHWC, bilinearly resized to `new_h` × `new_w`.
    ResizeBilinear { new_h: usize, new_w: usize, align_corners: bool },
    /// `[x, extras..]`: a chain of element-wise steps as one kernel.
    FusedElementwise(Cow<'a, [FusedStep]>),
}

/// `operands` as exactly `N` operands.
fn take<'o, 'a, const N: usize>(
    name: &'static str,
    operands: &'o [KTensor<'a>],
) -> Result<&'o [KTensor<'a>; N]> {
    operands
        .try_into()
        .map_err(|_| Error::invalid(name, format!("takes {N} operands, got {}", operands.len())))
}

/// Check that operand `what` has `dims`.
fn expect_dims(name: &'static str, what: &str, t: &KTensor<'_>, dims: &[usize]) -> Result<()> {
    if t.shape.dims() == dims {
        return Ok(());
    }
    Err(Error::shape(name, format!("{what} must be {dims:?}, got {}", t.shape)))
}

/// A product call's input, weight and bias, counted against its epilogue.
fn product<'o, 'a>(
    name: &'static str,
    operands: &'o [KTensor<'a>],
    epilogue: Epilogue,
) -> Result<(&'o KTensor<'a>, &'o KTensor<'a>, Option<&'o KTensor<'a>>)> {
    match operands {
        [x, w] if !epilogue.bias() => Ok((x, w, None)),
        [x, w, bias] if epilogue.bias() => Ok((x, w, Some(bias))),
        _ => {
            let arity = 2 + epilogue.bias() as usize;
            let msg = format!("{epilogue:?} takes {arity} operands, got {}", operands.len());
            Err(Error::invalid(name, msg))
        }
    }
}

/// Whether `params` have a `(scale, min)` pair for each of the `channels`
/// a kernel looks them up by.
fn per_output(params: &QuantParams, channels: usize) -> bool {
    params.channel_count().is_none_or(|c| c == channels)
}

/// Check a product call's weight against its epilogue — codes with params
/// the kernel can look up per output (`quant_ok`) exactly when it is
/// [`Epilogue::Quant`] — and its bias: rank-1 f32, one value per channel.
fn check_weight(
    name: &'static str,
    w: &KTensor<'_>,
    bias: Option<&KTensor<'_>>,
    epilogue: Epilogue,
    channels: usize,
    quant_ok: impl Fn(&QuantParams) -> bool,
) -> Result<()> {
    let quant = matches!(epilogue, Epilogue::Quant { .. });
    if quant != w.quant.is_some_and(quant_ok) {
        let msg = format!("a {epilogue:?} call and a weight quantized as {:?}", w.quant);
        return Err(Error::invalid(name, msg));
    }
    match bias {
        Some(b) if b.shape.dims() != [channels] || b.dtype != DType::F32 => Err(Error::shape(
            name,
            format!("bias must be rank-1 f32 [{channels}], got {} {}", b.dtype, b.shape),
        )),
        _ => Ok(()),
    }
}

/// The dims of a conv call's NHWC input and output, and of its filter with
/// `last` its trailing axis.
fn conv_dims(c: &Conv2dInfo, last: usize) -> [[usize; 4]; 3] {
    [
        [c.batch, c.in_height, c.in_width, c.in_channels],
        [c.batch, c.out_height, c.out_width, c.out_channels],
        [c.filter_height, c.filter_width, c.in_channels, last],
    ]
}

/// Check an axis of a rank-`rank` operand.
fn check_axis(name: &'static str, axis: usize, rank: usize) -> Result<()> {
    if axis < rank {
        return Ok(());
    }
    Err(Error::invalid(name, format!("axis {axis} out of range for rank {rank}")))
}

/// An attribute owned, for a call that outlives its op.
fn owned<B: ?Sized + ToOwned + 'static>(attr: Cow<'_, B>) -> Cow<'static, B> {
    Cow::Owned(attr.into_owned())
}

impl<'a> KernelCall<'a> {
    /// The name the call reports in profiles, trace spans and
    /// [`crate::DegradationEvent`]s.
    pub fn name(&self) -> &'static str {
        use KernelCall as C;
        match self {
            C::Unary(op) => op.name(),
            C::Binary(op) => op.name(),
            C::Cast(_) => "Cast",
            C::Reduce { op, .. } => op.name(),
            C::ArgReduce { op: ArgReduceOp::ArgMax, .. } => "ArgMax",
            C::ArgReduce { op: ArgReduceOp::ArgMin, .. } => "ArgMin",
            C::MatMul { epilogue, .. } => {
                epilogue.name(["MatMul", "FusedMatMul", "FusedMatMulQuant"])
            }
            C::Conv2d { epilogue, .. } => {
                epilogue.name(["Conv2D", "FusedConv2D", "FusedConv2DQuant"])
            }
            C::Conv2dBackpropInput(_) => "Conv2DBackpropInput",
            C::Conv2dBackpropFilter(_) => "Conv2DBackpropFilter",
            C::DepthwiseConv2d { epilogue, .. } => epilogue.name([
                "DepthwiseConv2D",
                "FusedDepthwiseConv2D",
                "FusedDepthwiseConv2DQuant",
            ]),
            C::DepthwiseConv2dBackpropInput(_) => "DepthwiseConv2DBackpropInput",
            C::DepthwiseConv2dBackpropFilter(_) => "DepthwiseConv2DBackpropFilter",
            C::Pool2d { op: PoolOp::Max, .. } => "MaxPool",
            C::Pool2d { op: PoolOp::Avg, .. } => "AvgPool",
            C::Pool2dBackprop { .. } => "PoolBackprop",
            C::Slice { .. } => "Slice",
            C::Concat { .. } => "Concat",
            C::Transpose { .. } => "Transpose",
            C::Pad { .. } => "Pad",
            C::Gather { .. } => "Gather",
            C::Tile { .. } => "Tile",
            C::Reverse { .. } => "Reverse",
            C::Select => "Select",
            C::OneHot { .. } => "OneHot",
            C::ResizeBilinear { .. } => "ResizeBilinear",
            C::FusedElementwise(_) => "FusedElementwise",
        }
    }

    /// A product call's epilogue; `None` for every other kernel.
    pub fn epilogue(&self) -> Option<Epilogue> {
        match self {
            KernelCall::MatMul { epilogue, .. }
            | KernelCall::Conv2d { epilogue, .. }
            | KernelCall::DepthwiseConv2d { epilogue, .. } => Some(*epilogue),
            _ => None,
        }
    }

    /// Whether the call is a fused kernel: a product call that is not
    /// plain, or an element-wise chain. A device's refusal of one is
    /// composed by the op layer instead of degrading the engine
    /// ([`crate::Engine::run_kernel`]).
    pub fn is_fused(&self) -> bool {
        matches!(self, KernelCall::FusedElementwise(_))
            || self.epilogue().is_some_and(|e| !e.is_plain())
    }

    /// The same product call under another epilogue; any other call as it
    /// is.
    pub fn with_epilogue(&self, epilogue: Epilogue) -> KernelCall<'a> {
        let mut call = self.clone();
        if let KernelCall::MatMul { epilogue: e, .. }
        | KernelCall::Conv2d { epilogue: e, .. }
        | KernelCall::DepthwiseConv2d { epilogue: e, .. } = &mut call
        {
            *e = epilogue;
        }
        call
    }

    /// The same call owning its attributes, for a kernel that runs after
    /// its op returned (a GPU pipeline body, on the device thread).
    pub fn into_owned(self) -> KernelCall<'static> {
        use KernelCall as C;
        match self {
            C::Unary(op) => C::Unary(op),
            C::Binary(op) => C::Binary(op),
            C::Cast(dtype) => C::Cast(dtype),
            C::Reduce { op, axes } => C::Reduce { op, axes: owned(axes) },
            C::ArgReduce { op, axis } => C::ArgReduce { op, axis },
            C::MatMul { transpose_a, transpose_b, epilogue } => {
                C::MatMul { transpose_a, transpose_b, epilogue }
            }
            C::Conv2d { info, epilogue } => C::Conv2d { info: owned(info), epilogue },
            C::Conv2dBackpropInput(info) => C::Conv2dBackpropInput(owned(info)),
            C::Conv2dBackpropFilter(info) => C::Conv2dBackpropFilter(owned(info)),
            C::DepthwiseConv2d { info, epilogue } => {
                C::DepthwiseConv2d { info: owned(info), epilogue }
            }
            C::DepthwiseConv2dBackpropInput(info) => C::DepthwiseConv2dBackpropInput(owned(info)),
            C::DepthwiseConv2dBackpropFilter(info) => {
                C::DepthwiseConv2dBackpropFilter(owned(info))
            }
            C::Pool2d { op, info } => C::Pool2d { op, info: owned(info) },
            C::Pool2dBackprop { op, info } => C::Pool2dBackprop { op, info: owned(info) },
            C::Slice { begin, size } => C::Slice { begin: owned(begin), size: owned(size) },
            C::Concat { axis } => C::Concat { axis },
            C::Transpose { perm } => C::Transpose { perm: owned(perm) },
            C::Pad { paddings, value } => C::Pad { paddings: owned(paddings), value },
            C::Gather { axis } => C::Gather { axis },
            C::Tile { reps } => C::Tile { reps: owned(reps) },
            C::Reverse { axes } => C::Reverse { axes: owned(axes) },
            C::Select => C::Select,
            C::OneHot { depth, on, off } => C::OneHot { depth, on, off },
            C::ResizeBilinear { new_h, new_w, align_corners } => {
                C::ResizeBilinear { new_h, new_w, align_corners }
            }
            C::FusedElementwise(steps) => C::FusedElementwise(owned(steps)),
        }
    }

    /// The shape and dtype the call produces from `operands`: the one shape
    /// rule of every kernel, for the engine, every backend and every GPU
    /// builder alike, and the one place a call is validated — one a kernel
    /// could not run (an operand count, a dim or an index out of line) is an
    /// `Err` here, never a panic further down.
    ///
    /// # Errors
    /// A shape or argument error naming the call.
    pub fn output(&self, operands: &[KTensor<'_>]) -> Result<(Shape, DType)> {
        use KernelCall as C;
        let name = self.name();
        let invalid = |msg: String| Err(Error::invalid(name, msg));
        Ok(match self {
            C::Unary(op) => {
                let [x] = take(name, operands)?;
                (x.shape.clone(), op.out_dtype(x.dtype))
            }
            C::Binary(op) => {
                let [a, b] = take(name, operands)?;
                let dtype = if op.is_comparison() { DType::Bool } else { a.dtype.promote(b.dtype) };
                (broadcast_shapes(name, a.shape, b.shape)?, dtype)
            }
            C::Cast(dtype) => {
                let [x] = take(name, operands)?;
                (x.shape.clone(), *dtype)
            }
            C::Reduce { op, axes } => {
                let [x] = take(name, operands)?;
                let increasing = axes.windows(2).all(|w| w[0] < w[1]);
                if !increasing || axes.last().is_some_and(|&a| a >= x.shape.rank()) {
                    return invalid(format!("axes {axes:?} of {} must increase and exist", x.shape));
                }
                (reduced_shape(x.shape, axes, false), op.out_dtype(x.dtype))
            }
            C::ArgReduce { axis, .. } => {
                let [x] = take(name, operands)?;
                check_axis(name, *axis, x.shape.rank())?;
                let out = reduced_shape(x.shape, &[*axis], false);
                if x.shape.dim(*axis) == 0 && out.size() > 0 {
                    return invalid(format!("axis {axis} of {} is empty", x.shape));
                }
                (out, DType::I32)
            }
            C::MatMul { transpose_a, transpose_b, epilogue } => {
                let (a, b, bias) = product(name, operands, *epilogue)?;
                let rank = a.shape.rank();
                let shapes = || format!("{} x {}", a.shape, b.shape);
                if b.shape.rank() != rank || !(2..=3).contains(&rank) {
                    let msg = format!("expected rank 2 or 3, got {}", shapes());
                    return Err(Error::shape(name, msg));
                }
                let g = MatMulGeom::of(a.shape, b.shape, *transpose_a, *transpose_b);
                let k_b = b.shape.dim(if *transpose_b { rank - 1 } else { rank - 2 });
                if g.k != k_b {
                    let (k, shapes) = (g.k, shapes());
                    let msg = format!("inner dimensions must match: {k} vs {k_b} ({shapes})");
                    return Err(Error::shape(name, msg));
                }
                if g.b_batch != g.batch && !(g.b_batch == 1 && b.quant.is_some()) {
                    let msg = format!("batch dims {} vs {} incompatible", g.batch, g.b_batch);
                    return Err(Error::shape(name, msg));
                }
                check_weight(name, b, bias, *epilogue, g.n, |p| per_output(p, g.n))?;
                let out = if rank == 3 { vec![g.batch, g.m, g.n] } else { vec![g.m, g.n] };
                (Shape::new(out), DType::F32)
            }
            C::Conv2d { info, epilogue } | C::DepthwiseConv2d { info, epilogue } => {
                let (x, w, bias) = product(name, operands, *epilogue)?;
                let (ic, mul) = (info.in_channels, info.channel_mul);
                let depthwise = matches!(self, C::DepthwiseConv2d { .. });
                let last = if depthwise { mul } else { info.out_channels };
                let [input, _, filter] = conv_dims(info, last);
                expect_dims(name, "input", x, &input)?;
                expect_dims(name, "filter", w, &filter)?;
                let channels = info.out_channels;
                // A depthwise kernel keys per-channel params by input channel
                // along filter axis 2, by multiplier otherwise.
                check_weight(name, w, bias, *epilogue, channels, |p| match (depthwise, p) {
                    (true, QuantParams::PerChannel { axis: 2, .. }) => per_output(p, ic),
                    (true, _) => per_output(p, mul),
                    (false, _) => per_output(p, channels),
                })?;
                (info.out_shape(), DType::F32)
            }
            C::Conv2dBackpropInput(info) | C::DepthwiseConv2dBackpropInput(info) => {
                let [dy, w] = take(name, operands)?;
                let last = match self {
                    C::Conv2dBackpropInput(_) => info.out_channels,
                    _ => info.channel_mul,
                };
                let [input, out, filter] = conv_dims(info, last);
                expect_dims(name, "dy", dy, &out)?;
                expect_dims(name, "filter", w, &filter)?;
                (Shape::new(input.to_vec()), DType::F32)
            }
            C::Conv2dBackpropFilter(info) | C::DepthwiseConv2dBackpropFilter(info) => {
                let [x, dy] = take(name, operands)?;
                let last = match self {
                    C::Conv2dBackpropFilter(_) => info.out_channels,
                    _ => info.channel_mul,
                };
                let [input, out, filter] = conv_dims(info, last);
                expect_dims(name, "input", x, &input)?;
                expect_dims(name, "dy", dy, &out)?;
                (Shape::new(filter.to_vec()), DType::F32)
            }
            C::Pool2d { info, .. } => {
                let [x] = take(name, operands)?;
                expect_dims(name, "input", x, &conv_dims(info, 0)[0])?;
                (info.out_shape(), x.dtype)
            }
            C::Pool2dBackprop { info, .. } => {
                let [dy, x] = take(name, operands)?;
                let [input, out, _] = conv_dims(info, 0);
                expect_dims(name, "dy", dy, &out)?;
                expect_dims(name, "input", x, &input)?;
                (Shape::new(input.to_vec()), DType::F32)
            }
            C::Slice { begin, size } => {
                let [x] = take(name, operands)?;
                let dims = x.shape.dims();
                let fits = begin.len() == dims.len()
                    && size.len() == dims.len()
                    && (0..dims.len()).all(|i| begin[i] + size[i] <= dims[i]);
                if !fits {
                    return invalid(format!("[{begin:?} + {size:?}) does not fit {}", x.shape));
                }
                (Shape::new(size.to_vec()), x.dtype)
            }
            C::Concat { axis } => {
                let first = operands.first().ok_or_else(|| Error::invalid(name, "no operands"))?;
                let rank = first.shape.rank();
                check_axis(name, *axis, rank)?;
                let mut dims = first.shape.dims().to_vec();
                dims[*axis] = 0;
                for t in operands {
                    let same = |d: usize| d == *axis || t.shape.dim(d) == first.shape.dim(d);
                    if t.shape.rank() != rank || !(0..rank).all(same) {
                        let msg = format!("{} and {} differ off axis {axis}", t.shape, first.shape);
                        return Err(Error::shape(name, msg));
                    }
                    dims[*axis] += t.shape.dim(*axis);
                }
                (Shape::new(dims), first.dtype)
            }
            C::Transpose { perm } => {
                let [x] = take(name, operands)?;
                let rank = x.shape.rank();
                let mut seen = vec![false; rank];
                let valid = perm.len() == rank
                    && perm.iter().all(|&p| p < rank && !std::mem::replace(&mut seen[p], true));
                if !valid {
                    return invalid(format!("{perm:?} does not permute the axes of {}", x.shape));
                }
                (Shape::new(perm.iter().map(|&p| x.shape.dim(p)).collect::<Vec<_>>()), x.dtype)
            }
            C::Pad { paddings, .. } => {
                let [x] = take(name, operands)?;
                if paddings.len() != x.shape.rank() {
                    return invalid(format!("{} paddings for {}", paddings.len(), x.shape));
                }
                let dims = x.shape.dims().iter().zip(paddings.iter());
                (Shape::new(dims.map(|(&d, &(b, a))| d + b + a).collect::<Vec<_>>()), x.dtype)
            }
            C::Gather { axis } => {
                let [x, indices] = take(name, operands)?;
                check_axis(name, *axis, x.shape.rank())?;
                if x.shape.dim(*axis) == 0 && indices.shape.size() > 0 {
                    return invalid(format!("no slices to gather along axis {axis} of {}", x.shape));
                }
                let dims = x.shape.dims();
                let out = [&dims[..*axis], indices.shape.dims(), &dims[axis + 1..]].concat();
                (Shape::new(out), x.dtype)
            }
            C::Tile { reps } => {
                let [x] = take(name, operands)?;
                if reps.len() != x.shape.rank() {
                    return invalid(format!("{} reps for {}", reps.len(), x.shape));
                }
                let dims = x.shape.dims().iter().zip(reps.iter());
                (Shape::new(dims.map(|(&d, &r)| d * r).collect::<Vec<_>>()), x.dtype)
            }
            C::Reverse { axes } => {
                let [x] = take(name, operands)?;
                for &axis in axes.iter() {
                    check_axis(name, axis, x.shape.rank())?;
                }
                (x.shape.clone(), x.dtype)
            }
            C::Select => {
                let [cond, a, b] = take(name, operands)?;
                let ab = broadcast_shapes(name, a.shape, b.shape)?;
                (broadcast_shapes(name, &ab, cond.shape)?, a.dtype.promote(b.dtype))
            }
            C::OneHot { depth, .. } => {
                let [indices] = take(name, operands)?;
                (Shape::new([indices.shape.dims(), &[*depth]].concat()), DType::F32)
            }
            C::ResizeBilinear { new_h, new_w, .. } => {
                let [x] = take(name, operands)?;
                let d = x.shape.dims();
                if d.len() != 4 || d[1] == 0 || d[2] == 0 || *new_h == 0 || *new_w == 0 {
                    return invalid(format!("cannot resize {} to {new_h}x{new_w}", x.shape));
                }
                (Shape::new(vec![d[0], *new_h, *new_w, d[3]]), DType::F32)
            }
            C::FusedElementwise(steps) => {
                let Some((x, extras)) = operands.split_first() else {
                    return invalid("no operands".to_string());
                };
                if steps.is_empty() {
                    return invalid("steps must be non-empty".to_string());
                }
                let mut shape = x.shape.clone();
                for step in steps.iter() {
                    if let FusedStep::Binary(_, i) = *step {
                        let Some(extra) = extras.get(i) else {
                            let n = extras.len();
                            return invalid(format!("binary step references extra {i} of {n}"));
                        };
                        shape = broadcast_shapes(name, &shape, extra.shape)?;
                    }
                }
                (shape, DType::F32)
            }
        })
    }
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
