//! Which build of the hot loops runs.
//!
//! The workspace is compiled for the target's baseline — on x86-64, SSE2 and
//! four lanes — so that one binary runs on any CPU of the architecture. The
//! hot loops of every backend — the native kernels and the GPU simulators'
//! product bodies ([`hot_loop!`](crate::hot_loop)) — are compiled a second
//! time with AVX2 enabled (eight lanes, sixteen 256-bit registers), and a
//! kernel picks the build the CPU it runs on has ([`Codegen::detect`]), one
//! check for every hot loop in the workspace. Building the whole
//! program for the host instead (`-C target-cpu=native`) gives a binary that
//! dies with an illegal instruction on an older CPU, and a build flag or an
//! option would be one more thing to set right.
//!
//! Both builds compute the same thing to the bit. AVX2 adds wider registers,
//! not different arithmetic: every multiply and add stays a separate IEEE
//! operation (Rust never contracts `a * b + c` into a fused multiply-add,
//! and FMA is not enabled), and each output keeps its order of additions.

/// A build of the hot loops: the portable one, or the AVX2 one on a CPU that
/// has AVX2. The field is private, so a value that selects AVX2 comes only
/// from [`Codegen::detect`] or [`Codegen::all`], after the CPU was asked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Codegen {
    avx2: bool,
}

impl Codegen {
    /// The build for the target's baseline, which every CPU runs.
    pub const PORTABLE: Codegen = Codegen { avx2: false };

    /// The widest build this CPU runs. (`std` asks the CPU once and caches
    /// the answer, so this is a load.)
    #[inline]
    pub fn detect() -> Codegen {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Codegen { avx2 }
    }

    /// Every build this CPU runs, the portable one first: what a test of a
    /// hot loop sweeps, so that a CPU with AVX2 still checks the portable
    /// build to the bit.
    pub fn all() -> Vec<Codegen> {
        let widest = Codegen::detect();
        if widest == Codegen::PORTABLE {
            vec![widest]
        } else {
            vec![Codegen::PORTABLE, widest]
        }
    }

    /// Whether this is the AVX2 build.
    #[inline(always)]
    pub fn avx2(self) -> bool {
        self.avx2
    }
}

/// `fn $name(codegen: Codegen, args..)`: the body written once, compiled
/// twice. The body becomes an `#[inline(always)]` function generic over
/// `const $wide: bool`, and each build is a function that calls it — the
/// portable one with `false`, one under `#[target_feature(enable = "avx2")]`
/// with `true` — so the body, and every `#[inline(always)]` function it
/// calls, is compiled into both, each with its own registers. `$wide` is a
/// constant in each, for the choices that differ by register width (the
/// product's tile). A closure would not do: the compiler inlines it into the
/// AVX2 function only when it thinks that pays, and what it does not inline
/// runs at the baseline.
#[macro_export]
macro_rules! hot_loop {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident<const $wide:ident: bool>($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name(codegen: $crate::codegen::Codegen, $($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn body<const $wide: bool>($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            fn avx2($($arg: $ty),*) {
                body::<true>($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if codegen.avx2() {
                // SAFETY: `avx2` runs AVX2 instructions, so the CPU must have
                // them; a `Codegen` selects AVX2 only when
                // `is_x86_feature_detected!("avx2")` was true on this CPU.
                return unsafe { avx2($($arg),*) };
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = codegen;
            body::<false>($($arg),*)
        }
    };
}

/// Evaluate `$body` with `$f` bound to the scalar function of the unary op
/// `$op`. The `match` happens here, once per kernel; inside each arm the op
/// is a constant, so the `match` in `UnaryOp::apply` folds away and a loop
/// over `$f` vectorises. `apply` stays the only definition of the math.
#[macro_export]
macro_rules! with_unary_fn {
    ($op:expr, $f:ident => $body:expr) => {
        $crate::with_unary_fn!(@arms $op, $f => $body;
            Neg, Abs, Exp, Expm1, Log, Log1p, Sqrt, Rsqrt, Square, Relu, Relu6, Sigmoid, Tanh,
            Elu, Selu, Softplus, Sin, Cos, Tan, Asin, Acos, Atan, Floor, Ceil, Round, Sign,
            Reciprocal, LogicalNot, IsNan, IsInf, IsFinite, Erf;
            LeakyRelu(p), ClipByValue(p, q), Step(p))
    };
    (@arms $op:expr, $f:ident => $body:expr;
     $($unit:ident),*; $($with:ident($($param:ident),*)),*) => {
        match $op {
            $($crate::backend::UnaryOp::$unit => {
                let $f = |v: f32| $crate::backend::UnaryOp::$unit.apply(v);
                $body
            })*
            $($crate::backend::UnaryOp::$with($($param),*) => {
                let $f = move |v: f32| $crate::backend::UnaryOp::$with($($param),*).apply(v);
                $body
            })*
        }
    };
}
