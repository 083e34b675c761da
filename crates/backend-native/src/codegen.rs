//! Which build of the hot loops runs.
//!
//! The workspace is compiled for the target's baseline — on x86-64, SSE2 and
//! four lanes — so that one binary runs on any CPU of the architecture. The
//! kernels' hot loops ([`hot_loop!`]) are compiled a second time with AVX2
//! enabled (eight lanes, sixteen 256-bit registers), and a kernel picks the
//! build the CPU it runs on has ([`Codegen::detect`]). Building the whole
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
pub(crate) struct Codegen {
    avx2: bool,
}

impl Codegen {
    /// The build for the target's baseline, which every CPU runs.
    #[cfg(test)]
    pub(crate) const PORTABLE: Codegen = Codegen { avx2: false };

    /// The widest build this CPU runs. (`std` asks the CPU once and caches
    /// the answer, so this is a load.)
    #[inline]
    pub(crate) fn detect() -> Codegen {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Codegen { avx2 }
    }

    /// Every build this CPU runs, the portable one first.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<Codegen> {
        let widest = Codegen::detect();
        if widest == Codegen::PORTABLE {
            vec![widest]
        } else {
            vec![Codegen::PORTABLE, widest]
        }
    }

    /// Whether this is the AVX2 build.
    #[inline(always)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn avx2(self) -> bool {
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
macro_rules! hot_loop {
    (
        $(#[$meta:meta])*
        fn $name:ident<const $wide:ident: bool>($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        fn $name(codegen: $crate::codegen::Codegen, $($arg: $ty),*) {
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
pub(crate) use hot_loop;
