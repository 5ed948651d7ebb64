//! Instruction-set instances of the update-loop kernels, chosen at run
//! time.
//!
//! The library is built for baseline x86-64 (SSE2), where a register
//! holds two `f64`s. Each per-iteration kernel — the fused step's row
//! block and column stripe, the SDDMM and SpMM rows, the sparse step's
//! graph-term and combine loop and the closing score pass — is a
//! [`Kernel`]: a struct holding the kernel's inputs and outputs, whose
//! [`Kernel::run`] is the loop body. [`dispatch`] runs that body inside
//! a function compiled for AVX2 when the CPU has it, and directly
//! otherwise, so the same source yields two machine-code instances and
//! the faster one is picked once per call by a cached feature test.
//! Non-x86 builds compile only the direct call.
//!
//! **The two instances compute the same bits.** Rust never contracts
//! `a*b + c` into a fused multiply-add and never reassociates a float
//! sum, so wider registers only let one instruction carry more
//! independent lanes (the `K` accumulators of a row, the entries of a
//! new row). Reductions such as [`crate::ops::dot`] and the fit term
//! stay serial chains in both instances. `crates/linalg` and
//! `crates/core` check every output bit of both instances against each
//! other, and CI runs the whole suite with the program built for AVX2.
//!
//! **An instance body holds no closure and no out-of-line callee.** The
//! target feature applies to the function it is written on and to what
//! is inlined into it; a callee left out of line is compiled for the
//! baseline and, worse, loses what inlining knew (a compile-time rank,
//! the unrolled loops). A prototype that kept the fused step's
//! accumulators behind a callback ran Lake's step 2.3–2.6x slower than
//! the baseline. So every `run` is `#[inline(always)]`, holds its loops
//! itself, and calls only `#[inline]` helpers; the worker pool's
//! closures do nothing but call [`dispatch`].
//!
//! **Outputs are fields, not parameters**, so the compiler cannot rule
//! out that a kernel's output slice aliases its inputs. A body that
//! stores into its output between reads of an input may lose its
//! vectorization; the fused step's row block forms each new row in an
//! accumulator and copies it out once.
//!
//! [`dispatch`] allocates nothing: the feature test reads a flag the
//! standard library caches on first use.

/// A kernel body with its inputs and outputs: [`dispatch`] runs it in
/// the widest instance the CPU supports.
///
/// Implementations mark [`Kernel::run`] `#[inline(always)]`, so the
/// body is compiled into each instance rather than called from it.
pub trait Kernel {
    /// What the kernel returns (its outputs are written through the
    /// slices it holds).
    type Out;

    /// Runs the body: called directly, this is the baseline instance.
    fn run(self) -> Self::Out;
}

/// Runs `kernel` in its AVX2 instance when the CPU supports AVX2, else
/// in the baseline instance. Both compute the same bits (module docs).
#[inline]
pub fn dispatch<K: Kernel>(kernel: K) -> K::Out {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_avx2` requires AVX2, and the feature test above
        // has just found it on this CPU.
        return unsafe { run_avx2(kernel) };
    }
    kernel.run()
}

/// Whether [`dispatch`] runs the AVX2 instance on this CPU.
pub fn avx2_instance() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    false
}

/// The AVX2 instance: `kernel.run()` inlined into a function compiled
/// with AVX2 enabled.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
}
