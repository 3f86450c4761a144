//! Vectorized Strang reaction half-step of the rigorous PEB solver.
//!
//! Every cell of the resist evolves independently over one half-step
//! `dt`: the acid–base pair under `Ȧ = Ḃ = −kr·A·B` by one RK4 step
//! ([`rk4_neutralise`]), both clamped at zero, then the inhibitor by the
//! exact update `I ← I · exp(−kc · Ā · dt)` with `Ā` the mean of the acid
//! before and after.
//!
//! The kernel runs eight cells per vector in the scalar expression order
//! with IEEE-exact lane operations (no FMA), clamps with [`Simd8::max`],
//! and evaluates the exponential with libm `f32::exp` lane by lane, so
//! the SIMD path is **bitwise identical** to the scalar path and to the
//! per-cell reference `rk4_neutralise` + `max(0.0)` + `exp`. Cells are
//! processed in blocks of 64; a ragged last block runs zero-padded
//! through the same code.

use crate::{simd_active, ScalarX8, Simd8};

/// Rate constants and step of one reaction half-step.
#[derive(Debug, Clone, Copy)]
pub struct ReactionParams {
    /// Acid–base neutralisation rate `kr`.
    pub kr: f32,
    /// Catalytic deprotection rate `kc`.
    pub kc: f32,
    /// Half-step length.
    pub dt: f32,
}

/// RK4 integration of the neutralisation pair over `dt` — the scalar
/// reference the kernel reproduces lane by lane.
///
/// `A − B` is conserved by the exact dynamics; RK4 preserves it to
/// round-off because both derivatives are identical.
pub fn rk4_neutralise(a: f32, b: f32, kr: f32, dt: f32) -> (f32, f32) {
    let f = |a: f32, b: f32| -kr * a * b;
    let k1 = f(a, b);
    let k2 = f(a + 0.5 * dt * k1, b + 0.5 * dt * k1);
    let k3 = f(a + 0.5 * dt * k2, b + 0.5 * dt * k2);
    let k4 = f(a + dt * k3, b + dt * k3);
    let delta = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    (a + delta, b + delta)
}

/// Applies one reaction half-step to every cell of the three equally
/// long fields, in place.
pub fn half_step(acid: &mut [f32], base: &mut [f32], inhibitor: &mut [f32], p: ReactionParams) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
        unsafe { half_step_avx2(acid, base, inhibitor, p) };
        return;
    }
    half_step_generic::<ScalarX8>(acid, base, inhibitor, p)
}

/// Forced scalar-backend variant of [`half_step`].
pub fn half_step_scalar(
    acid: &mut [f32],
    base: &mut [f32],
    inhibitor: &mut [f32],
    p: ReactionParams,
) {
    half_step_generic::<ScalarX8>(acid, base, inhibitor, p)
}

/// Forced SIMD-backend variant of [`half_step`]; returns `false` (no-op)
/// without AVX2+FMA.
pub fn half_step_simd(
    acid: &mut [f32],
    base: &mut [f32],
    inhibitor: &mut [f32],
    p: ReactionParams,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::detected() {
        // SAFETY: guarded by `detected()`.
        unsafe { half_step_avx2(acid, base, inhibitor, p) };
        return true;
    }
    let _ = (acid, base, inhibitor, p);
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn half_step_avx2(
    acid: &mut [f32],
    base: &mut [f32],
    inhibitor: &mut [f32],
    p: ReactionParams,
) {
    half_step_generic::<crate::AvxX8>(acid, base, inhibitor, p)
}

/// The half-step's splatted constants. Each holds exactly the scalar
/// subexpression it replaces (`-kr`, `0.5 * dt`, `dt / 6.0`, …),
/// evaluated once in f32.
#[derive(Clone, Copy)]
struct Consts<V> {
    neg_kr: V,
    neg_kc: V,
    dt: V,
    half_dt: V,
    sixth_dt: V,
    half: V,
    two: V,
    zero: V,
}

#[inline(always)]
fn half_step_generic<V: Simd8>(
    acid: &mut [f32],
    base: &mut [f32],
    inhibitor: &mut [f32],
    p: ReactionParams,
) {
    let n = acid.len();
    assert!(
        base.len() == n && inhibitor.len() == n,
        "field lengths differ"
    );
    let c = Consts {
        neg_kr: V::splat(-p.kr),
        neg_kc: V::splat(-p.kc),
        dt: V::splat(p.dt),
        half_dt: V::splat(0.5 * p.dt),
        sixth_dt: V::splat(p.dt / 6.0),
        half: V::splat(0.5),
        two: V::splat(2.0),
        zero: V::zero(),
    };
    for ((a, b), i) in acid
        .chunks_mut(BLOCK)
        .zip(base.chunks_mut(BLOCK))
        .zip(inhibitor.chunks_mut(BLOCK))
    {
        if a.len() == BLOCK {
            block(a, b, i, c);
            continue;
        }
        // Ragged last block: run it zero-padded through the same code.
        let m = a.len();
        let (mut pa, mut pb, mut pi) = ([0f32; BLOCK], [0f32; BLOCK], [0f32; BLOCK]);
        pa[..m].copy_from_slice(a);
        pb[..m].copy_from_slice(b);
        pi[..m].copy_from_slice(i);
        block(&mut pa, &mut pb, &mut pi, c);
        a.copy_from_slice(&pa[..m]);
        b.copy_from_slice(&pb[..m]);
        i.copy_from_slice(&pi[..m]);
    }
}

/// Cells per block: the lane arithmetic of a block runs first, then one
/// tight loop of libm `exp` calls over the block's arguments (no vector
/// state is live across the calls), then the inhibitor update.
const BLOCK: usize = 64;

/// One block of the half-step, in the scalar expression order. A plain
/// `fn` (not a closure) so it inlines into the `target_feature` wrapper
/// together with the AVX lane ops.
#[inline(always)]
fn block<V: Simd8>(acid: &mut [f32], base: &mut [f32], inhibitor: &mut [f32], c: Consts<V>) {
    let f = |a: V, b: V| c.neg_kr.mul(a).mul(b);
    let mut decay = [0f32; BLOCK];
    for ((a, b), e) in acid
        .chunks_exact_mut(8)
        .zip(base.chunks_exact_mut(8))
        .zip(decay.chunks_exact_mut(8))
    {
        let (a0, b0) = (V::load(a), V::load(b));
        let k1 = f(a0, b0);
        let k2 = f(a0.add(c.half_dt.mul(k1)), b0.add(c.half_dt.mul(k1)));
        let k3 = f(a0.add(c.half_dt.mul(k2)), b0.add(c.half_dt.mul(k2)));
        let k4 = f(a0.add(c.dt.mul(k3)), b0.add(c.dt.mul(k3)));
        let delta = c
            .sixth_dt
            .mul(k1.add(c.two.mul(k2)).add(c.two.mul(k3)).add(k4));
        let a1 = a0.add(delta).max(c.zero);
        let b1 = b0.add(delta).max(c.zero);
        a1.store(a);
        b1.store(b);
        let mean_a = c.half.mul(a0.add(a1));
        c.neg_kc.mul(mean_a).mul(c.dt).store(e);
    }
    for e in &mut decay {
        *e = e.exp();
    }
    for (i, e) in inhibitor.chunks_exact_mut(8).zip(decay.chunks_exact(8)) {
        V::load(i).mul(V::load(e)).store(i);
    }
}
