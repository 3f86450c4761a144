//! Bitwise identity of the change-driven fast sweeper against the
//! plain sweeper that visits every cell on every sweep.
//!
//! `reference_solve_eikonal` below is the plain fast-sweeping solver kept
//! verbatim as an oracle: 8 Gauss–Seidel sweep orderings per round, a
//! Godunov update at every cell. `solve_eikonal` skips the updates whose
//! stencil did not change since the cell's last update; every bit of the
//! arrival field must match.

use proptest::prelude::*;

use peb_litho::{solve_eikonal, EikonalConfig, Grid, LithoError, LithoFlow, MaskConfig, Result};
use peb_tensor::Tensor;

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i}: {g} vs {w}");
    }
}

/// Log-uniform rates in 1e-3..1e2 nm/s from exponents in -3..2, with an
/// optional slow slab: layer `z` at 1e-3 nm/s except one fast hole.
fn rate_field(grid: &Grid, exps: &[f32], slab: Option<(usize, usize, usize)>) -> Tensor {
    let mut rate = Tensor::from_fn(&grid.shape3(), |i| 10f32.powf(exps[i % exps.len()]));
    if let Some((z, hy, hx)) = slab {
        let z = z % grid.nz;
        for y in 0..grid.ny {
            for x in 0..grid.nx {
                if (y, x) != (hy % grid.ny, hx % grid.nx) {
                    rate.set(&[z, y, x], 1e-3);
                }
            }
        }
    }
    rate
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn change_driven_sweep_matches_full_sweep(
        // 0: any D×H×W; 1: a 1×1×n row; 2: an n×1×1 column.
        layout in 0usize..3,
        n0 in 1usize..=9,
        n1 in 1usize..=9,
        n2 in 1usize..=9,
        dx in 0.5f32..20.0,
        dy in 0.5f32..20.0,
        dz in 0.5f32..20.0,
        exps in prop::collection::vec(-3f32..2.0, 1..64),
        slab in 0usize..2,
        slab_at in prop::collection::vec(0usize..9, 3),
        rounds_pick in 0usize..3,
        tol_pick in 0usize..2,
    ) {
        let (nz, ny, nx) = match layout {
            0 => (n0, n1, n2),
            1 => (1, 1, n0),
            _ => (n0, 1, 1),
        };
        // Built directly: the eikonal does not need the FFT's power-of-two
        // lateral extents that `Grid::new` enforces.
        let grid = Grid { nx, ny, nz, dx, dy, dz };
        let slab = (slab == 1).then(|| (slab_at[0], slab_at[1], slab_at[2]));
        let rate = rate_field(&grid, &exps, slab);
        let cfg = EikonalConfig {
            tol: [0.0, 1e-4][tol_pick],
            max_rounds: [1, 2, 12][rounds_pick],
        };
        let want = reference_solve_eikonal(&grid, &rate, cfg).unwrap();
        let got = solve_eikonal(&grid, &rate, cfg).unwrap();
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "cell {} of {:?}: {} vs {}", i, grid, g, w);
        }
    }
}

#[test]
fn change_driven_sweep_matches_full_sweep_on_a_flow_clip() {
    // The Mack rate of a baked contact clip: the field the develop step
    // of the rigorous flow actually sees.
    let grid = Grid::small();
    let clip = MaskConfig::demo(grid.nx).generate(7).unwrap();
    let mut flow = LithoFlow::new(grid);
    flow.peb.duration = 30.0; // shorten for test runtime
    let sim = flow.run(&clip).unwrap();
    let want = reference_solve_eikonal(&grid, &sim.rate, flow.eikonal).unwrap();
    assert_bits_eq(&sim.arrival, &want, "flow arrival");
    let again = solve_eikonal(&grid, &sim.rate, flow.eikonal).unwrap();
    assert_bits_eq(&again, &want, "repeat solve");
}

// ---------------------------------------------------------------------------
// Oracle: the plain fast-sweeping solver, verbatim.
// ---------------------------------------------------------------------------

fn reference_solve_eikonal(grid: &Grid, rate: &Tensor, cfg: EikonalConfig) -> Result<Tensor> {
    if rate.shape() != grid.shape3() {
        return Err(LithoError::Config {
            detail: format!(
                "rate shape {:?} does not match grid {:?}",
                rate.shape(),
                grid.shape3()
            ),
        });
    }
    if rate.min_value() <= 0.0 {
        return Err(LithoError::Config {
            detail: "development rate must be strictly positive".into(),
        });
    }
    let (nz, ny, nx) = (grid.nz, grid.ny, grid.nx);
    let (hx, hy, hz) = (grid.dx, grid.dy, grid.dz);
    let mut s = Tensor::full(&grid.shape3(), f32::INFINITY);
    {
        let sd = s.data_mut();
        let rd = rate.data();
        for y in 0..ny {
            for x in 0..nx {
                let idx = y * nx + x;
                sd[idx] = 0.5 * hz / rd[idx];
            }
        }
    }
    let rd = rate.data().to_vec();
    let at = |z: usize, y: usize, x: usize| (z * ny + y) * nx + x;
    let _span = peb_obs::span("litho.eikonal");
    let mut rounds = 0usize;
    loop {
        let mut max_change = 0f32;
        // The 8 sweep orderings of (z, y, x).
        peb_obs::count(peb_obs::Counter::EikonalSweeps, 8);
        for dir in 0..8u8 {
            let zs: Box<dyn Iterator<Item = usize>> = if dir & 1 == 0 {
                Box::new(0..nz)
            } else {
                Box::new((0..nz).rev())
            };
            for z in zs {
                let ys: Box<dyn Iterator<Item = usize>> = if dir & 2 == 0 {
                    Box::new(0..ny)
                } else {
                    Box::new((0..ny).rev())
                };
                for y in ys {
                    let xs: Box<dyn Iterator<Item = usize>> = if dir & 4 == 0 {
                        Box::new(0..nx)
                    } else {
                        Box::new((0..nx).rev())
                    };
                    for x in xs {
                        let sd = s.data();
                        let ax = neighbour_min(sd, x, nx, |i| at(z, y, i));
                        let ay = neighbour_min(sd, y, ny, |j| at(z, j, x));
                        // z: only the voxel above feeds the front downward
                        // at z=0 (the surface is the source); both
                        // neighbours elsewhere.
                        let az = if z == 0 {
                            if nz > 1 {
                                sd[at(1, y, x)]
                            } else {
                                f32::INFINITY
                            }
                        } else if z + 1 == nz {
                            sd[at(z - 1, y, x)]
                        } else {
                            sd[at(z - 1, y, x)].min(sd[at(z + 1, y, x)])
                        };
                        let slowness = 1.0 / rd[at(z, y, x)];
                        let u = godunov_update(&[(ax, hx), (ay, hy), (az, hz)], slowness);
                        let idx = at(z, y, x);
                        let cur = s.data()[idx];
                        if u < cur {
                            max_change = max_change.max(cur - u);
                            s.data_mut()[idx] = u;
                        }
                    }
                }
            }
        }
        rounds += 1;
        if max_change < cfg.tol || rounds >= cfg.max_rounds {
            break;
        }
    }
    Ok(s)
}

fn neighbour_min(sd: &[f32], i: usize, n: usize, at: impl Fn(usize) -> usize) -> f32 {
    let lo = if i > 0 { sd[at(i - 1)] } else { f32::INFINITY };
    let hi = if i + 1 < n {
        sd[at(i + 1)]
    } else {
        f32::INFINITY
    };
    lo.min(hi)
}

/// Godunov upwind solve of `Σ ((u − aᵢ)/hᵢ)₊² = s²` for `u`, adding axes
/// in order of increasing neighbour value.
fn godunov_update(axes: &[(f32, f32); 3], slowness: f32) -> f32 {
    let mut sorted: Vec<(f32, f32)> = axes
        .iter()
        .copied()
        .filter(|(a, _)| a.is_finite())
        .collect();
    if sorted.is_empty() {
        return f32::INFINITY;
    }
    sorted.sort_by(|l, r| l.0.total_cmp(&r.0));
    // Try with 1, then 2, then 3 active axes.
    let mut u = sorted[0].0 + slowness * sorted[0].1;
    for m in 2..=sorted.len() {
        if u <= sorted[m - 1].0 {
            break;
        }
        // Solve Σ_{i<m} ((u − aᵢ)/hᵢ)² = s².
        let mut alpha = 0f64; // Σ 1/hᵢ²
        let mut beta = 0f64; // Σ aᵢ/hᵢ²
        let mut gamma = 0f64; // Σ aᵢ²/hᵢ²
        for &(a, h) in &sorted[..m] {
            let w = 1.0 / (h as f64 * h as f64);
            alpha += w;
            beta += a as f64 * w;
            gamma += (a as f64) * (a as f64) * w;
        }
        let s2 = (slowness as f64) * (slowness as f64);
        let disc = beta * beta - alpha * (gamma - s2);
        if disc < 0.0 {
            break;
        }
        u = ((beta + disc.sqrt()) / alpha) as f32;
    }
    u
}
