//! Criterion benches for the rigorous substrate: the PEB
//! reaction–diffusion solve (the 147 s "S-Litho" column of the paper's
//! runtime comparison, at our scale), the implicit-vs-explicit ablation
//! called out in DESIGN.md §4, and the eikonal development solve.

use criterion::{criterion_group, criterion_main, Criterion};

use peb_litho::{
    solve_eikonal, solve_eikonal_fim, EikonalConfig, Grid, LithoFlow, MaskConfig, PebParams,
    PebSolver, TimeScheme,
};
use peb_tensor::Tensor;

fn bench_peb_solver(c: &mut Criterion) {
    let grid = Grid::new(32, 32, 8, 4.0, 4.0, 10.0).unwrap();
    let clip = MaskConfig::demo(grid.nx).generate(1).unwrap();
    let flow = LithoFlow::new(grid);
    let aerial = flow.optics.aerial_image(&grid, &clip).unwrap();
    let acid0 = flow.dill.photoacid(&aerial);

    let mut group = c.benchmark_group("rigorous_peb");
    group.sample_size(10);
    // Short bake so the bench suite stays fast; cost scales linearly in
    // steps, so the full-duration figure is 18× the 5 s number.
    let mut params = PebParams::paper();
    params.duration = 5.0;
    group.bench_function("implicit_lod_dt0.1", |b| {
        let solver = PebSolver::new(params, grid, TimeScheme::ImplicitLod).unwrap();
        b.iter(|| std::hint::black_box(solver.run(&acid0).unwrap()))
    });
    let mut explicit = params;
    explicit.dt = 0.015; // under the stability limit for this grid
    group.bench_function("explicit_euler_dt0.015", |b| {
        let solver = PebSolver::new(explicit, grid, TimeScheme::ExplicitEuler).unwrap();
        b.iter(|| std::hint::black_box(solver.run(&acid0).unwrap()))
    });
    group.finish();
}

fn bench_eikonal(c: &mut Criterion) {
    let grid = Grid::new(32, 32, 8, 4.0, 4.0, 10.0).unwrap();
    let rate = Tensor::from_fn(&grid.shape3(), |i| 0.01 + (i % 97) as f32 * 0.4);
    let mut group = c.benchmark_group("eikonal");
    group.sample_size(10);
    group.bench_function("fast_sweeping_32x32x8", |b| {
        b.iter(|| {
            std::hint::black_box(solve_eikonal(&grid, &rate, EikonalConfig::default()).unwrap())
        })
    });
    group.bench_function("fast_iterative_32x32x8", |b| {
        b.iter(|| {
            std::hint::black_box(solve_eikonal_fim(&grid, &rate, EikonalConfig::default()).unwrap())
        })
    });
    // The sweeper skips updates whose stencil did not change, so its cost
    // depends on the field: also time the Mack rate of a baked clip.
    let clip = MaskConfig::demo(grid.nx).generate(1).unwrap();
    let mut flow = LithoFlow::new(grid);
    flow.peb.duration = 5.0;
    let mack_rate = flow.run(&clip).unwrap().rate;
    group.bench_function("fast_sweeping_mack_32x32x8", |b| {
        b.iter(|| std::hint::black_box(solve_eikonal(&grid, &mack_rate, flow.eikonal).unwrap()))
    });
    group.finish();
}

fn bench_full_flow(c: &mut Criterion) {
    let grid = Grid::new(32, 32, 8, 4.0, 4.0, 10.0).unwrap();
    let clip = MaskConfig::demo(grid.nx).generate(2).unwrap();
    let mut flow = LithoFlow::new(grid);
    flow.peb.duration = 5.0;
    let mut group = c.benchmark_group("full_rigorous_flow");
    group.sample_size(10);
    group.bench_function("mask_to_cd_32x32x8", |b| {
        b.iter(|| std::hint::black_box(flow.run(&clip).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_peb_solver, bench_eikonal, bench_full_flow);
criterion_main!(benches);
