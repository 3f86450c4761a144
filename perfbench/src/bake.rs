//! `rigorous-bake`: seeded contact clips through the rigorous flow
//! (aerial image → photoacid → PEB bake → develop + CD metrology) on a
//! 128×128×32 grid. No model layer runs; the three species fields
//! exceed a 2 MiB L2, so depth-slab tiling engages.

use std::time::Instant;

use peb_litho::{
    measure_contact_cds, solve_eikonal, Grid, LithoFlow, MaskClip, MaskConfig, PebSolver,
};
use peb_tensor::Tensor;

use crate::layers::{self, Obs};
use crate::spans::Spans;
use crate::summary::{median, Outcome, Tally};
use crate::{sys, Metric, Report, RunArgs, Window};

/// Distinct clips per run, cycled through the measured window.
const CLIPS: usize = 4;
/// The seed whose first clip has a recorded reference.
pub const REFERENCE_SEED: u64 = 1;
/// Recorded reference for clip 0 of [`REFERENCE_SEED`]: mean inhibitor
/// and the bottom-layer CD (x, y) of each contact, in nm.
const REF_MEAN_INHIBITOR: f64 = 0.723015540;
const REF_CDS_NM: &[(f32, f32)] = &[
    (72.102005, 68.160675),
    (64.045425, 76.55274),
    (60.106323, 60.034546),
    (72.034515, 60.788918),
    (60.075176, 64.03317),
    (64.21222, 72.034515),
    (64.031006, 68.03433),
    (72.034515, 72.034515),
    (73.274536, 68.102295),
    (76.03447, 80.03894),
    (76.034485, 72.034546),
    (64.034424, 68.43292),
    (76.034546, 72.028015),
    (76.37439, 72.05142),
];
/// Reference tolerances: relative on the mean inhibitor, absolute on CDs.
const REF_MEAN_TOL: f64 = 1e-4;
const REF_CD_TOL_NM: f32 = 0.5;

/// 128×128×32 at 4 nm/px over 100 nm of resist.
pub fn grid() -> Grid {
    Grid::new(128, 128, 32, 4.0, 4.0, 100.0 / 32.0).expect("valid grid")
}

/// Table I parameters and Δt, with the bake shortened to 30 s (300 steps).
pub fn flow(grid: Grid) -> LithoFlow {
    let mut f = LithoFlow::new(grid);
    f.peb.duration = 30.0;
    f
}

/// Seeded 28 nm-class contact clips for `grid`.
pub fn clips(grid: &Grid, seed: u64, n: usize) -> Result<Vec<MaskClip>, String> {
    let cfg = MaskConfig::demo(grid.nx);
    (0..n as u64)
        .map(|i| cfg.generate(seed.wrapping_mul(1000).wrapping_add(i)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

/// Physical checks on one rigorous result: inhibitor finite and in
/// [0, 1], every contact with a finite CD.
pub fn check_simulation(inhibitor: &Tensor, cds: &[peb_litho::ContactCd]) -> Result<(), String> {
    if let Some(v) = inhibitor
        .data()
        .iter()
        .find(|v| !v.is_finite() || **v < 0.0 || **v > 1.0 + 1e-5)
    {
        return Err(format!("inhibitor value {v} outside [0, 1]"));
    }
    if cds.is_empty() {
        return Err("no contact measured".into());
    }
    if let Some(c) = cds
        .iter()
        .find(|c| !c.cd_x_nm.is_finite() || !c.cd_y_nm.is_finite())
    {
        return Err(format!("contact at {:?} has a non-finite CD", c.centre));
    }
    Ok(())
}

fn check_reference(sim_inhibitor: &Tensor, cds: &[peb_litho::ContactCd]) -> Result<(), String> {
    let mean = sim_inhibitor.data().iter().map(|&v| v as f64).sum::<f64>()
        / sim_inhibitor.data().len() as f64;
    let got: Vec<(f32, f32)> = cds.iter().map(|c| (c.cd_x_nm, c.cd_y_nm)).collect();
    if ((mean - REF_MEAN_INHIBITOR) / REF_MEAN_INHIBITOR).abs() > REF_MEAN_TOL {
        return Err(format!(
            "mean inhibitor {mean} differs from the reference {REF_MEAN_INHIBITOR}"
        ));
    }
    if got.len() != REF_CDS_NM.len() {
        return Err(format!(
            "{} contacts measured, reference has {}",
            got.len(),
            REF_CDS_NM.len()
        ));
    }
    for (i, (g, r)) in got.iter().zip(REF_CDS_NM).enumerate() {
        if (g.0 - r.0).abs() > REF_CD_TOL_NM || (g.1 - r.1).abs() > REF_CD_TOL_NM {
            return Err(format!("contact {i}: CD {g:?} nm, reference {r:?} nm"));
        }
    }
    Ok(())
}

/// Everything the measured window needs, built once per set-up.
struct Setup {
    flow: LithoFlow,
    clips: Vec<MaskClip>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let grid = grid();
    let flow = flow(grid);
    let clips = clips(&grid, seed, CLIPS)?;
    // Warm-up: FFT plans, pooled buffers and worker threads at this
    // grid, with a 10-step bake so set-up stays short.
    let mut warm = flow.clone();
    warm.peb.duration = 1.0;
    let sim = warm.run(&clips[0]).map_err(|e| e.to_string())?;
    check_simulation(&sim.inhibitor, &sim.cds)?;
    Ok(Setup { flow, clips })
}

/// Checks one clip's result; the reference applies to clip 0 of the
/// reference seed.
fn check(
    args: &RunArgs,
    index: usize,
    inhibitor: &Tensor,
    cds: &[peb_litho::ContactCd],
) -> Result<(), String> {
    check_simulation(inhibitor, cds)?;
    if args.seed == REFERENCE_SEED && index.is_multiple_of(CLIPS) {
        check_reference(inhibitor, cds)?;
    }
    Ok(())
}

/// Runs clips through `flow.run` for `seconds` (at least one clip).
fn untraced_window(args: &RunArgs, s: &Setup, seconds: f64) -> (Tally, Vec<f64>, f64) {
    let mut tally = Tally::default();
    let mut cpu_ms = Vec::new();
    let t_start = Instant::now();
    let mut i = 0;
    while i == 0 || t_start.elapsed().as_secs_f64() < seconds {
        let clip = &s.clips[i % CLIPS];
        let (t0, c0) = (Instant::now(), sys::cpu_time());
        let result = s.flow.run(clip);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        cpu_ms.push((sys::cpu_time() - c0).as_secs_f64() * 1e3);
        match result
            .map_err(|e| e.to_string())
            .and_then(|sim| check(args, i, &sim.inhibitor, &sim.cds))
        {
            Ok(()) => tally.record(Outcome::Ok, ms),
            Err(e) => {
                tally.note(format!("clip {i}: {e}"));
                tally.record(Outcome::BadOutput, ms);
            }
        }
        i += 1;
    }
    (tally, cpu_ms, t_start.elapsed().as_secs_f64())
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    peb_obs::set_mode(peb_obs::TraceMode::Off);
    let (s, setup_s) = crate::repeat_setup(args.seed, setup)?;
    if args.trace {
        return traced(args, &s);
    }
    let (tally, cpu_ms, busy_s) = untraced_window(args, &s, args.seconds);
    let window = Window {
        setup_s,
        tally,
        cpu_ms,
        busy_s,
        peak_rss_mb: sys::peak_rss_mb("self").unwrap_or(0.0),
    };
    Ok(window.into_report(&[
        ("bake_clip_ms", "op_p50_ms"),
        ("bake_cpu_ms", "op_cpu_ms"),
        ("setup_s", "setup_s"),
        ("peak_rss_mb", "peak_rss_mb"),
    ]))
}

/// The staged flow of one clip with a span around every litho call.
pub fn staged_clip(
    flow: &LithoFlow,
    clip: &MaskClip,
    spans: &Spans,
) -> Result<(Tensor, Vec<peb_litho::ContactCd>), String> {
    let e = |e: peb_litho::LithoError| e.to_string();
    let flow_span = spans.open("litho.flow", None, None);
    let parent = Some(flow_span);
    let aerial = spans.time("litho.aerial", parent, || {
        flow.optics.aerial_image(&flow.grid, clip)
    });
    let aerial = aerial.map_err(e)?;
    let acid0 = spans.time("litho.photoacid", parent, || flow.dill.photoacid(&aerial));
    let solver = spans.time("litho.solver_new", parent, || {
        PebSolver::new(flow.peb, flow.grid, flow.scheme)
    });
    let solver = solver.map_err(e)?;
    let state = spans.time("litho.peb_run", parent, || solver.run(&acid0));
    let state = state.map_err(e)?;
    let rate = spans.time("litho.rate_field", parent, || {
        flow.mack.rate_field(&state.inhibitor)
    });
    let arrival = spans.time("litho.eikonal", parent, || {
        solve_eikonal(&flow.grid, &rate, flow.eikonal)
    });
    let arrival = arrival.map_err(e)?;
    let cds = spans.time("litho.metrology", parent, || {
        measure_contact_cds(
            &flow.grid,
            &arrival,
            flow.mack.duration,
            &clip.contacts,
            flow.cd_layer,
        )
    });
    spans.close(flow_span);
    Ok((state.inhibitor, cds.map_err(e)?))
}

fn traced(args: &RunArgs, s: &Setup) -> Result<Report, String> {
    // Untraced half, then the same clips with tracing on.
    let (mut tally, _, _) = untraced_window(args, s, args.seconds / 2.0);
    let untraced_s = median(&tally.latency_ms) / 1e3;
    let spans = Spans::default();
    let obs = Obs::start();
    let (wall0, cpu0) = (Instant::now(), sys::cpu_time());
    let mut i = 0;
    while i == 0 || wall0.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let t0 = Instant::now();
        let r = staged_clip(&s.flow, &s.clips[i % CLIPS], &spans)
            .and_then(|(inh, cds)| check(args, i, &inh, &cds));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(()) => tally.record(Outcome::Ok, ms),
            Err(e) => {
                tally.note(format!("traced clip {i}: {e}"));
                tally.record(Outcome::BadOutput, ms);
            }
        }
        i += 1;
    }
    let (wall, cpu) = (
        wall0.elapsed().as_secs_f64(),
        (sys::cpu_time() - cpu0).as_secs_f64(),
    );
    let profile = obs.finish();
    let mut metrics = layers::litho_metrics(&spans, &profile, i as f64, untraced_s);
    let traced_s = median(&spans.durations("litho.flow"));
    metrics.extend(layers::cross_cutting(&profile, i as f64, cpu, wall));
    metrics.push(Metric::new(
        "trace.overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        "ratio",
    ));
    // Layers off this workload's path, measured by their probes.
    let pair = crate::surrogate::labelled(args.seed, 1)?.remove(0);
    metrics.extend(layers::model_probe(args.seed, &pair, &spans));
    metrics.extend(crate::fleet::serve_probe(args, &spans, &mut tally)?);
    layers::write_spans(args, &spans)?;
    Ok(Report {
        tally,
        metrics,
        lines: vec![format!(
            "traced {i} clips; untraced clip {untraced_s:.3} s, traced {traced_s:.3} s"
        )],
    })
}
