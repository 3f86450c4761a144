//! `surrogate-train` and `surrogate-predict`: the SDM-PEB surrogate at
//! 64×64×16 (`SdmPebConfig::for_grid`, four encoder stages).
//!
//! Training takes Adam steps over a fixed set of seeded clips whose
//! labels the rigorous flow makes during set-up; prediction runs
//! `predict` on held-out clips. Litho runs only in set-up, and tiling
//! stays off because the fields fit in cache.

use std::time::Instant;

use peb_litho::Grid;
use peb_nn::{Adam, Optimizer, Parameterized};
use peb_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{LabelTransform, PebLoss, PebPredictor, SdmPeb, SdmPebConfig};

use crate::layers::{self, Obs};
use crate::spans::Spans;
use crate::summary::{median, Outcome, Tally};
use crate::{bake, sys, Metric, Report, RunArgs, Window};

/// Labelled training clips (cycled by the training steps).
const TRAIN_CLIPS: usize = 2;
/// Held-out clips for `predict`.
const PREDICT_CLIPS: usize = 4;
const LEARNING_RATE: f32 = 5e-3;
/// Recorded loss trajectory of [`bake::REFERENCE_SEED`]: the losses of
/// the first measured training steps, and the relative tolerance.
const REF_LOSSES: &[f32] = &[
    2872790.8, 7388796.0, 29532906.0, 6614073.5, 2004398.5, 6518073.5, 2123184.3, 4266333.5,
    2068564.1, 3014249.0, 1856517.4, 2557446.5,
];
const REF_LOSS_TOL: f32 = 1e-3;
/// Recorded mean of the first held-out prediction of the reference seed.
const REF_PREDICT_MEAN: f64 = -0.34624692059869666;
const REF_PREDICT_TOL: f64 = 1e-4;

/// 64×64×16 at 4 nm/px over 100 nm of resist.
pub fn grid() -> Grid {
    Grid::new(64, 64, 16, 4.0, 4.0, 100.0 / 16.0).expect("valid grid")
}

pub fn model_config() -> SdmPebConfig {
    let g = grid();
    SdmPebConfig::for_grid((g.nz, g.ny, g.nx))
}

pub fn optimizer() -> Adam {
    Adam::new(LEARNING_RATE)
}

/// (photoacid, label) pairs made by the rigorous flow.
pub fn labelled(seed: u64, n: usize) -> Result<Vec<(Tensor, Tensor)>, String> {
    let g = grid();
    let flow = bake::flow(g);
    let label = LabelTransform::paper();
    bake::clips(&g, seed, n)?
        .iter()
        .map(|clip| {
            let sim = flow.run(clip).map_err(|e| e.to_string())?;
            bake::check_simulation(&sim.inhibitor, &sim.cds)?;
            Ok((sim.acid0, label.encode(&sim.inhibitor)))
        })
        .collect()
}

/// Held-out photoacid clips (exposure only; no bake is needed to
/// predict). Seeds are offset past the training clips.
fn held_out(seed: u64) -> Result<Vec<Tensor>, String> {
    let g = grid();
    let flow = bake::flow(g);
    bake::clips(&g, seed.wrapping_add(7919), PREDICT_CLIPS)?
        .iter()
        .map(|clip| {
            let aerial = flow
                .optics
                .aerial_image(&g, clip)
                .map_err(|e| e.to_string())?;
            Ok(flow.dill.photoacid(&aerial))
        })
        .collect()
}

/// One Adam step on one clip: forward, loss, backward, update. With
/// `spans`, each phase is recorded. Returns the loss.
pub fn train_step(
    model: &SdmPeb,
    params: &[Var],
    opt: &mut Adam,
    acid: &Tensor,
    label: &Tensor,
    spans: Option<&Spans>,
) -> f32 {
    let time = |name: &str, f: &mut dyn FnMut()| match spans {
        Some(s) => {
            s.time(name, None, f);
        }
        None => f(),
    };
    let mut pred = None;
    time("train.forward", &mut || {
        pred = Some(model.forward_train(acid))
    });
    let pred = pred.expect("forward ran");
    let mut loss = None;
    time("train.loss", &mut || {
        loss = Some(PebLoss::paper().combined(&pred, label))
    });
    let loss = loss.expect("loss ran");
    let value = loss.value().item();
    time("train.backward", &mut || loss.backward());
    time("train.adam", &mut || {
        opt.step(params);
        opt.zero_grad(params);
    });
    value
}

struct TrainSetup {
    model: SdmPeb,
    params: Vec<Var>,
    opt: Adam,
    data: Vec<(Tensor, Tensor)>,
}

fn train_setup(seed: u64) -> Result<TrainSetup, String> {
    let data = labelled(seed, TRAIN_CLIPS)?;
    let model = SdmPeb::new(model_config(), &mut StdRng::seed_from_u64(seed));
    let params = model.parameters();
    let mut opt = optimizer();
    // Warm-up step: pooled buffers, optimiser moments, worker threads.
    let loss = train_step(&model, &params, &mut opt, &data[0].0, &data[0].1, None);
    if !loss.is_finite() {
        return Err(format!("warm-up loss {loss} is not finite"));
    }
    Ok(TrainSetup {
        model,
        params,
        opt,
        data,
    })
}

/// Training steps for `seconds` (at least one); checks each loss.
fn train_window(
    args: &RunArgs,
    s: &mut TrainSetup,
    seconds: f64,
    spans: Option<&Spans>,
    step0: usize,
) -> (Tally, Vec<f64>, f64, usize) {
    let mut tally = Tally::default();
    let mut cpu_ms = Vec::new();
    let t_start = Instant::now();
    let mut i = 0;
    while i == 0 || t_start.elapsed().as_secs_f64() < seconds {
        let (acid, label) = &s.data[(step0 + i) % s.data.len()];
        let (t0, c0) = (Instant::now(), sys::cpu_time());
        let loss = train_step(&s.model, &s.params, &mut s.opt, acid, label, spans);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        cpu_ms.push((sys::cpu_time() - c0).as_secs_f64() * 1e3);
        let step = step0 + i;
        let check = if !loss.is_finite() {
            Err(format!("step {step}: loss {loss} is not finite"))
        } else if args.seed == bake::REFERENCE_SEED && step < REF_LOSSES.len() {
            let r = REF_LOSSES[step];
            if ((loss - r) / r).abs() > REF_LOSS_TOL {
                Err(format!(
                    "step {step}: loss {loss} differs from the reference {r}"
                ))
            } else {
                Ok(())
            }
        } else {
            Ok(())
        };
        match check {
            Ok(()) => tally.record(Outcome::Ok, ms),
            Err(e) => {
                tally.note(e);
                tally.record(Outcome::BadOutput, ms);
            }
        }
        i += 1;
    }
    (tally, cpu_ms, t_start.elapsed().as_secs_f64(), i)
}

pub fn run_train(args: &RunArgs) -> Result<Report, String> {
    peb_obs::set_mode(peb_obs::TraceMode::Off);
    let (mut s, setup_s) = crate::repeat_setup(args.seed, train_setup)?;
    if args.trace {
        let (mut tally, _, _, n0) = train_window(args, &mut s, args.seconds / 2.0, None, 0);
        let untraced = median(&tally.latency_ms) / 1e3;
        let spans = Spans::default();
        let obs = Obs::start();
        let (wall0, cpu0) = (Instant::now(), sys::cpu_time());
        let (t, _, _, n1) = train_window(args, &mut s, args.seconds / 2.0, Some(&spans), n0);
        let (wall, cpu) = (
            wall0.elapsed().as_secs_f64(),
            (sys::cpu_time() - cpu0).as_secs_f64(),
        );
        let profile = obs.finish();
        tally.merge(t);
        let traced = median(&spans.durations("train.forward"))
            + median(&spans.durations("train.loss"))
            + median(&spans.durations("train.backward"))
            + median(&spans.durations("train.adam"));
        let pair = s.data[0].clone();
        return traced_report(
            args, tally, &spans, &profile, n1, cpu, wall, untraced, traced, &pair,
        );
    }
    let (tally, cpu_ms, busy_s, _) = train_window(args, &mut s, args.seconds, None, 0);
    let window = Window {
        setup_s,
        tally,
        cpu_ms,
        busy_s,
        peak_rss_mb: sys::peak_rss_mb("self").unwrap_or(0.0),
    };
    Ok(window.into_report(&[
        ("train_step_ms", "op_p50_ms"),
        ("train_cpu_ms", "op_cpu_ms"),
        ("setup_s", "setup_s"),
        ("peak_rss_mb", "peak_rss_mb"),
    ]))
}

#[allow(clippy::too_many_arguments)]
fn traced_report(
    args: &RunArgs,
    mut tally: Tally,
    spans: &Spans,
    profile: &layers::Profile,
    ops: usize,
    cpu_s: f64,
    wall_s: f64,
    untraced_s: f64,
    traced_s: f64,
    pair: &(Tensor, Tensor),
) -> Result<Report, String> {
    let mut metrics = layers::cross_cutting(profile, ops as f64, cpu_s, wall_s);
    metrics.push(Metric::new(
        "trace.overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        "ratio",
    ));
    metrics.extend(layers::model_probe(args.seed, pair, spans));
    let (litho, _) = layers::litho_probe(args.seed, spans, &mut tally)?;
    metrics.extend(litho);
    metrics.extend(crate::fleet::serve_probe(args, spans, &mut tally)?);
    layers::write_spans(args, spans)?;
    Ok(Report {
        tally,
        metrics,
        lines: vec![format!(
            "traced {ops} ops; untraced op {untraced_s:.4} s, traced {traced_s:.4} s"
        )],
    })
}

struct PredictSetup {
    model: SdmPeb,
    clips: Vec<Tensor>,
    /// `bit_digest` of each clip's warm-up prediction: every later
    /// prediction must repeat it bit for bit.
    digests: Vec<u64>,
}

fn predict_setup(seed: u64) -> Result<PredictSetup, String> {
    let clips = held_out(seed)?;
    let model = SdmPeb::new(model_config(), &mut StdRng::seed_from_u64(seed));
    let digests = clips
        .iter()
        .map(|c| model.predict(c).bit_digest())
        .collect();
    Ok(PredictSetup {
        model,
        clips,
        digests,
    })
}

fn predict_window(
    args: &RunArgs,
    s: &PredictSetup,
    seconds: f64,
    spans: Option<&Spans>,
) -> (Tally, Vec<f64>, f64, usize) {
    let mut tally = Tally::default();
    let mut cpu_ms = Vec::new();
    let t_start = Instant::now();
    let mut i = 0;
    while i == 0 || t_start.elapsed().as_secs_f64() < seconds {
        let k = i % s.clips.len();
        let (t0, c0) = (Instant::now(), sys::cpu_time());
        let y = match spans {
            Some(sp) => sp.time("model.predict", None, || s.model.predict(&s.clips[k])),
            None => s.model.predict(&s.clips[k]),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        cpu_ms.push((sys::cpu_time() - c0).as_secs_f64() * 1e3);
        let mean = y.data().iter().map(|&v| v as f64).sum::<f64>() / y.data().len() as f64;
        let check = if y.data().iter().any(|v| !v.is_finite()) {
            Err(format!("prediction {i}: non-finite output"))
        } else if y.bit_digest() != s.digests[k] {
            Err(format!("prediction {i}: not bitwise repeatable"))
        } else if args.seed == bake::REFERENCE_SEED
            && k == 0
            && ((mean - REF_PREDICT_MEAN) / REF_PREDICT_MEAN).abs() > REF_PREDICT_TOL
        {
            Err(format!(
                "prediction mean {mean} differs from the reference {REF_PREDICT_MEAN}"
            ))
        } else {
            Ok(())
        };
        match check {
            Ok(()) => tally.record(Outcome::Ok, ms),
            Err(e) => {
                tally.note(e);
                tally.record(Outcome::BadOutput, ms);
            }
        }
        i += 1;
    }
    (tally, cpu_ms, t_start.elapsed().as_secs_f64(), i)
}

pub fn run_predict(args: &RunArgs) -> Result<Report, String> {
    peb_obs::set_mode(peb_obs::TraceMode::Off);
    let (s, setup_s) = crate::repeat_setup(args.seed, predict_setup)?;
    if args.trace {
        let (mut tally, _, _, _) = predict_window(args, &s, args.seconds / 2.0, None);
        let untraced = median(&tally.latency_ms) / 1e3;
        let spans = Spans::default();
        let obs = Obs::start();
        let (wall0, cpu0) = (Instant::now(), sys::cpu_time());
        let (t, _, _, n) = predict_window(args, &s, args.seconds / 2.0, Some(&spans));
        let (wall, cpu) = (
            wall0.elapsed().as_secs_f64(),
            (sys::cpu_time() - cpu0).as_secs_f64(),
        );
        let profile = obs.finish();
        tally.merge(t);
        let traced = median(&spans.durations("model.predict"));
        let pair = labelled(args.seed, 1)?.remove(0);
        return traced_report(
            args, tally, &spans, &profile, n, cpu, wall, untraced, traced, &pair,
        );
    }
    let (tally, cpu_ms, busy_s, _) = predict_window(args, &s, args.seconds, None);
    let window = Window {
        setup_s,
        tally,
        cpu_ms,
        busy_s,
        peak_rss_mb: sys::peak_rss_mb("self").unwrap_or(0.0),
    };
    Ok(window.into_report(&[
        ("predict_ms", "op_p50_ms"),
        ("predict_cpu_ms", "op_cpu_ms"),
        ("setup_s", "setup_s"),
        ("peak_rss_mb", "peak_rss_mb"),
    ]))
}
