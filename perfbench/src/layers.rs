//! Per-layer measurements for the traced run.
//!
//! Layer times come from the benchmark's own spans around calls into
//! each layer's public functions; kernel times and work counts come from
//! the existing `peb-obs` spans and counters, read with one snapshot
//! before and one after the traced section. The program gains no
//! instrumentation.
//!
//! Every traced run reports every layer. A layer on the workload's own
//! path is measured there; the others are measured by a probe: the model
//! layers at the surrogate's 64×64×16 configuration, the litho layers on
//! one 64×64×16 label clip, and the serving layers on a short-lived
//! two-worker fleet.

use std::collections::BTreeMap;
use std::time::Instant;

use peb_nn::{DwConv3d, Parameterized};
use peb_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{
    Decoder, EncoderStage, EncoderStageConfig, FeatureFusion, PebLoss, PebPredictor, SdmPeb,
};

use crate::spans::Spans;
use crate::summary::{median, Tally};
use crate::{bake, surrogate, Metric, RunArgs};

/// Repetitions of each isolated layer call.
const REPS: usize = 3;

/// `peb-obs` counter and span deltas over one traced section.
pub struct Profile {
    counters: BTreeMap<&'static str, u64>,
    /// Seconds per leaf span name (a path's last component), skipping
    /// paths where the leaf already encloses itself.
    leaf_s: BTreeMap<String, f64>,
}

impl Profile {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn leaf(&self, name: &str) -> f64 {
        self.leaf_s.get(name).copied().unwrap_or(0.0)
    }
}

/// A traced section: tracing on from [`Obs::start`] to [`Obs::finish`].
pub struct Obs {
    before: peb_obs::Profile,
}

impl Obs {
    pub fn start() -> Obs {
        peb_obs::set_mode(peb_obs::TraceMode::Summary);
        Obs {
            before: peb_obs::snapshot(),
        }
    }

    pub fn finish(self) -> Profile {
        let after = peb_obs::snapshot();
        peb_obs::set_mode(peb_obs::TraceMode::Off);
        let counters = after
            .counters
            .iter()
            .map(|c| (c.name, c.value - self.before.counter(c.name)))
            .collect();
        let before: BTreeMap<&str, u64> = self
            .before
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.stat.total_ns))
            .collect();
        let mut leaf_s = BTreeMap::new();
        for s in &after.spans {
            let parts: Vec<&str> = s.path.split('/').collect();
            let leaf = parts[parts.len() - 1];
            if parts[..parts.len() - 1].contains(&leaf) {
                continue;
            }
            let ns = s.stat.total_ns - before.get(s.path.as_str()).copied().unwrap_or(0);
            *leaf_s.entry(leaf.to_string()).or_insert(0.0) += ns as f64 * 1e-9;
        }
        Profile { counters, leaf_s }
    }
}

/// The litho stages the traced flow times, in flow order.
const LITHO_STAGES: [&str; 7] = [
    "aerial",
    "photoacid",
    "solver_new",
    "peb_run",
    "rate_field",
    "eikonal",
    "metrology",
];

/// Litho layer metrics from `clips` staged clips and the untraced clip
/// time they are attributed against.
pub fn litho_metrics(spans: &Spans, p: &Profile, clips: f64, untraced_clip_s: f64) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut attributed = 0.0;
    for stage in LITHO_STAGES {
        let t = median(&spans.durations(&format!("litho.{stage}")));
        attributed += t;
        m.push(Metric::new(format!("litho.{stage}_s"), t, "s"));
    }
    m.push(Metric::new(
        "litho.adi_axis_s",
        p.leaf("litho.adi_axis") / clips,
        "s",
    ));
    m.push(Metric::new(
        "litho.reaction_half_s",
        p.leaf("litho.reaction_half") / clips,
        "s",
    ));
    for (name, counter) in [
        ("litho.adi_tridiag_solves", "adi_tridiag_solves"),
        ("litho.slab_passes", "slab_passes"),
        ("litho.eikonal_sweeps", "eikonal_sweeps"),
    ] {
        m.push(Metric::new(name, p.counter(counter) / clips, "count"));
    }
    m.push(Metric::new(
        "fft.plan_hit_frac",
        p.counter("fft_plan_hits") / p.counter("fft_lines").max(1.0),
        "ratio",
    ));
    m.push(Metric::new(
        "litho.attributed_frac",
        attributed / untraced_clip_s,
        "ratio",
    ));
    m
}

/// Litho layers on one 64×64×16 label clip, plus the (photoacid,
/// label) pair that clip yields for the model probe.
pub fn litho_probe(
    seed: u64,
    spans: &Spans,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, (Tensor, Tensor)), String> {
    let grid = surrogate::grid();
    let flow = bake::flow(grid);
    let clip = bake::clips(&grid, seed, 1)?.remove(0);
    let t0 = Instant::now();
    let sim = flow.run(&clip).map_err(|e| e.to_string())?;
    let untraced = t0.elapsed().as_secs_f64();
    if let Err(e) = bake::check_simulation(&sim.inhibitor, &sim.cds) {
        tally.fail_check(format!("litho probe: {e}"));
    }
    let obs = Obs::start();
    let (inhibitor, cds) = bake::staged_clip(&flow, &clip, spans)?;
    let profile = obs.finish();
    if inhibitor.bit_digest() != sim.inhibitor.bit_digest() || cds != sim.cds {
        tally.fail_check("litho probe: staged flow differs from LithoFlow::run".into());
    }
    let pair = (
        sim.acid0,
        sdm_peb::LabelTransform::paper().encode(&sim.inhibitor),
    );
    Ok((litho_metrics(spans, &profile, 1.0, untraced), pair))
}

/// Pool hit rate, fresh allocations per operation and CPU utilisation.
pub fn cross_cutting(p: &Profile, ops: f64, cpu_s: f64, wall_s: f64) -> Vec<Metric> {
    let (hits, misses) = (p.counter("pool_hits"), p.counter("pool_misses"));
    vec![
        Metric::new("pool.hit_frac", hits / (hits + misses).max(1.0), "ratio"),
        Metric::new(
            "tensor.allocs_per_op",
            p.counter("tensor_allocs") / ops.max(1.0),
            "count",
        ),
        Metric::new(
            "par.cpu_util",
            cpu_s / (wall_s * peb_par::max_threads() as f64),
            "ratio",
        ),
    ]
}

/// Runs forward then backward from a fixed seed gradient, recording a
/// span for each; returns the output value.
fn fwd_bwd(spans: &Spans, name: &str, params: &[Var], f: impl FnOnce() -> Var) -> Tensor {
    let y = spans.time(&format!("{name}.fwd"), None, f);
    let seed = Tensor::full(&y.shape(), 1e-3);
    spans.time(&format!("{name}.bwd"), None, || y.backward_with(seed));
    params.iter().for_each(|p| p.zero_grad());
    y.value_clone()
}

/// The SDM-PEB layers, each built with its public constructor at the
/// shapes the 64×64×16 surrogate hands it, run forward on that input and
/// backward from a fixed scalar; plus Adam, the kernels under a full
/// training step, and how much of `predict` and of a training step the
/// layers account for.
pub fn model_probe(seed: u64, pair: &(Tensor, Tensor), spans: &Spans) -> Vec<Metric> {
    let (acid, label) = pair;
    let cfg = surrogate::model_config();
    let loss_fn = PebLoss::paper();

    // Whole-model parents, untraced: predict and a training step.
    let model = SdmPeb::new(cfg.clone(), &mut StdRng::seed_from_u64(seed));
    let params = model.parameters();
    let mut opt = surrogate::optimizer();
    let mut predict_s = Vec::new();
    let mut step_s = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(model.predict(acid));
        predict_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        surrogate::train_step(&model, &params, &mut opt, acid, label, None);
        step_s.push(t.elapsed().as_secs_f64());
    }
    // Kernels under traced training steps.
    let obs = Obs::start();
    for _ in 0..REPS {
        surrogate::train_step(&model, &params, &mut opt, acid, label, Some(spans));
    }
    let p = obs.finish();
    let steps = REPS as f64;
    let adam = median(&spans.durations("train.adam"));

    // Isolated layers, built in `SdmPeb::new`'s order.
    let (d, h, w) = cfg.input_dims;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.stage_channels.len();
    let stages: Vec<EncoderStage> = (0..n)
        .map(|i| {
            EncoderStage::new(
                EncoderStageConfig {
                    in_channels: if i == 0 { 1 } else { cfg.stage_channels[i - 1] },
                    out_channels: cfg.stage_channels[i],
                    patch_kernel: cfg.patch_kernels[i],
                    patch_stride: cfg.patch_strides[i],
                    heads: cfg.heads[i],
                    reduction: cfg.reductions[i],
                    mlp_ratio: cfg.mlp_ratio,
                    ssm_state: cfg.ssm_state,
                    scan_2d: cfg.scan_2d,
                    use_sdm: cfg.use_sdm,
                    overlapped: cfg.overlapped,
                },
                &mut rng,
            )
        })
        .collect();
    let fusion = FeatureFusion::new(
        &cfg.stage_channels,
        cfg.fusion_dim,
        cfg.fusion_hidden,
        &mut rng,
    );
    let decoder = Decoder::new(cfg.fusion_dim, cfg.patch_strides[0], 2, &mut rng);
    let stem = DwConv3d::new(1, 3, &mut rng);
    let sdms: Vec<peb_mamba::SdmUnit> = cfg
        .stage_channels
        .iter()
        .map(|&c| {
            peb_mamba::SdmUnit::new(peb_mamba::SdmUnitConfig::new(c, c, cfg.ssm_state), &mut rng)
        })
        .collect();

    let input = acid.reshape(&[1, d, h, w]).expect("input reshape");
    for _ in 0..REPS {
        let x = fwd_bwd(spans, "model.stem", &stem.parameters(), || {
            stem.forward(&Var::constant(input.clone()))
        });
        let skip = Var::concat(
            &[&Var::constant(x.clone()), &Var::constant(input.clone())],
            0,
        )
        .value_clone();
        let mut cur = x;
        let mut features = Vec::with_capacity(n);
        for (i, stage) in stages.iter().enumerate() {
            cur = fwd_bwd(
                spans,
                &format!("model.encoder{i}"),
                &stage.parameters(),
                || stage.forward(&Var::parameter(cur.clone())),
            );
            let s = cur.shape().to_vec();
            let (c, l) = (s[0], s[1] * s[2] * s[3]);
            let seq = Var::constant(cur.clone())
                .reshape(&[c, l])
                .permute(&[1, 0])
                .value_clone();
            fwd_bwd(
                spans,
                &format!("model.sdm{i}"),
                &sdms[i].parameters(),
                || sdms[i].forward(&Var::parameter(seq), (s[1], s[2], s[3])),
            );
            features.push(cur.clone());
        }
        let fused = fwd_bwd(spans, "model.fusion", &fusion.parameters(), || {
            let vars: Vec<Var> = features.iter().map(|f| Var::parameter(f.clone())).collect();
            fusion.forward(&vars)
        });
        let pred = fwd_bwd(spans, "model.decoder", &decoder.parameters(), || {
            decoder.forward(&Var::parameter(fused), Some(&Var::parameter(skip)))
        });
        let loss = spans.time("model.loss.fwd", None, || {
            loss_fn.combined(&Var::parameter(pred), label)
        });
        spans.time("model.loss.bwd", None, || loss.backward());
    }

    let layer = |name: &str| median(&spans.durations(name));
    let mut m = Vec::new();
    let mut names: Vec<String> = vec!["stem".into()];
    names.extend((0..n).map(|i| format!("encoder{i}")));
    names.extend((0..n).map(|i| format!("sdm{i}")));
    names.extend(["fusion", "decoder", "loss"].map(String::from));
    let (mut fwd_sum, mut step_sum) = (0.0, adam);
    for name in &names {
        let (f, b) = (
            layer(&format!("model.{name}.fwd")),
            layer(&format!("model.{name}.bwd")),
        );
        m.push(Metric::new(format!("model.{name}.fwd_s"), f, "s"));
        m.push(Metric::new(format!("model.{name}.bwd_s"), b, "s"));
        // The SDM units run inside their encoder stage; the loss is not
        // part of predict.
        if !name.starts_with("sdm") {
            step_sum += f + b;
            if name != "loss" {
                fwd_sum += f;
            }
        }
    }
    m.push(Metric::new("optim.adam_s", adam, "s"));
    m.push(Metric::new(
        "model.fwd_attributed_frac",
        fwd_sum / median(&predict_s),
        "ratio",
    ));
    m.push(Metric::new(
        "model.step_attributed_frac",
        step_sum / median(&step_s),
        "ratio",
    ));
    for k in [
        "gemm.matmul",
        "gemm.transpose2",
        "gemm.bmm",
        "conv.convt2_fwd",
        "conv.convt2_bwd",
        "conv.dw3_fwd",
        "conv.dw3_bwd",
        "scan.fwd",
        "scan.bwd",
    ] {
        m.push(Metric::new(format!("{k}_s"), p.leaf(k) / steps, "s"));
    }
    let flops = p.counter("gemm_flops") / steps;
    m.push(Metric::new("gemm.flops_per_step", flops, "flop"));
    m.push(Metric::new(
        "gemm.gflops_per_s",
        flops / ((p.leaf("gemm.matmul") + p.leaf("gemm.bmm")) / steps) / 1e9,
        "Gflop/s",
    ));
    m.push(Metric::new(
        "im2col.bytes_per_step",
        p.counter("im2col_bytes") / steps,
        "B",
    ));
    m
}

/// Writes the run's spans under the output directory.
pub fn write_spans(args: &RunArgs, spans: &Spans) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}
