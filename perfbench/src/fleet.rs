//! `fleet-serve`: a `peb_fleet` router over two `peb_worker` processes
//! (one compute thread each) serving the tiny preset at 8×16×16, f32,
//! under a closed loop of two keep-alive connections from this process,
//! with a `/swap` hot-swap at a fixed interval.
//!
//! Every 200 body must be bit-identical to in-process `predict` on the
//! model version live while the request was in flight, and the router
//! and worker request counters must reconcile with what was sent.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use peb_fleet::{Fleet, FleetConfig};
use peb_guard::{OptKind, TrainCheckpoint};
use peb_nn::Parameterized;
use peb_serve::clip::{decode_resp, encode_clip, encode_resp};
use peb_serve::{Client, ClientError, ClientTimeouts, Engine, ModelPreset, ServeConfig};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

use crate::layers::{self, Obs};
use crate::spans::Spans;
use crate::summary::{median, Outcome, Tally};
use crate::{sys, Metric, Report, RunArgs, Window, SETUP_REPS};

/// Serve grid `(D, H, W)`.
const GRID: (usize, usize, usize) = (8, 16, 16);
/// Weight seed of the base model the workers start with.
const BASE_SEED: u64 = 42;
/// Weight seed of the model the hot-swap alternates with.
const DONOR_SEED: u64 = 999;
const WORKERS: usize = 2;
const CONNS: usize = 2;
/// Distinct clips in the request pool: enough that the share each shard
/// owns varies little from seed to seed.
const POOL: usize = 256;
/// Requests sent through the router before measuring.
const WARM_UP: usize = 16;
const SWAP_EVERY: Duration = Duration::from_secs(2);
/// Client-side limit on one request; beyond it the request is a timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Sequential requests per component in the layer measurements.
const LAYER_SAMPLES: usize = 64;

/// A running fleet with its inputs and expected answers.
struct Fixture {
    fleet: Fleet,
    clips: Vec<Tensor>,
    /// Expected `bit_digest` per clip, for the base (0) and donor (1)
    /// model versions.
    digests: [Vec<u64>; 2],
    /// Checkpoint files of the two versions (absolute paths).
    ckpts: [String; 2],
    dir: PathBuf,
}

impl Fixture {
    fn shutdown(self) {
        self.fleet.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn model(seed: u64) -> SdmPeb {
    SdmPeb::new(SdmPebConfig::tiny(GRID), &mut StdRng::seed_from_u64(seed))
}

fn write_checkpoint(m: &SdmPeb, seed: u64, path: &std::path::Path) -> Result<(), String> {
    let params: Vec<Tensor> = m.parameters().iter().map(|p| p.value_clone()).collect();
    let n = params.len();
    TrainCheckpoint {
        epoch: 0,
        seed,
        opt_kind: OptKind::Adam,
        opt_t: 0,
        lr_scale: 1.0,
        rollbacks: 0,
        epoch_stats: vec![],
        params,
        opt_m: vec![None; n],
        opt_v: vec![None; n],
        quant: None,
    }
    .save(path)
    .map_err(|e| e.to_string())
}

/// Seeded request clips: distinct photoacid-like volumes in [0, 0.9].
fn clip_pool(seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e5e);
    let (d, h, w) = GRID;
    (0..POOL)
        .map(|_| Tensor::from_fn(&[d, h, w], |_| rng.gen_range(0.0..0.9f32)))
        .collect()
}

fn worker_env(traced: bool) -> Vec<(String, String)> {
    let (d, h, w) = GRID;
    [
        ("PEB_SERVE_GRID", format!("{d}x{h}x{w}")),
        ("PEB_SERVE_MODEL", "tiny".to_string()),
        ("PEB_SERVE_SEED", BASE_SEED.to_string()),
        ("PEB_SERVE_THREADS", "1".to_string()),
        ("PEB_SERVE_PREC", "f32".to_string()),
        (
            "PEB_TRACE",
            if traced { "summary" } else { "off" }.to_string(),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The request pool and the answers every response is checked against.
#[derive(Clone)]
struct Inputs {
    clips: Vec<Tensor>,
    /// Expected `bit_digest` per clip for the base and donor versions.
    digests: [Vec<u64>; 2],
}

fn inputs(seed: u64) -> Inputs {
    let clips = clip_pool(seed);
    let digests = [BASE_SEED, DONOR_SEED].map(|s| {
        let m = model(s);
        clips.iter().map(|c| m.predict(c).bit_digest()).collect()
    });
    Inputs { clips, digests }
}

/// Writes both checkpoints, starts the fleet and warms each worker.
fn build(args: &RunArgs, inputs: &Inputs, traced_workers: bool) -> Result<Fixture, String> {
    let dir = args.out_dir.join(format!("fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = dir.canonicalize().map_err(|e| e.to_string())?;
    let paths = [dir.join("base.ckpt"), dir.join("donor.ckpt")];
    write_checkpoint(&model(BASE_SEED), BASE_SEED, &paths[0])?;
    write_checkpoint(&model(DONOR_SEED), DONOR_SEED, &paths[1])?;
    let config = FleetConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        worker_env: worker_env(traced_workers),
        ..FleetConfig::default()
    };
    let fleet = Fleet::start(config).map_err(|e| format!("fleet start: {e}"))?;
    let fx = Fixture {
        fleet,
        clips: inputs.clips.clone(),
        digests: inputs.digests.clone(),
        ckpts: paths.map(|p| p.display().to_string()),
        dir,
    };
    // Warm-up (records each worker's plan), checked.
    let mut c = connect(fx.fleet.addr())?;
    for (i, clip) in fx.clips.iter().enumerate().take(WARM_UP) {
        let y = c.infer(clip).map_err(|e| format!("warm-up request: {e}"))?;
        if y.bit_digest() != fx.digests[0][i] {
            return Err(format!(
                "warm-up answer for clip {i} differs from in-process predict"
            ));
        }
    }
    Ok(fx)
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(addr, ClientTimeouts::uniform(CLIENT_TIMEOUT)).map_err(|e| e.to_string())
}

fn classify(e: &ClientError) -> Outcome {
    match e {
        ClientError::Status(429, _) => Outcome::Shed429,
        ClientError::Status(504, _) => Outcome::Deadline504,
        ClientError::Timeout { .. } => Outcome::Timeout,
        _ => Outcome::Transport,
    }
}

/// Counters read from `/stats` of the router and of each worker.
#[derive(Debug, Default, Clone)]
struct Counters {
    router_requests: u64,
    retries: u64,
    failovers: u64,
    router_shed: u64,
    corrupt: u64,
    workers: Vec<WorkerCounters>,
}

/// One worker's `/stats` counters.
#[derive(Debug, Default, Clone)]
struct WorkerCounters {
    served: u64,
    shed: u64,
    deadline_shed: u64,
    batches: u64,
    plan_hits: u64,
    plan_misses: u64,
}

/// The first number after `"key":` in a flat JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn read_counters(fx: &Fixture) -> Result<Counters, String> {
    let get = |addr: SocketAddr| -> Result<String, String> {
        let r = connect(addr)?
            .request("GET", "/stats", b"")
            .map_err(|e| e.to_string())?;
        Ok(String::from_utf8_lossy(&r.body).to_string())
    };
    let field = |body: &str, key: &str| {
        json_u64(body, key).ok_or_else(|| format!("/stats lacks {key}: {body}"))
    };
    let r = get(fx.fleet.addr())?;
    let mut c = Counters {
        router_requests: field(&r, "requests")?,
        retries: field(&r, "retries")?,
        failovers: field(&r, "failovers")?,
        router_shed: field(&r, "deadline_shed")?,
        corrupt: field(&r, "corrupt_rejected")?,
        workers: Vec::new(),
    };
    for slot in fx.fleet.shards().slots() {
        let addr = slot.addr().ok_or("a shard is down")?;
        let w = get(addr)?;
        c.workers.push(WorkerCounters {
            served: field(&w, "f32")?,
            shed: field(&w, "shed")?,
            deadline_shed: field(&w, "deadline_shed")?,
            batches: field(&w, "batches")?,
            plan_hits: field(&w, "plan_hits")?,
            plan_misses: field(&w, "plan_misses")?,
        });
    }
    Ok(c)
}

/// What one closed-loop window produced.
struct Load {
    tally: Tally,
    /// 200 answers, whatever their digest.
    got: u64,
    swaps: u64,
    swap_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    before: Counters,
    after: Counters,
}

/// Closed loop: `CONNS` clients each send their next request when the
/// previous answer arrives; a swapper alternates the model version every
/// `SWAP_EVERY`.
fn load(fx: &Fixture, seed: u64, seconds: f64, spans: Option<&Spans>) -> Result<Load, String> {
    let before = read_counters(fx)?;
    let workers_cpu = || -> f64 {
        sys::child_pids()
            .into_iter()
            .filter_map(sys::proc_cpu_time)
            .map(|d| d.as_secs_f64())
            .sum()
    };
    let (cpu0, wcpu0) = (sys::cpu_time(), workers_cpu());
    // Even: version epoch/2 % 2 is live everywhere; odd: a swap is in
    // flight and either version may answer.
    let epoch = AtomicU64::new(0);
    let next_request = AtomicU64::new(0);
    let addr = fx.fleet.addr();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (results, swap_result) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNS)
            .map(|c| {
                let (epoch, next_request) = (&epoch, &next_request);
                s.spawn(move || -> Result<(Tally, u64), String> {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c as u64));
                    let mut client = connect(addr)?;
                    let mut tally = Tally::default();
                    let mut got = 0;
                    while Instant::now() < deadline {
                        let i = rng.gen_range(0..fx.clips.len());
                        let id = next_request.fetch_add(1, Ordering::Relaxed);
                        let span = spans.map(|sp| sp.open("serve.request", None, Some(id)));
                        let e0 = epoch.load(Ordering::SeqCst);
                        let t = Instant::now();
                        let r = client.infer(&fx.clips[i]);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let e1 = epoch.load(Ordering::SeqCst);
                        if let (Some(sp), Some(id)) = (spans, span) {
                            sp.close(id);
                        }
                        match r {
                            Ok(y) => {
                                got += 1;
                                let d = y.bit_digest();
                                let exact = e0 == e1 && e0 % 2 == 0;
                                let want = &fx.digests[((e0 / 2) % 2) as usize][i];
                                let other = &fx.digests[1 - ((e0 / 2) % 2) as usize][i];
                                if d == *want || (!exact && d == *other) {
                                    tally.record(Outcome::Ok, ms);
                                } else {
                                    tally.note(format!(
                                        "request {id} (clip {i}, epoch {e0}..{e1}): answer differs from in-process predict"
                                    ));
                                    tally.record(Outcome::BadOutput, ms);
                                }
                            }
                            Err(e) => {
                                tally.note(format!("request {id}: {e}"));
                                tally.record(classify(&e), ms);
                                client = connect(addr)?;
                            }
                        }
                    }
                    Ok((tally, got))
                })
            })
            .collect();
        let swapper = s.spawn(|| -> Result<(u64, Vec<f64>), String> {
            let mut client = connect(addr)?;
            let mut swap_ms = Vec::new();
            let mut k = 0u64;
            let mut next = t0 + SWAP_EVERY;
            loop {
                while Instant::now() < next.min(deadline) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if Instant::now() >= deadline {
                    break;
                }
                k += 1;
                epoch.fetch_add(1, Ordering::SeqCst);
                let t = Instant::now();
                let r = client.swap(&fx.ckpts[(k % 2) as usize]);
                swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r.map_err(|e| format!("swap {k}: {e}"))?;
                epoch.fetch_add(1, Ordering::SeqCst);
                next += SWAP_EVERY;
            }
            Ok((k, swap_ms))
        });
        let results: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (results, swapper.join().expect("swapper panicked"))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (sys::cpu_time() - cpu0).as_secs_f64() + workers_cpu() - wcpu0;
    let mut tally = Tally::default();
    let mut got = 0;
    for r in results {
        let (t, g) = r?;
        tally.merge(t);
        got += g;
    }
    let (swaps, swap_ms) = match swap_result {
        Ok(x) => x,
        Err(e) => {
            tally.fail_check(e);
            (0, Vec::new())
        }
    };
    // Restore the base version so later checks start from epoch 0.
    if swaps % 2 == 1 {
        connect(addr)?
            .swap(&fx.ckpts[0])
            .map_err(|e| format!("restoring the base model: {e}"))?;
    }
    let after = read_counters(fx)?;
    Ok(Load {
        tally,
        got,
        swaps,
        swap_ms,
        wall_s,
        cpu_s,
        before,
        after,
    })
}

impl Load {
    fn delta(&self, f: impl Fn(&Counters) -> u64) -> u64 {
        f(&self.after) - f(&self.before)
    }

    fn worker_delta(&self, f: impl Fn(&WorkerCounters) -> u64) -> Vec<u64> {
        self.after
            .workers
            .iter()
            .zip(&self.before.workers)
            .map(|(a, b)| f(a) - f(b))
            .collect()
    }

    fn worker_sum(&self, f: impl Fn(&WorkerCounters) -> u64) -> u64 {
        self.worker_delta(f).iter().sum()
    }

    /// Infer requests the clients sent.
    fn sent(&self) -> u64 {
        self.tally.attempted
    }

    /// Requests whose answer passed its check.
    fn ok(&self) -> u64 {
        self.tally.attempted - self.tally.failed
    }

    /// Router and worker counters against what the clients sent:
    /// - the router saw every request sent: infers, swaps, one `/stats`;
    /// - every dispatched attempt (requests plus retries, less router
    ///   sheds) reached a worker as a served, 429 or 504 request;
    /// - client 200s are the worker-served answers less corrupt frames.
    fn reconcile(&self, tally: &mut Tally) {
        let sent = self.sent();
        let router = self.delta(|c| c.router_requests);
        let restore = self.swaps % 2;
        if router != sent + self.swaps + restore + 1 {
            tally.fail_check(format!(
                "router counted {router} requests; clients sent {sent} infers, {} swaps",
                self.swaps + restore
            ));
        }
        let served = self.worker_sum(|w| w.served);
        let shed = self.worker_sum(|w| w.shed + w.deadline_shed);
        let retries = self.delta(|c| c.retries);
        let router_shed = self.delta(|c| c.router_shed);
        if served + shed + router_shed != sent + retries {
            tally.fail_check(format!(
                "workers served {served} + shed {shed} + router shed {router_shed} != sent {sent} + retries {retries}"
            ));
        }
        let corrupt = self.delta(|c| c.corrupt);
        if served != self.got + corrupt {
            tally.fail_check(format!(
                "workers served {served} answers; clients got {} and the router rejected {corrupt} corrupt",
                self.got
            ));
        }
    }
}

fn setup(
    args: &RunArgs,
    inputs: &Inputs,
    traced_workers: bool,
) -> Result<(Fixture, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Fixture> = None;
    for _ in 0..SETUP_REPS {
        if let Some(fx) = last.take() {
            fx.shutdown();
        }
        let t0 = Instant::now();
        last = Some(build(args, inputs, traced_workers)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

fn peak_rss_all() -> f64 {
    let workers: f64 = sys::child_pids()
        .iter()
        .filter_map(|p| sys::peak_rss_mb(&p.to_string()))
        .sum();
    sys::peak_rss_mb("self").unwrap_or(0.0) + workers
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    peb_obs::set_mode(peb_obs::TraceMode::Off);
    if args.trace {
        return traced(args);
    }
    let (fx, setup_s) = setup(args, &inputs(args.seed), false)?;
    let l = load(&fx, args.seed, args.seconds, None)?;
    let mut tally = l.tally.clone();
    l.reconcile(&mut tally);
    let peak = peak_rss_all();
    fx.shutdown();
    let window = Window {
        setup_s,
        tally,
        cpu_ms: vec![l.cpu_s * 1e3 / l.ok().max(1) as f64],
        busy_s: l.wall_s,
        peak_rss_mb: peak,
    };
    let mut report = window.into_report(&[
        ("serve_qps", "ops_per_s"),
        ("serve_p50_ms", "op_p50_ms"),
        ("serve_tail_ms", "op_tail_ms"),
        ("serve_cpu_ms", "op_cpu_ms"),
        ("setup_s", "setup_s"),
        ("peak_rss_mb", "peak_rss_mb"),
    ]);
    report.lines.push(format!(
        "{} requests and {} swaps; CPU and peak RSS cover this process and both workers",
        l.sent(),
        l.swaps
    ));
    Ok(report)
}

/// Per-layer serving numbers on a running fixture: component latencies
/// on the same clips, the load window's counters, and coverage.
fn serve_layers(fx: &Fixture, l: &Load, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let clips: Vec<&Tensor> = fx.clips.iter().cycle().take(LAYER_SAMPLES).collect();
    let base = model(BASE_SEED);
    let compute: Vec<f64> = peb_par::with_thread_count(1, || {
        clips
            .iter()
            .map(|c| {
                let t = Instant::now();
                let y = base.predict(c);
                std::hint::black_box(y);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    });
    let config = ServeConfig {
        grid: GRID,
        preset: ModelPreset::Tiny,
        seed: BASE_SEED,
        compute_threads: Some(1),
        ..ServeConfig::default()
    };
    let (engine, handle) = Engine::spawn(&config);
    let mut engine_ms = Vec::new();
    for (k, c) in clips.iter().enumerate() {
        let t = Instant::now();
        let y = handle.infer((*c).clone()).map_err(|e| e.to_string())?;
        engine_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let i = k % fx.clips.len();
        if y.bit_digest() != fx.digests[0][i] {
            tally.fail_check(format!("engine answer for clip {i} differs from predict"));
        }
    }
    engine.shutdown();
    // Direct-to-worker and through-router latency on the same clips,
    // interleaved so drift affects both alike.
    let shards = fx.fleet.shards();
    let worker_addr = shards.slots()[0].addr().ok_or("shard 0 is down")?;
    let (mut direct, mut routed) = (connect(worker_addr)?, connect(fx.fleet.addr())?);
    let (mut worker_ms, mut fleet_ms, mut router_ms) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..LAYER_SAMPLES {
        let i = k % fx.clips.len();
        let mut pair = [0.0; 2];
        for (client, t_ms) in [&mut direct, &mut routed].into_iter().zip(pair.iter_mut()) {
            let t = Instant::now();
            match client.infer(&fx.clips[i]) {
                Ok(y) if y.bit_digest() == fx.digests[0][i] => {
                    *t_ms = t.elapsed().as_secs_f64() * 1e3
                }
                Ok(_) => tally.fail_check(format!("clip {i}: answer differs from predict")),
                Err(e) => tally.fail_check(format!("clip {i}: {e}")),
            }
        }
        worker_ms.push(pair[0]);
        fleet_ms.push(pair[1]);
        router_ms.push(pair[1] - pair[0]);
    }
    let mut codec_us = Vec::with_capacity(LAYER_SAMPLES);
    for c in &clips {
        let frame = encode_resp(&base.predict(c));
        let t = Instant::now();
        let wire = encode_clip(c);
        let back = decode_resp(&frame).map_err(|e| format!("response frame: {e}"))?;
        codec_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box((wire, back));
    }
    let (compute, engine, worker, fleet, router) = (
        median(&compute),
        median(&engine_ms),
        median(&worker_ms),
        median(&fleet_ms),
        median(&router_ms),
    );
    let codec = median(&codec_us);
    let served = l.worker_delta(|w| w.served);
    let batches = l.worker_sum(|w| w.batches);
    let (hits, misses): (u64, u64) = (
        l.worker_sum(|w| w.plan_hits),
        l.worker_sum(|w| w.plan_misses),
    );
    let total: u64 = served.iter().sum();
    let skew = served.iter().copied().max().unwrap_or(0) as f64 * served.len() as f64
        / total.max(1) as f64;
    Ok(vec![
        Metric::new("serve.compute_ms", compute, "ms"),
        Metric::new("serve.engine_ms", engine, "ms"),
        Metric::new("serve.worker_ms", worker, "ms"),
        Metric::new("serve.router_ms", router, "ms"),
        Metric::new("serve.codec_us", codec, "us"),
        Metric::new(
            "serve.swap_ms",
            if l.swap_ms.is_empty() {
                0.0
            } else {
                median(&l.swap_ms)
            },
            "ms",
        ),
        Metric::new(
            "serve.mean_batch",
            total as f64 / batches.max(1) as f64,
            "count",
        ),
        Metric::new(
            "serve.plan_hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        Metric::new("serve.shed_429", l.worker_sum(|w| w.shed) as f64, "count"),
        Metric::new("fleet.retries", l.delta(|c| c.retries) as f64, "count"),
        Metric::new("fleet.failovers", l.delta(|c| c.failovers) as f64, "count"),
        Metric::new(
            "fleet.deadline_sheds",
            (l.delta(|c| c.router_shed) + l.worker_sum(|w| w.deadline_shed)) as f64,
            "count",
        ),
        Metric::new("fleet.shard_skew", skew, "ratio"),
        Metric::new(
            "serve.attributed_frac",
            (router + codec / 1e3 + engine) / fleet,
            "ratio",
        ),
    ])
}

/// The serving layers measured on a short-lived fleet, for traced runs
/// of workloads whose path does not serve.
pub fn serve_probe(
    args: &RunArgs,
    spans: &Spans,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let id = spans.open("probe.serve", None, None);
    let fx = build(args, &inputs(args.seed), true)?;
    let l = load(&fx, args.seed, 2.0 * SWAP_EVERY.as_secs_f64() + 0.5, None)?;
    tally.merge(l.tally.clone());
    l.reconcile(tally);
    let m = serve_layers(&fx, &l, tally);
    fx.shutdown();
    spans.close(id);
    m
}

fn traced(args: &RunArgs) -> Result<Report, String> {
    // Untraced half on an untraced fleet, then a fleet whose workers
    // trace too, under the same load.
    let inputs = inputs(args.seed);
    let (fx, _) = setup(args, &inputs, false)?;
    let l0 = load(&fx, args.seed, args.seconds / 2.0, None)?;
    let mut tally = l0.tally.clone();
    l0.reconcile(&mut tally);
    fx.shutdown();
    let untraced_ms = median(&l0.tally.latency_ms);

    let spans = Spans::default();
    let fx = build(args, &inputs, true)?;
    let obs = Obs::start();
    let l = load(&fx, args.seed, args.seconds / 2.0, Some(&spans))?;
    let profile = obs.finish();
    tally.merge(l.tally.clone());
    l.reconcile(&mut tally);
    let traced_ms = median(&spans.durations("serve.request")) * 1e3;
    let mut metrics = serve_layers(&fx, &l, &mut tally)?;
    fx.shutdown();
    metrics.extend(layers::cross_cutting(
        &profile,
        l.sent() as f64,
        l.cpu_s,
        l.wall_s,
    ));
    metrics.push(Metric::new(
        "trace.overhead_frac",
        (traced_ms - untraced_ms) / untraced_ms,
        "ratio",
    ));
    let (litho, pair) = layers::litho_probe(args.seed, &spans, &mut tally)?;
    metrics.extend(litho);
    metrics.extend(layers::model_probe(args.seed, &pair, &spans));
    layers::write_spans(args, &spans)?;
    Ok(Report {
        tally,
        metrics,
        lines: vec![format!(
            "traced {} requests; untraced p50 {untraced_ms:.3} ms, traced p50 {traced_ms:.3} ms",
            l.sent()
        )],
    })
}
