//! perfbench: the workspace benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--rev <git rev>]
//! ```
//!
//! Runs one workload in this process on the default configuration,
//! checks every output, prints a human-readable report and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end metrics; with `--trace 1` they are the per-layer metrics of
//! the traced run, whose spans are written to `<out-dir>`. See
//! `perfbench/README.md` for the workloads and metrics.

mod bake;
mod fleet;
mod layers;
mod spans;
mod summary;
mod surrogate;
mod sys;

use summary::Tally;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Run parameters shared by every workload.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: std::path::PathBuf,
    pub rev: String,
}

/// What a workload hands back: its checks and its metrics.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (the issue-named
    /// metrics, sample counts, notes).
    pub lines: Vec<String>,
}

/// A workload's measured window, turned into the end-to-end metrics
/// every workload reports.
pub struct Window {
    /// Set-up repetitions, seconds each.
    pub setup_s: Vec<f64>,
    /// Attempts and per-attempt latency.
    pub tally: Tally,
    /// CPU milliseconds per operation (one value per op, or one
    /// whole-window average where ops overlap).
    pub cpu_ms: Vec<f64>,
    /// Wall seconds over which the counted operations ran.
    pub busy_s: f64,
    /// Peak resident memory of every process of the workload, MiB.
    pub peak_rss_mb: f64,
}

impl Window {
    /// The end-to-end metrics (`setup_s`, `op_p50_ms`, `op_tail_ms`,
    /// `op_cpu_ms`, `ops_per_s`, `peak_rss_mb`), reported first under the
    /// workload's own names: `aliases` pairs each such name with a metric.
    pub fn into_report(self, aliases: &[(&str, &str)]) -> Report {
        let lat = &self.tally.latency_ms;
        let ok = self.tally.attempted - self.tally.failed;
        let tail = summary::tail(lat);
        let metrics = vec![
            Metric::new("setup_s", summary::median(&self.setup_s), "s"),
            Metric::new("op_p50_ms", summary::median(lat), "ms"),
            Metric::new("op_tail_ms", tail.value, "ms"),
            Metric::new("op_cpu_ms", summary::median(&self.cpu_ms), "ms"),
            Metric::new("ops_per_s", ok as f64 / self.busy_s, "1/s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ];
        let mut lines: Vec<String> = aliases
            .iter()
            .map(|(alias, name)| {
                let m = metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("alias of a reported metric");
                format!("{alias} = {:.4} {} ({name})", m.value, m.unit)
            })
            .collect();
        let (q1, q3) = summary::quartiles(lat);
        lines.push(format!(
            "latency: median {:.4} ms, quartiles [{q1:.4}, {q3:.4}] ms, tail p{:.2} = {:.4} ms, \
             {} samples; setup_s is the median of {SETUP_REPS} set-ups",
            summary::median(lat),
            tail.percentile,
            tail.value,
            tail.samples
        ));
        Report {
            tally: self.tally,
            metrics,
            lines,
        }
    }
}

/// Set-up repetitions per run (`setup_s` is their median).
pub const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result and each
/// repetition's wall time.
pub fn repeat_setup<T>(
    seed: u64,
    setup: impl Fn(u64) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = std::time::Instant::now();
        last = Some(setup(seed)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = std::path::PathBuf::from("perfbench/target/perfbench-out");
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = val.into(),
            "--rev" => rev = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        rev,
    })
}

/// Run metadata: what the result was measured on.
fn metadata(args: &RunArgs) -> String {
    let l2 = peb_pool::tile::detected_l2_bytes().map_or("null".to_string(), |b| b.to_string());
    let tile = peb_pool::tile::tile_target_bytes().map_or("\"off\"".to_string(), |b| b.to_string());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":\"{}\",\"nproc\":{},\"simd_detected\":\"{}\",\"l2_bytes\":{},\"PEB_THREADS\":{},\"PEB_SIMD\":\"{}\",\"PEB_PREC\":\"{}\",\"PEB_FUSE\":{},\"PEB_TILE\":{},\"PEB_POOL\":{},\"PEB_PLAN\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev,
        sys::nproc(),
        peb_simd::best_level().name(),
        l2,
        peb_par::max_threads(),
        peb_simd::level().name(),
        peb_simd::prec().name(),
        peb_tensor::fusion_enabled(),
        tile,
        peb_pool::enabled(),
        peb_plan::enabled(),
    )
}

fn json_number(v: f64) -> String {
    // JSON has no infinity: a latency made infinite by failures (which
    // already make the run incorrect) is written as the largest double.
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = match args.workload.as_str() {
        "rigorous-bake" => bake::run(&args),
        "surrogate-train" => surrogate::run_train(&args),
        "surrogate-predict" => surrogate::run_predict(&args),
        "fleet-serve" => fleet::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!("meta {}", metadata(&args));
    for l in &report.lines {
        println!("{l}");
    }
    for n in &report.tally.notes {
        println!("FAILED CHECK: {n}");
    }
    println!(
        "fail_frac = {} ({} failed of {} attempted)",
        report.tally.fail_frac(),
        report.tally.failed,
        report.tally.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.tally.failed == 0 && report.tally.attempted > 0,
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod manifest_tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    /// Every string value of `key` in the manifest, in order.
    fn values_of(key: &str) -> Vec<String> {
        let pat = format!("\"{key}\":");
        let mut out = Vec::new();
        let mut rest = MANIFEST;
        while let Some(i) = rest.find(&pat) {
            rest = rest[i + pat.len()..].trim_start();
            if let Some(s) = rest.strip_prefix('"') {
                let end = s.find('"').expect("closing quote");
                out.push(s[..end].to_string());
            }
        }
        out
    }

    #[test]
    fn names_use_only_the_allowed_characters_and_are_unique() {
        let names = values_of("name");
        assert!(names.len() > 10, "manifest lists its names");
        for n in &names {
            assert!(n.len() <= 64, "{n} is longer than 64 characters");
            assert!(
                n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n} must start with a letter or digit"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{n} has a character outside [A-Za-z0-9_.-]"
            );
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        for u in values_of("unit") {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {u} is malformed"
            );
        }
    }

    #[test]
    fn reported_end_to_end_metrics_are_the_declared_ones() {
        let w = Window {
            setup_s: vec![1.0],
            tally: Tally {
                attempted: 1,
                failed: 0,
                latency_ms: vec![1.0],
                notes: vec![],
            },
            cpu_ms: vec![1.0],
            busy_s: 1.0,
            peak_rss_mb: 1.0,
        };
        let metrics = w.into_report(&[]).metrics;
        let declared = &MANIFEST[MANIFEST.find("\"end_to_end\"").expect("end_to_end")
            ..MANIFEST.find("\"per_layer\"").expect("per_layer")];
        let count = declared.matches("\"name\"").count();
        assert_eq!(metrics.len(), count);
        for m in metrics {
            assert!(
                declared.contains(&format!("\"name\": \"{}\"", m.name)),
                "{} is reported but not declared",
                m.name
            );
            assert!(declared.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
    }
}
