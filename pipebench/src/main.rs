//! End-to-end benchmark of the three real `streamcover` pipelines.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipebench/Cargo.toml -- \
//!     --workload <alg1_dsc|service_zipf|dist_podcast> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! * `--trace 0` runs the named workload for `--seconds` seconds in whole
//!   rounds and reports the end-to-end metrics.
//! * `--trace 1` is the separate traced run: spans in this crate's code
//!   around public calls into each layer, on all three workloads' inputs
//!   (every per-layer metric is reported by every traced run).
//!
//! Every run prints a `#` header, checks its outputs against references
//! computed here from the generated element lists (exiting 1 on any
//! failure), shows each check rejecting a corrupted answer, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.

mod alg1;
mod check;
mod dist;
mod service;

use std::time::Instant;
use streamcover_core::KernelTier;

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run hands back for the result line.
pub struct Outcome {
    /// Operations attempted (cover runs, service requests, distributed covers).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The `q`-quantile (nearest rank on the sorted samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * (s.len() - 1) as f64).round() as usize;
    s[rank]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of `samples`. `run_s` is the timed phase's wall time per
/// round: on a shared virtual machine the CPU speed changes in phases
/// lasting seconds, and a per-round median jumps between them while the
/// phase total moves in proportion to the time spent in each.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Builds before the warm-up round. Every timed round rebuilds once more.
pub const SETUP_REPS: usize = 5;

/// The workload's resident structures and the time of every build of them.
///
/// The workload is built `SETUP_REPS` times before the warm-up round (as
/// round 0) and once more before every timed round, dropping the previous
/// build first so that one build is resident at a time. The build is told
/// the round it is for, so a workload may draw fresh inputs per round.
///
/// `setup_s` is the median of all builds: on a shared virtual machine the
/// CPU speed changes in phases lasting seconds, and builds spread over the
/// whole run are less exposed to one phase than builds made back to back at
/// its start.
pub struct Builds<T, F> {
    build: F,
    times: Vec<f64>,
    current: Option<T>,
}

impl<T, F: FnMut(u64) -> T> Builds<T, F> {
    pub fn new(build: F) -> Self {
        let mut builds = Builds {
            build,
            times: Vec::new(),
            current: None,
        };
        for _ in 0..SETUP_REPS {
            builds.rebuild(0);
        }
        builds
    }

    /// Replaces the resident build with a fresh, timed one for `round`.
    pub fn rebuild(&mut self, round: u64) -> &T {
        drop(self.current.take());
        let (built, s) = timed(|| (self.build)(round));
        self.times.push(s);
        self.current.insert(built)
    }

    pub fn get(&self) -> &T {
        self.current.as_ref().expect("built in new")
    }

    /// The median build time.
    pub fn setup_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Runs whole rounds, numbered from 1, until `seconds` have elapsed (at
/// least `min_rounds`), returning the seconds each round reports as its
/// timed phase.
pub fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(u64) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        times.push(round(times.len() as u64 + 1)?);
    }
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    println!("# round times (s): {}", shown.join(" "));
    Ok(times)
}

/// Peak resident set size of this process (`VmHWM`), in MiB. Workloads
/// read it at the end of the timed phase, so it covers set-up and every
/// round, and before the checks build their own copies of the input.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let flags = [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512vl", std::arch::is_x86_feature_detected!("avx512vl")),
            (
                "avx512vpopcntdq",
                std::arch::is_x86_feature_detected!("avx512vpopcntdq"),
            ),
        ];
        flags
            .iter()
            .map(|(name, on)| format!("{name}={}", u8::from(*on)))
            .collect::<Vec<_>>()
            .join(" ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "non-x86_64".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        if !["alg1_dsc", "service_zipf", "dist_podcast"].contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {}", args.workload));
        }
        let mut metrics = alg1::traced(args.seed)?;
        metrics.extend(service::traced(args.seed)?);
        metrics.extend(dist::traced(args.seed)?);
        return Ok(Outcome {
            attempted: 1,
            failed: 0,
            metrics,
        });
    }
    match args.workload.as_str() {
        "alg1_dsc" => alg1::run(args.seed, args.seconds),
        "service_zipf" => service::run(args.seed, args.seconds),
        "dist_podcast" => dist::run(args.seed, args.seconds),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# nproc={} kernel_tier={} effective_tier={} {} STREAMCOVER_WORKERS={} git_rev={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        KernelTier::detect().name(),
        KernelTier::effective().name(),
        cpu_flags(),
        std::env::var("STREAMCOVER_WORKERS").unwrap_or_else(|_| "unset".into()),
        git_rev(),
    );
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipebench: FAILED: {e}");
            std::process::exit(1);
        }
    };
    for m in &outcome.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
