//! The repository's two-clock benchmark.
//!
//! ```text
//! perfbench --workload <kitti-knn|nbody-drift|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed before any timer starts. With
//! `--trace 0` the run measures the end-to-end metrics with telemetry off;
//! with `--trace 1` it measures the per-layer metrics from spans the
//! benchmark records around its own calls into each crate. Answers are
//! checked against the brute-force oracle outside the timers. The last line
//! of standard output is the result object; noise diagnostics go to
//! `.bench_out/` beside it. The exit code is nonzero when any answer was
//! wrong, any operation failed, or the simulated clock did not repeat.

mod check;
mod host;
mod kitti;
mod layers;
mod nbody;
mod quiet;
mod report;
mod serve;
mod stats;
mod trace;

use check::ClockSig;
use report::{json_num, json_str, result_line, Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads of the `rtnn-parallel` pool.
const THREADS: usize = 2;
const OUT_DIR: &str = ".bench_out";
/// How often the steal time of the machine is sampled.
const STEAL_PERIOD: Duration = Duration::from_millis(100);

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["kitti-knn", "nbody-drift", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// FNV-1a of this executable, so pinned exact-clock signatures belong to
/// the build that recorded them.
fn binary_hash() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    Ok(check::fnv1a(&bytes))
}

/// Compare this run's simulated-clock signatures with the ones the first
/// run of the same workload, seed and binary pinned (pinning them if this
/// is that run). Returns what happened, or a message on a mismatch.
fn pin_exact(cfg: &RunConfig, exact: &[ClockSig]) -> Result<Result<&'static str, String>, String> {
    if exact.is_empty() {
        return Ok(Ok("not exact on this workload"));
    }
    let dir = Path::new(OUT_DIR).join("exact");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-{:016x}.txt",
        cfg.workload,
        cfg.seed,
        binary_hash()?
    ));
    let Ok(pinned) = std::fs::read_to_string(&path) else {
        let text: String = exact.iter().map(|s| s.to_line() + "\n").collect();
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        return Ok(Ok("pinned by this run"));
    };
    let pinned: Vec<Option<ClockSig>> = pinned.lines().map(ClockSig::parse).collect();
    let same = pinned.len() == exact.len()
        && pinned
            .iter()
            .zip(exact)
            .all(|(p, s)| p.as_ref().is_some_and(|p| p.matches(s)));
    Ok(if same {
        Ok("matched the pinned run")
    } else {
        Err(format!(
            "simulated clock differs from the run pinned in {}",
            path.display()
        ))
    })
}

/// The metrics of the result line: end-to-end with `--trace 0`, per-layer
/// (completed with the host counters) with `--trace 1`.
fn result_metrics(
    cfg: &RunConfig,
    outcome: &mut Outcome,
    quiet: &quiet::Quiet,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    if !cfg.trace {
        return outcome
            .end_to_end(quiet, peak_rss_mb)
            .into_iter()
            .zip(END_TO_END)
            .map(|((name, value), (_, unit))| (name, value, unit))
            .collect();
    }
    let host = outcome.host;
    let layers = &mut outcome.layers;
    layers.insert("host.cpu_ms", host.cpu_ms / outcome.ops_done.max(1) as f64);
    layers.insert("host.parallelism", host.parallelism());
    layers.insert("host.steal_pct", host.steal_pct);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layers
                .get(name)
                .unwrap_or_else(|| panic!("the workload did not report {name}"));
            (name, *value, unit)
        })
        .collect()
}

/// Write the noise diagnostics (beside the result line), each untraced
/// operation with the steal time around it, and the spans of a traced run.
fn write_artifacts(
    cfg: &RunConfig,
    outcome: &Outcome,
    steal: &[host::StealSample],
    epoch: Instant,
    notes: Vec<(&str, String)>,
    line: &str,
) -> Result<PathBuf, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let write = |name: String, text: String| {
        let path = out_dir.join(name);
        std::fs::write(&path, text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
            .map(|()| path)
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let body: Vec<String> = notes
        .iter()
        .chain(&outcome.notes)
        .map(|(k, v)| format!("  {}: {v}", json_str(k)))
        .collect();
    let diagnostics = write(
        format!("{stem}.json"),
        format!("{{\n{},\n  \"result\": {line}\n}}\n", body.join(",\n")),
    )?;
    let ms = |t: Instant| json_num(t.saturating_duration_since(epoch).as_secs_f64() * 1e3);
    let ops: Vec<String> = outcome
        .ops
        .iter()
        .map(|&(a, b)| {
            let steal = host::steal_pct_between(steal, a, b);
            format!("[{}, {}, {}]", ms(a), ms(b), json_num(steal))
        })
        .collect();
    write(
        format!("{stem}.ops.json"),
        format!("{{\"start_ms_end_ms_steal_pct\": [{}]}}\n", ops.join(", ")),
    )?;
    if cfg.trace {
        trace::write_jsonl(
            &out_dir.join(format!("{stem}.spans.jsonl")),
            epoch,
            &outcome.spans,
        )?;
    }
    Ok(diagnostics)
}

fn run() -> Result<bool, String> {
    let cfg = parse_args()?;
    rtnn_parallel::set_num_threads(THREADS);
    let epoch = Instant::now();
    let sampler = host::StealSampler::start(STEAL_PERIOD);
    let mut outcome: Outcome = match cfg.workload.as_str() {
        "kitti-knn" => kitti::run(&cfg)?,
        "nbody-drift" => nbody::run(&cfg)?,
        _ => serve::run(&cfg)?,
    };
    let steal = sampler.finish()?;
    let peak_rss_mb = host::peak_rss_mb()?;
    let exact = pin_exact(&cfg, &outcome.exact)?;
    if let Err(msg) = &exact {
        eprintln!("perfbench: {msg}");
    }
    let quiet = quiet::select(&outcome.setups, &outcome.ops, &steal);
    let metrics = result_metrics(&cfg, &mut outcome, &quiet, peak_rss_mb);
    let correct = outcome.failed == 0 && exact.is_ok();
    let line = result_line(correct, outcome.attempted, outcome.failed, &metrics);

    let all_ms = outcome.op_ms();
    let tail = stats::tail(&quiet.op_ms);
    let host = outcome.host;
    let ops = outcome.ops_done.max(1) as f64;
    let num = |v: f64| json_num(v);
    let notes: Vec<(&str, String)> = vec![
        ("workload", json_str(&cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("trace", cfg.trace.to_string()),
        ("pool_threads", THREADS.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        (
            "error_rate",
            num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("host.steal_pct", num(host.steal_pct)),
        ("host.parallelism", num(host.parallelism())),
        ("host.cpu_ms_per_op", num(host.cpu_ms / ops)),
        ("op_samples", all_ms.len().to_string()),
        ("quiet.steal_pct_max", num(quiet::QUIET_STEAL_PCT)),
        ("quiet.op_share", num(quiet.op_share)),
        ("op_ms_p50.all_ops", num(stats::median(&all_ms))),
        ("op_ms_tail", num(tail.value)),
        ("op_ms_tail.percentile", num(tail.percentile)),
        ("op_ms_tail.beyond", tail.beyond.to_string()),
        ("op_ms_tail.samples", tail.samples.to_string()),
        ("op_ms_tail.all_ops", num(stats::tail(&all_ms).value)),
        (
            "setup_s.all",
            format!(
                "[{}]",
                outcome
                    .setups
                    .iter()
                    .map(|s| num(quiet::ms(s) / 1e3))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "exact_clock",
            json_str(match &exact {
                Ok(status) => status,
                Err(msg) => msg,
            }),
        ),
        ("peak_rss_mb", num(peak_rss_mb)),
    ];
    let diagnostics = write_artifacts(&cfg, &outcome, &steal, epoch, notes, &line)?;
    eprintln!(
        "perfbench: {} seed {}: {} ops, {} failed, steal {:.2}%, parallelism {:.2}, tail p{:.1} = {:.3} ms with {} of {} beyond; diagnostics in {}",
        cfg.workload,
        cfg.seed,
        outcome.attempted,
        outcome.failed,
        host.steal_pct,
        host.parallelism(),
        tail.percentile,
        tail.value,
        tail.beyond,
        tail.samples,
        diagnostics.display()
    );
    println!("{line}");
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    }
}
