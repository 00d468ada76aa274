//! Host-side counters read from `/proc`: process CPU time, machine steal
//! time and peak resident memory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, fixed
/// at 100 on Linux).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// User plus system CPU milliseconds of this process, all threads (the
/// `getrusage(RUSAGE_SELF)` total, read from `/proc/self/stat`).
pub fn process_cpu_ms() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) * 1e3 / USER_HZ)
}

/// Machine-wide `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`.
pub fn machine_steal() -> Result<(f64, f64), String> {
    let stat = read("/proc/stat")?;
    let line = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("no cpu line in /proc/stat")?;
    let v: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse::<f64>().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already included in user/nice.
    let steal = v.get(7).copied().unwrap_or(0.0);
    let total: f64 = v.iter().take(8).sum();
    Ok((steal, total))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A snapshot of the host counters; two of them bound a measured window.
#[derive(Debug, Clone, Copy)]
pub struct HostMark {
    at: Instant,
    cpu_ms: f64,
    steal: f64,
    total: f64,
}

impl HostMark {
    pub fn now() -> Result<Self, String> {
        let (steal, total) = machine_steal()?;
        Ok(HostMark {
            at: Instant::now(),
            cpu_ms: process_cpu_ms()?,
            steal,
            total,
        })
    }
}

/// Host usage over a measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostWindow {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    /// Share of all CPU time on the machine stolen by the hypervisor, in %.
    pub steal_pct: f64,
}

impl HostWindow {
    pub fn between(a: &HostMark, b: &HostMark) -> Self {
        let total = b.total - a.total;
        HostWindow {
            wall_ms: b.at.duration_since(a.at).as_secs_f64() * 1e3,
            cpu_ms: b.cpu_ms - a.cpu_ms,
            steal_pct: if total > 0.0 {
                100.0 * (b.steal - a.steal) / total
            } else {
                0.0
            },
        }
    }

    /// CPU milliseconds per wall millisecond.
    pub fn parallelism(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.cpu_ms / self.wall_ms
        } else {
            0.0
        }
    }
}

/// Machine steal and total jiffies at one instant.
#[derive(Debug, Clone, Copy)]
pub struct StealSample {
    pub at: Instant,
    pub steal: f64,
    pub total: f64,
}

/// Reads `/proc/stat` every `period` on a background thread, so each
/// operation can be matched with the steal time around it.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<Vec<StealSample>, String>>,
}

impl StealSampler {
    pub fn start(period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                let (steal, total) = machine_steal()?;
                samples.push(StealSample {
                    at: Instant::now(),
                    steal,
                    total,
                });
                if flag.load(Ordering::Relaxed) {
                    return Ok(samples);
                }
                std::thread::sleep(period);
            }
        });
        StealSampler { stop, handle }
    }

    pub fn finish(self) -> Result<Vec<StealSample>, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .map_err(|_| "the steal sampler thread panicked".to_string())?
    }
}

/// Steal share in % over the sampled interval that covers `start..end`.
pub fn steal_pct_between(samples: &[StealSample], start: Instant, end: Instant) -> f64 {
    let first = samples.iter().rposition(|s| s.at <= start).unwrap_or(0);
    let last = samples
        .iter()
        .position(|s| s.at >= end)
        .unwrap_or(samples.len().saturating_sub(1));
    match (samples.get(first), samples.get(last)) {
        (Some(a), Some(b)) if b.total > a.total => {
            100.0 * (b.steal - a.steal) / (b.total - a.total)
        }
        _ => 0.0,
    }
}
