//! Shared helpers: sample statistics, the JSON result writer, the host
//! block and process memory.

use std::fmt::Write as _;
use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A point in time on two clocks: wall time, and the CPU time the process
/// (or one thread of it) has consumed. On a shared host the hypervisor may
/// steal the vCPU for a varying share of wall time; CPU time does not count
/// stolen time, so the gated timing metrics read CPU time, scaled to the
/// reference speed of a [`Calibration`], and the wall-clock ones are
/// reported beside them.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub wall: std::time::Instant,
    pub cpu: Duration,
}

impl Stamp {
    /// Now, with the CPU time of the whole process.
    pub fn now() -> Stamp {
        Stamp {
            wall: std::time::Instant::now(),
            cpu: cpu_time(CLOCK_PROCESS_CPUTIME_ID),
        }
    }

    /// Now, with the CPU time of the calling thread only (for work timed
    /// while other threads of the process run).
    pub fn now_thread() -> Stamp {
        Stamp {
            wall: std::time::Instant::now(),
            cpu: cpu_time(CLOCK_THREAD_CPUTIME_ID),
        }
    }

    /// Wall and CPU milliseconds from `self` to `later`.
    pub fn ms_to(&self, later: &Stamp) -> (f64, f64) {
        (
            ms(later.wall - self.wall),
            ms(later.cpu.saturating_sub(self.cpu)),
        )
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed so far on `clock` (the process or the calling thread).
fn cpu_time(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime only writes one timespec through the pointer,
    // which refers to a live, properly aligned local.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are available on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A fixed reference computation of the benchmark's own, timed between
/// units of measured work to follow the speed the shared host gives this
/// process at the moment. It uses no code of the workspace, so no change
/// to the program moves it.
///
/// On a shared host the CPU time of the same work is not fixed: the host
/// runs a vCPU faster or slower, for stretches of a fraction of a second
/// to many seconds, and the mix differs from run to run. Vector
/// arithmetic, memory latency and the allocator slow down at different
/// times, so there is one kernel per kind of work:
///
/// * [`dense`](Self::dense): a dense 128×128 matrix product (row-axpy
///   form, which the compiler vectorizes), for the QP work of the batch
///   workloads. Its time falls in two clusters about 1.5× apart.
/// * [`memory`](Self::memory): a dependent walk over a random cycle of
///   2 MiB, then a burst of small allocations, for the runtime's work.
pub enum Calibration {
    Dense {
        a: Vec<f64>,
        b: Vec<f64>,
        c: Vec<f64>,
    },
    Memory {
        next: Vec<u32>,
    },
}

impl Calibration {
    const N: usize = 128;
    const CYCLE: usize = 1 << 19;
    const HOPS: usize = 4000;
    const ALLOCS: usize = 2000;

    pub fn dense() -> Calibration {
        let n = Self::N;
        let fill = |k: usize| {
            (0..n * n)
                .map(|i| ((i * k) % 97) as f64 / 97.0 - 0.5)
                .collect()
        };
        Calibration::Dense {
            a: fill(7),
            b: fill(13),
            c: vec![0.0; n * n],
        }
    }

    pub fn memory() -> Calibration {
        // A random cyclic permutation: Sattolo's shuffle driven by xorshift.
        let m = Self::CYCLE;
        let mut order: Vec<u32> = (0..m as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..m).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % i as u64) as usize);
        }
        let mut next = vec![0u32; m];
        for i in 0..m {
            next[order[i] as usize] = order[(i + 1) % m];
        }
        Calibration::Memory { next }
    }

    /// CPU time of one run of the kernel at the reference speed: its mean
    /// on a vCPU of a shared Intel Xeon host (2.1 GHz base clock) over
    /// many runs of the workloads that use it. CPU times scaled by
    /// [`speed_factor`](Self::speed_factor) read as that vCPU at its
    /// typical speed.
    fn reference_ms(&self) -> f64 {
        match self {
            Calibration::Dense { .. } => 0.68,
            Calibration::Memory { .. } => 0.25,
        }
    }

    /// CPU milliseconds of the calling thread for one run of the kernel.
    pub fn sample(&mut self) -> f64 {
        let t0 = cpu_time(CLOCK_THREAD_CPUTIME_ID);
        match self {
            Calibration::Dense { a, b, c } => {
                let n = Self::N;
                c.iter_mut().for_each(|x| *x = 0.0);
                for i in 0..n {
                    let row = &mut c[i * n..(i + 1) * n];
                    for k in 0..n {
                        let aik = a[i * n + k];
                        for (cij, bkj) in row.iter_mut().zip(&b[k * n..(k + 1) * n]) {
                            *cij += aik * bkj;
                        }
                    }
                }
                std::hint::black_box(&c);
            }
            Calibration::Memory { next } => {
                let mut at = 0u32;
                for _ in 0..Self::HOPS {
                    at = next[at as usize];
                }
                std::hint::black_box(at);
                let burst: Vec<Vec<u8>> = (0..Self::ALLOCS)
                    .map(|i| vec![i as u8; 64 + (i % 7) * 32])
                    .collect();
                std::hint::black_box(&burst);
            }
        }
        ms(cpu_time(CLOCK_THREAD_CPUTIME_ID).saturating_sub(t0))
    }

    /// The factor that scales CPU times measured among the calibration
    /// `samples` to the reference speed: the reference time over the
    /// samples' mean. The mean, not the median: the samples fall into
    /// clusters, one per host state, and their mean follows the share of
    /// time spent in each, where the median jumps between clusters.
    pub fn speed_factor(&self, samples: &[f64]) -> f64 {
        self.reference_ms() * samples.len() as f64 / samples.iter().sum::<f64>()
    }

    /// `"<name>": {..}` for the detail line.
    pub fn detail(&self, name: &str, samples: &[f64]) -> String {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        format!(
            "\"{name}\": {{\"samples\": {}, \"mean_ms\": {}, \"min_ms\": {}, \"speed_factor\": {}}}",
            samples.len(),
            json_num(samples.iter().sum::<f64>() / samples.len() as f64),
            json_num(min),
            json_num(self.speed_factor(samples))
        )
    }
}

/// Median of `samples` (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a latency sample: the highest of a fixed ladder of
/// percentiles that still leaves at least 10 samples above it
/// (nearest-rank), falling back to the median for tiny samples.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

impl Tail {
    /// `"<name>": {"percentile": .., "samples": ..}` for the detail line.
    pub fn detail(&self, name: &str) -> String {
        format!(
            "\"{name}\": {{\"percentile\": {}, \"samples\": {}}}",
            self.percentile, self.samples
        )
    }
}

pub fn tail(samples: &[f64]) -> Tail {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let percentile = LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let value = if n == 0 {
        f64::NAN
    } else {
        let rank = ((percentile / 100.0) * n as f64).ceil() as usize;
        s[rank.clamp(1, n) - 1]
    };
    Tail {
        percentile,
        value,
        samples: n,
    }
}

/// Repeats `f` until `budget` has elapsed (at least `min_reps` times) and
/// returns the per-call wall times in milliseconds.
pub fn time_reps(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = std::time::Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        let t0 = std::time::Instant::now();
        f();
        out.push(ms(t0.elapsed()));
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measured value (`null` for a
/// non-finite one; such a run reports `"correct": false`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// One human-readable line per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }

    pub fn to_json(&self) -> String {
        self.to_json_without(&[])
    }

    /// [`to_json`](Self::to_json) leaving out the `excluded` names.
    pub fn to_json_without(&self, excluded: &[&str]) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .filter(|(name, _, _)| !excluded.contains(&name.as_str()))
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The host block recorded with every result: core count, SIMD features
/// the GEMM kernels dispatch on, toolchain and source revision.
pub fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let revision = std::env::var("PERFBENCH_REVISION")
        .ok()
        .filter(|r| !r.is_empty())
        .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cores\": {cores}, \"avx2\": {avx2}, \"fma\": {fma}, \"rustc\": {}, \"revision\": {}}}",
        json_str(&rustc),
        json_str(&revision)
    )
}

/// First line of a command's standard output, when it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        let small: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&small).percentile, 50.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
