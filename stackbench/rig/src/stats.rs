//! Percentiles, measurement windows, and the result the rig prints.

use std::fmt::Write as _;

/// Linear-interpolated quantile `q` in `[0, 1]` of ascending `sorted`
/// (0 for an empty slice).
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    f64::from(sorted[lo]) * (1.0 - frac) + f64::from(sorted[hi]) * frac
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nanoseconds as a `u32` sample, saturating (a 4 s stall still sorts
/// last).
pub fn ns32(ns: u128) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// A uniform sample of at most [`Reservoir::CAP`] latencies (Vitter's
/// algorithm R). Its memory is allocated and touched up front, so the
/// client's footprint does not grow with throughput and
/// `peak_rss_mb` measures the program.
pub struct Reservoir {
    pub kept: Vec<u32>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    pub const CAP: usize = 1 << 15;

    pub fn new(seed: u64) -> Reservoir {
        let mut kept = vec![1u32; Self::CAP];
        kept.clear();
        Reservoir {
            kept,
            seen: 0,
            rng: crate::gen::mix64(seed) | 1,
        }
    }

    pub fn push(&mut self, v: u32) {
        self.seen += 1;
        if self.kept.len() < Self::CAP {
            self.kept.push(v);
            return;
        }
        // xorshift64: cheap, and only the slot choice needs it.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if let Some(slot) = self.kept.get_mut(j as usize) {
            *slot = v;
        }
    }
}

/// One measured window: ops completed OK in `secs`, plus the latency
/// samples taken in it.
pub struct Window {
    pub ok: u64,
    pub secs: f64,
    pub lat: Reservoir,
    /// Share of the machine's CPU time the host stole meanwhile.
    pub steal: f64,
}

impl Window {
    pub fn new(seed: u64) -> Window {
        Window {
            ok: 0,
            secs: 0.0,
            lat: Reservoir::new(seed),
            steal: 0.0,
        }
    }

    /// Fold in another client's window over the same interval.
    pub fn absorb(&mut self, other: Window) {
        self.ok += other.ok;
        self.secs = self.secs.max(other.secs);
        self.lat.kept.extend(other.lat.kept);
    }

    pub fn throughput(&self) -> f64 {
        if self.secs > 0.0 {
            self.ok as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// End-to-end figures of a run: each is the median, over the windows in
/// which the host stole the least CPU time, of that window's own value.
/// On a virtual machine that shares its host, the hypervisor can take
/// a large share of the CPU time away for seconds at a time; every op
/// in such a window waits for it, whatever the program does. Choosing windows
/// by the host's steal counter, never by the figures themselves, keeps
/// those episodes out of the result; a change to the program moves
/// every window alike.
pub struct Summary {
    pub throughput: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Latency samples in the chosen windows.
    pub samples: u64,
    pub chosen: usize,
    /// Each window's throughput, p50, p99 and steal share, for the
    /// record; chosen windows are marked `*`.
    pub per_window: String,
}

/// Windows the figures come from: the least-stolen quarter (at least
/// [`MIN_CHOSEN`]), plus every window stolen from no more than they were.
const MIN_CHOSEN: usize = 5;

pub fn summarize(windows: &mut [Window]) -> Summary {
    let mut steal: Vec<f64> = windows.iter().map(|w| w.steal).collect();
    steal.sort_by(f64::total_cmp);
    let k = (windows.len() / 4).max(MIN_CHOSEN).min(windows.len());
    let cutoff = steal.get(k.wrapping_sub(1)).copied().unwrap_or(0.0);
    let mut chosen_n = 0;
    let (mut thr, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0u64;
    let mut per_window = String::new();
    for w in windows.iter_mut() {
        let t = w.throughput();
        let lat = &mut w.lat.kept;
        lat.sort_unstable();
        let (a, b) = (quantile(lat, 0.50) / 1000.0, quantile(lat, 0.99) / 1000.0);
        let chosen = w.steal <= cutoff;
        if chosen {
            chosen_n += 1;
            thr.push(t);
            p50.push(a);
            p99.push(b);
            samples += lat.len() as u64;
        }
        let sep = if per_window.is_empty() { "" } else { " " };
        let mark = if chosen { "*" } else { "" };
        let _ = write!(per_window, "{sep}{mark}{t:.0}/{a:.2}/{b:.2}/{:.3}", w.steal);
    }
    Summary {
        throughput: median(&thr),
        p50_us: median(&p50),
        p99_us: median(&p99),
        samples,
        chosen: chosen_n,
        per_window,
    }
}

/// Set-ups per run; `setup_s` is the median of their times.
const SETUP_REPS: usize = 3;

/// Median of [`SETUP_REPS`] timings of `f`, in seconds; `f` returns the
/// set-up it built, and all but the last one are torn down untimed.
pub fn median_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = std::time::Instant::now();
        let built = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Cumulative CPU ticks the hypervisor stole from this (virtual) machine.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one rig run found: its metrics, counts, and every failed check.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Latency samples behind the latency metrics.
    pub samples: u64,
    /// Where each per-layer metric was measured.
    pub sources: Vec<(String, String)>,
    pub sizes: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn size(&mut self, name: &str, value: impl ToString) {
        self.sizes.push((name.to_string(), value.to_string()));
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Take `other`'s metrics this report lacks, and all its checks
    /// and sizes.
    pub fn absorb_missing(&mut self, other: Report) {
        for (name, v, unit) in other.metrics {
            if !self.metrics.iter().any(|(n, _, _)| *n == name) {
                if let Some((_, src)) = other.sources.iter().find(|(n, _)| *n == name) {
                    self.sources.push((name.clone(), src.clone()));
                }
                self.metrics.push((name, v, unit));
            }
        }
        self.problems.extend(other.problems);
        self.sizes.extend(other.sizes);
    }

    pub fn to_json(&self) -> String {
        fn obj<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
            format!("{{{}}}", items.iter().map(f).collect::<Vec<_>>().join(", "))
        }
        let pair = |(n, v): &(String, String)| format!("{}: {}", quote(n), quote(v));
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        let metrics = obj(&self.metrics, |(n, v, u)| {
            // JSON has no NaN or infinity; run.py refuses a `null` value.
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(n), quote(u))
        });
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {metrics}, \
             \"samples\": {}, \"sources\": {}, \"sizes\": {}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            problems.join(", "),
            self.samples,
            obj(&self.sources, pair),
            obj(&self.sizes, pair),
        )
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[10, 20], 0.5), 15.0);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 0.0), 1.0);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 1.0), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn report_json_marks_problems_incorrect() {
        let mut r = Report::default();
        r.metric("x", 1.5, "s");
        assert!(r.to_json().starts_with("{\"correct\": true"));
        r.check(false, || "bad \"tally\"".into());
        let j = r.to_json();
        assert!(j.starts_with("{\"correct\": false"));
        assert!(j.contains("\"x\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(j.contains("bad \\\"tally\\\""));
    }
}
