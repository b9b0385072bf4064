//! Load generator and checker of the stack benchmark.
//!
//! ```text
//! stackbench-rig --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--out <dir>] [--fault]
//! ```
//!
//! Runs one workload and prints one JSON line: `correct`, `attempted`,
//! `failed`, the failed checks, and the metrics with their units. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, from spans taken around calls into each
//! layer, deltas of the snapshots the layers export, and the layer
//! ladder (see `ladder.rs`), whose spans go to `<out>`. `--fault`
//! corrupts one tally before it is checked, so the run must come out
//! incorrect; the self-test uses it. `../run.py` is the entry point.

mod dict;
mod embed;
mod gen;
mod ladder;
mod probe;
mod stats;
mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use lf_map::BucketMap;
use lf_shard::ShardedSkipList;

use crate::gen::{Inputs, Mix};

/// A workload: its inputs, its client shape, and what serves it.
struct Workload {
    name: &'static str,
    space: u32,
    mix: Mix,
    /// Commands per pipeline on the wire (and per ladder batch).
    batch: usize,
    serve: Serve,
}

enum Serve {
    Wire,
    ShardedSkipList { shards: usize },
    BucketMap { buckets: usize },
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-pipelined",
        space: 100_000,
        mix: Mix { get: 90, put: 5 },
        batch: 32,
        serve: Serve::Wire,
    },
    Workload {
        name: "wire-rtt",
        space: 100_000,
        mix: Mix { get: 90, put: 5 },
        batch: 1,
        serve: Serve::Wire,
    },
    Workload {
        name: "embed-skiplist-update",
        space: 1_000_000,
        mix: Mix { get: 20, put: 40 },
        batch: 1,
        serve: Serve::ShardedSkipList { shards: 4 },
    },
    Workload {
        name: "embed-hashmap-read",
        space: 65_536,
        mix: Mix { get: 80, put: 10 },
        batch: 1,
        serve: Serve::BucketMap {
            buckets: ladder::MAP_BUCKETS,
        },
    },
];

/// Ops the ladder replays: enough pipelines (or round trips) that the
/// socket rung runs for about a second.
fn ladder_ops(batch: usize) -> usize {
    if batch > 1 {
        1 << 16
    } else {
        20_000
    }
}

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fault: bool,
    out: Option<PathBuf>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            fault: false,
            out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--fault" {
                a.fault = true;
                continue;
            }
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
            match flag.as_str() {
                "--workload" => a.workload = v,
                "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
                "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
                "--trace" => a.trace = v.parse::<u8>().map_err(|e| bad(&e))? != 0,
                "--out" => a.out = Some(PathBuf::from(v)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !a.seconds.is_finite() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }
}

/// One stretch of a client's run, ending `end` after the start.
pub struct Segment {
    pub end: Duration,
    pub measured: bool,
    pub traced: bool,
}

/// A short unmeasured warm-up, then half-second windows (at least ten).
/// Traced runs alternate untraced and traced windows, so the tracing
/// overhead is read off neighbouring windows.
pub struct Plan {
    pub segments: Vec<Segment>,
}

impl Plan {
    pub fn new(args: &Args) -> Plan {
        let windows = ((args.seconds * 2.0).round() as u32).max(10);
        let warm = (args.seconds * 0.1).clamp(0.1, 1.0);
        let mut segments = vec![Segment {
            end: Duration::from_secs_f64(warm),
            measured: false,
            traced: false,
        }];
        for i in 1..=windows {
            segments.push(Segment {
                end: Duration::from_secs_f64(
                    warm + args.seconds * f64::from(i) / f64::from(windows),
                ),
                measured: true,
                traced: args.trace && i % 2 == 0,
            });
        }
        Plan { segments }
    }

    pub fn windows(&self) -> usize {
        self.segments.iter().filter(|s| s.measured).count()
    }

    /// Sleep through the plan that began at `start`, returning the share
    /// of the machine's CPU time the hypervisor stole in each measured window
    /// (`steal` in `/proc/stat`; 0 where the kernel does not report it).
    pub fn host_steal(&self, start: Instant) -> Vec<f64> {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let mut out = Vec::new();
        let mut prev = (start, stats::steal_ticks());
        for seg in &self.segments {
            std::thread::sleep((start + seg.end).saturating_duration_since(Instant::now()));
            let now = (Instant::now(), stats::steal_ticks());
            if seg.measured {
                let secs = (now.0 - prev.0).as_secs_f64().max(1e-3);
                // USER_HZ is 100 on every Linux ABI.
                out.push(now.1.saturating_sub(prev.1) as f64 / (100.0 * secs * cpus));
            }
            prev = now;
        }
        out
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench-rig: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "stackbench-rig: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let threads = if matches!(w.serve, Serve::Wire) {
        1
    } else {
        embed::THREADS
    };
    let inputs = Inputs::new(w.space, w.mix, threads, args.seed);
    let mut r = match w.serve {
        Serve::Wire => wire::run(&args, &inputs, w.batch),
        Serve::ShardedSkipList { shards } => {
            embed::run(&args, &inputs, || ShardedSkipList::new(shards))
        }
        Serve::BucketMap { buckets } => embed::run(&args, &inputs, || BucketMap::new(buckets)),
    };
    if args.trace {
        let spans = args.out.as_ref().map(|dir| {
            let _ = std::fs::create_dir_all(dir);
            dir.join(format!("{}-seed{}.spans.csv", w.name, args.seed))
        });
        let lr = ladder::run(&inputs, w.batch, ladder_ops(w.batch), spans.as_deref());
        r.absorb_missing(lr);
    }
    r.size("key_space", w.space);
    r.size("prefill", inputs.prefill.len());
    r.size(
        "mix_get_put_del_pct",
        format!(
            "{}/{}/{}",
            w.mix.get,
            w.mix.put,
            100 - w.mix.get - w.mix.put
        ),
    );
    r.size("zipf_theta", gen::THETA);
    r.size("seconds", args.seconds);
    println!("{}", r.to_json());
}
