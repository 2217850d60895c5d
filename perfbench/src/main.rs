//! Benchmark of the threaded Sedna cluster.
//!
//! ```sh
//! perfbench --workload kv_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every thread of the process runs on one CPU. With `--trace 0` it starts a
//! real `ThreadCluster` (`ClusterConfig::small()`) several times, runs one
//! workload from this thread, checks every answer against its own model,
//! and prints the end-to-end metrics. With
//! `--trace 1` it prints the per-layer metrics instead (see `trace.rs`).
//! The last line of standard output is one JSON object; the exit code is
//! non-zero when any answer was wrong. `--break-check` corrupts the first
//! expected value, to show that the checks can fail.

mod alloc;
mod deploy;
mod drive;
mod inputs;
mod replay;
mod sys;
mod trace;

use std::time::Duration;

use sedna_core::cluster::ThreadCluster;
use sedna_core::config::ClusterConfig;

use drive::{median, percentile, Checks, Runner, QUANTILES};
use inputs::{Workload, BATCH};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Unmeasured ops between loading and measuring: the first sweep after a
/// load walks every freshly written row.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Clusters started per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub break_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut break_check) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--break-check" {
            break_check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        break_check,
    })
}

/// The deployment every workload runs on.
pub fn config_for(w: Workload) -> ClusterConfig {
    let config = ClusterConfig::small();
    if w == Workload::KvBatch {
        config.with_batching(BATCH, 0)
    } else {
        config
    }
}

pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut runner = Runner::new(w, args.seed, args.break_check);
    // The first cluster is measured; the further set-ups only time
    // `setup_s`.
    let (cluster, first) = runner.setup(|| ThreadCluster::start(config_for(w)))?;
    runner.measure(&cluster, WARMUP);
    let mut phase = runner.measure(&cluster, Duration::from_secs_f64(args.seconds));
    cluster.shutdown();
    let mut setups = vec![first];
    while setups.len() < SETUPS {
        let (cluster, setup) = runner.setup(|| ThreadCluster::start(config_for(w)))?;
        cluster.shutdown();
        setups.push(setup);
    }

    if phase.slices.is_empty() || (w == Workload::TriggerFeed && phase.latencies_ns.is_empty()) {
        return Err("the measured phase produced no samples".into());
    }
    // kv latencies are medians of per-slice quantiles, like every other
    // per-op figure; trigger_feed's lags span slices (each waits for a
    // sweep), so its quantiles are taken over the whole run.
    let [p50, p90, p99] = if w == Workload::TriggerFeed {
        let mut lat = phase.latencies_ns.clone();
        lat.sort_unstable();
        QUANTILES.map(|p| percentile(&lat, p) / 1e3)
    } else {
        [0, 1, 2].map(|q| phase.slice_latency_us(q))
    };
    let late = &mut phase.late_ns;
    late.sort_unstable();
    eprintln!(
        "# {} seed {}: {} calls in {} slices, p99 {p99:.1} us; setup_s {:?}; coord.assembly_ms {:?}; set-up retries {}; repeat firings of slow posts {}{}",
        w.name(),
        args.seed,
        phase.calls,
        phase.slices.len(),
        setups.iter().map(|s| s.setup_s()).collect::<Vec<_>>(),
        setups.iter().map(|s| s.assembly_ms).collect::<Vec<_>>(),
        runner.checks.setup_retries,
        runner.checks.refired,
        if late.is_empty() {
            String::new()
        } else {
            format!(
                "; generator late p50 {:.1} us, p99 {:.1} us, max {:.1} us",
                percentile(late, 0.5) / 1e3,
                percentile(late, 0.99) / 1e3,
                percentile(late, 1.0) / 1e3
            )
        }
    );
    // trigger_feed's store grows through the run (every post adds a post
    // row and an index row, and every node's sweep walks every slot), so its
    // per-slice CPU and allocations climb; a median over slices would pick
    // one slice of that climb. Its per-call figures are whole-run totals.
    let whole = w == Workload::TriggerFeed;
    let metrics = vec![
        Metric::new("ops_per_s", "1/s", phase.ops_per_s()),
        Metric::new("latency_p50_us", "us", p50),
        Metric::new("latency_p90_us", "us", p90),
        Metric::new("cpu_us_per_op", "us", phase.cpu_us_per_op(whole)),
        Metric::new("allocs_per_op", "count", phase.allocs_per_op(whole)),
        Metric::new("rss_mb", "MB", phase.rss_mb),
        Metric::new(
            "setup_s",
            "s",
            median(setups.iter().map(|s| s.setup_s()).collect()),
        ),
    ];
    Ok(Outcome {
        checks: runner.checks,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <kv_small|kv_large|kv_batch|trigger_feed> --seed <n> --seconds <s> --trace <0|1> [--break-check]");
            std::process::exit(2);
        }
    };
    // Before any thread starts, so that every thread inherits the mask. On
    // one CPU each hop of a call is a context switch on that CPU; across
    // CPUs it is a wake-up of an idle virtual CPU, whose delay the host's
    // scheduler sets (see the README's "Deployment and inputs").
    if let Err(e) = sys::pin_to_one_cpu() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let outcome = if args.trace {
        trace::run(&args)
    } else {
        end_to_end(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is {}", m.name, m.value);
        std::process::exit(1);
    }
    let checks = &outcome.checks;
    if let Some(what) = &checks.first_wrong {
        eprintln!("perfbench: {} wrong answers; first: {what}", checks.wrong);
    }
    let correct = checks.wrong == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
