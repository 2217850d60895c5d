//! The traced run: per-layer figures from handler spans, the store and
//! trigger replays, and the observability ablation. End-to-end metrics
//! never come from here.

use std::fmt::Write as _;
use std::time::Duration;

use sedna_core::cluster::{install_profiling, ThreadCluster};
use sedna_obs::prof;

use crate::deploy::{Cluster, Role, Span, Traced};
use crate::drive::{median, Runner};
use crate::{alloc, replay, sys};
use crate::{config_for, Args, Metric, Outcome, WARMUP};

/// Handler spans whose start falls inside a call window belong to that call:
/// only one call is ever in flight.
struct PerCall {
    msgs: u64,
    bytes: u64,
    wait_ns: u64,
    gateway_ns: u64,
    gateway_allocs: u64,
    node_ns: u64,
    node_allocs: u64,
}

fn attribute(windows: &[(u64, u64)], spans: &[Span]) -> PerCall {
    let mut msgs: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.role, Role::Gateway | Role::Node))
        .collect();
    msgs.sort_by_key(|s| s.start_ns);
    let mut out = PerCall {
        msgs: 0,
        bytes: 0,
        wait_ns: 0,
        gateway_ns: 0,
        gateway_allocs: 0,
        node_ns: 0,
        node_allocs: 0,
    };
    let mut i = 0;
    for &(start, end) in windows {
        while i < msgs.len() && msgs[i].start_ns < start {
            i += 1;
        }
        // Union of handler time inside the window; the rest is the call's
        // self time: hops, queueing and wake-ups.
        let (mut covered, mut reach) = (0, start);
        let mut j = i;
        while j < msgs.len() && msgs[j].start_ns < end {
            let s = msgs[j];
            let (a, b) = (s.start_ns.max(reach), s.end_ns.min(end));
            if b > a {
                covered += b - a;
                reach = b;
            }
            if !s.timer {
                out.msgs += 1;
                out.bytes += s.bytes;
                let d = s.end_ns - s.start_ns;
                if s.role == Role::Gateway {
                    out.gateway_ns += d;
                    out.gateway_allocs += s.allocs;
                } else {
                    out.node_ns += d;
                    out.node_allocs += s.allocs;
                }
            }
            j += 1;
        }
        out.wait_ns += (end - start) - covered;
        i = j;
    }
    out
}

/// Writes the spans and the benchmark's call windows (the root spans) as
/// tab-separated text.
fn write_spans(path: &str, windows: &[(u64, u64)], spans: &[Span]) -> std::io::Result<()> {
    let mut text =
        String::from("role\tactor\tkind\ttimer\tstart_ns\tend_ns\tallocs\tbytes\ttrace\n");
    for &(s, e) in windows {
        let _ = writeln!(text, "bench\t-\tcall\t0\t{s}\t{e}\t0\t0\t0");
    }
    for s in spans {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:#x}",
            s.role.name(),
            s.actor,
            s.kind,
            u8::from(s.timer),
            s.start_ns,
            s.end_ns,
            s.allocs,
            s.bytes,
            s.trace
        );
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Length of one block of the ablation rounds. The three arms take turns
/// block by block, so drift in the machine's speed lands on all of them
/// alike; the ablation figures are medians over rounds of per-round
/// differences.
const BLOCK: Duration = Duration::from_secs(1);

/// Starts a deployment and returns it with the ids of the threads it
/// started.
fn start_arm<C>(start: impl FnOnce() -> Result<C, String>) -> Result<(C, Vec<i32>), String> {
    let before = sys::thread_ids();
    let cluster = start()?;
    let tids = sys::thread_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    Ok((cluster, tids))
}

/// CPU time (ns) and allocations so far of the threads with these ids.
fn usage(tids: &[i32]) -> (u64, u64) {
    let cpu = tids.iter().map(|&t| sys::thread_cpu_ns(t)).sum();
    (cpu, alloc::of_threads(tids))
}

/// One ablation block of one arm: CPU µs and allocations per call of the
/// whole process, minus what the other arms' threads (their timers, sweeps,
/// anti-entropy and stats ticks) used meanwhile. What stays is the arm's own
/// threads, the calling thread and the process-wide profiler sampler.
fn block<C: Cluster>(runner: &mut Runner, cluster: &C, others: &[i32]) -> (f64, f64) {
    let (cpu0, allocs0) = usage(others);
    let phase = runner.measure(cluster, BLOCK);
    let (cpu1, allocs1) = usage(others);
    let cpu: u64 = phase.slices.iter().map(|s| s.cpu_ns).sum();
    let allocs: u64 = phase.slices.iter().map(|s| s.allocs).sum();
    let calls = phase.calls as f64;
    (
        cpu.saturating_sub(cpu1.saturating_sub(cpu0)) as f64 / 1e3 / calls,
        allocs.saturating_sub(allocs1.saturating_sub(allocs0)) as f64 / calls,
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let config = config_for(w);
    // One runner per deployment: each keeps the model of its own cluster.
    let mut base_runner = Runner::new(w, args.seed, args.break_check);
    let mut bare_runner = Runner::new(w, args.seed, false);
    let mut traced_runner = Runner::new(w, args.seed, false);

    // Arm 1: the untraced baseline, observability on. Arm 2: observability
    // off (metrics registries, alert engine, profiler). Arm 3: the traced
    // deployment. The profiler's sampler is process-wide: started before
    // the arms, it belongs to none of them.
    install_profiling();
    let ((base, setup), base_tids) =
        start_arm(|| base_runner.setup(|| ThreadCluster::start(config.clone())))?;
    let ((bare, _), bare_tids) = start_arm(|| {
        bare_runner.setup(|| ThreadCluster::start(config.clone().with_metrics(false)))
    })?;
    let ((traced, _), traced_tids) =
        start_arm(|| traced_runner.setup(|| Traced::start(config.clone())))?;
    let not_base = [bare_tids.as_slice(), &traced_tids].concat();
    let not_bare = [base_tids.as_slice(), &traced_tids].concat();
    let not_traced = [base_tids.as_slice(), &bare_tids].concat();
    base_runner.measure(&base, WARMUP);
    prof::set_enabled(false);
    bare_runner.measure(&bare, WARMUP);
    prof::set_enabled(true);
    traced_runner.measure(&traced, WARMUP);

    // Two thirds of the time: the ablation rounds, all three deployments up.
    let rounds = ((args.seconds * 2.0 / 3.0 / (3.0 * BLOCK.as_secs_f64())) as usize).max(1);
    let (mut obs_cpu, mut obs_allocs, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let on = block(&mut base_runner, &base, &not_base);
        prof::set_enabled(false);
        let off = block(&mut bare_runner, &bare, &not_bare);
        prof::set_enabled(true);
        traced.set_recording(true);
        let t = block(&mut traced_runner, &traced, &not_traced);
        traced.set_recording(false);
        obs_cpu.push(on.0 - off.0);
        obs_allocs.push(on.1 - off.1);
        overhead.push((t.0 / on.0 - 1.0) * 100.0);
    }
    base.shutdown();
    bare.shutdown();

    // The last third: the traced deployment alone gives the spans.
    traced_runner.record_windows = true;
    traced.set_recording(true);
    let phase = traced_runner.measure(&traced, Duration::from_secs_f64(args.seconds / 3.0));
    traced.set_recording(false);
    let (t0, t1) = phase.span_ns;
    // Spans of the measured loop only (trigger_feed's drain and index
    // read-back are recorded too, but are not part of the phase).
    let spans: Vec<Span> = traced
        .stop()
        .into_iter()
        .filter(|s| s.start_ns >= t0 && s.start_ns < t1)
        .collect();

    let figures = replay::run(w, args.seed);

    let path = format!("perfbench/out/spans-{}-seed{}.tsv", w.name(), args.seed);
    write_spans(&path, &phase.windows, &spans).map_err(|e| format!("write {path}: {e}"))?;

    let per = attribute(&phase.windows, &spans);
    let calls = phase.calls as f64;
    let secs = phase.wall_s;
    let node_timers: Vec<&Span> = spans
        .iter()
        .filter(|s| s.role == Role::Node && s.timer)
        .collect();
    let timer_ns: u64 = node_timers.iter().map(|s| s.end_ns - s.start_ns).sum();
    let timer_max_ns = node_timers
        .iter()
        .map(|s| s.end_ns - s.start_ns)
        .max()
        .unwrap_or(0);
    let coord_ns: u64 = spans
        .iter()
        .filter(|s| matches!(s.role, Role::Coord | Role::Manager))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let nodes = config.data_nodes as f64;

    let metrics = vec![
        Metric::new("net.msgs_per_op", "count", per.msgs as f64 / calls),
        Metric::new("net.bytes_per_op", "B", per.bytes as f64 / calls),
        Metric::new("net.wait_us_per_op", "us", per.wait_ns as f64 / 1e3 / calls),
        Metric::new(
            "net.ctx_switches_per_op",
            "count",
            phase.ctx_switches as f64 / calls,
        ),
        Metric::new(
            "gateway.busy_us_per_op",
            "us",
            per.gateway_ns as f64 / 1e3 / calls,
        ),
        Metric::new(
            "gateway.allocs_per_op",
            "count",
            per.gateway_allocs as f64 / calls,
        ),
        Metric::new(
            "node.busy_us_per_op",
            "us",
            per.node_ns as f64 / 1e3 / calls,
        ),
        Metric::new(
            "node.allocs_per_op",
            "count",
            per.node_allocs as f64 / calls,
        ),
        Metric::new(
            "node.timer_ms_per_s",
            "ms/s",
            timer_ns as f64 / 1e6 / secs / nodes,
        ),
        Metric::new("node.timer_max_ms", "ms", timer_max_ns as f64 / 1e6),
        Metric::new("coord.assembly_ms", "ms", setup.assembly_ms),
        Metric::new("coord.busy_ms_per_s", "ms/s", coord_ns as f64 / 1e6 / secs),
        Metric::new("memstore.write_ns", "ns", figures.write_ns),
        Metric::new("memstore.read_ns", "ns", figures.read_ns),
        Metric::new("memstore.batch_ns_per_key", "ns", figures.batch_ns_per_key),
        Metric::new("memstore.allocs_per_op", "count", figures.allocs_per_op),
        Metric::new("memstore.sweep_ns_per_row", "ns", figures.sweep_ns_per_row),
        Metric::new("memstore.bytes_per_key", "B", figures.bytes_per_key),
        Metric::new(
            "triggers.dispatch_us_per_record",
            "us",
            figures.dispatch_us_per_record,
        ),
        Metric::new("obs.cpu_us_per_op", "us", median(obs_cpu)),
        Metric::new("obs.allocs_per_op", "count", median(obs_allocs)),
        Metric::new("trace.overhead_pct", "%", median(overhead)),
    ];
    eprintln!(
        "# traced {}: {rounds} ablation rounds of {:?} per arm; {} spans in {:.1} s traced alone, written to {path}",
        w.name(),
        BLOCK,
        spans.len(),
        secs,
    );
    let mut checks = base_runner.checks;
    for other in [bare_runner.checks, traced_runner.checks] {
        checks.attempted += other.attempted;
        checks.failed += other.failed;
        checks.wrong += other.wrong;
        checks.setup_retries += other.setup_retries;
        checks.refired += other.refired;
        if checks.first_wrong.is_none() {
            checks.first_wrong = other.first_wrong;
        }
    }
    Ok(Outcome { checks, metrics })
}
