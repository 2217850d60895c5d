//! Set-up, the measured phase, and the output checks of each workload. The
//! checks compare every answer with a model the benchmark keeps itself.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use sedna_common::rng::Xoshiro256;
use sedna_common::{Key, KeyPath, Value};
use sedna_core::messages::ClientResult;
use sedna_memstore::VersionedValue;
use sedna_triggers::{Emits, FnAction, JobSpec, MonitorScope};

use crate::alloc;
use crate::deploy::{now_ns, Cluster};
use crate::inputs::{
    feed_key, Op, OpStream, Values, Workload, FEED_DATASET, FEED_INDEX, FEED_MONITORED, FEED_POSTS,
    FEED_RATE, LOAD_GROUP,
};
use crate::sys;

/// Data nodes in `ClusterConfig::small()`.
const DATA_NODES: usize = 3;
/// How long trigger_feed waits for outstanding firings and index writes
/// after its measured phase.
const DRAIN: Duration = Duration::from_secs(5);
/// `ThreadCluster::retry_write` sleeps this long before it re-issues a write
/// whose attempt answered `Failed`, so only a write call at least this long
/// can have been issued twice.
const RETRY_PAUSE: Duration = Duration::from_millis(50);
/// How long set-up waits, once the manager has recorded every data node's
/// join, before loading: two of the gateway's 200 ms ring-lease checks, so
/// its ring lists every node (see [`Runner::await_members`]).
const RING_SETTLE: Duration = Duration::from_millis(500);

/// Workload calls attempted and failed, and answers that did not match the
/// model.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Set-up write groups re-issued after some keys answered `Failed`.
    pub setup_retries: u64,
    /// trigger_feed: repeat firings, with the posted value, of posts whose
    /// write call lasted at least [`RETRY_PAUSE`]. The cluster may have
    /// applied such a write twice, each time a fresh change, so these are
    /// counted here rather than as wrong answers.
    pub refired: u64,
    pub wrong: u64,
    pub first_wrong: Option<String>,
}

impl Checks {
    fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.first_wrong.get_or_insert(what);
    }
}

/// Set-up timings of one cluster.
pub struct Setup {
    /// `start` returning.
    pub start_s: f64,
    /// Start to the first acknowledged op (the assembly wait).
    pub assembly_ms: f64,
    /// Loading the working set (and, on trigger_feed, registering its job).
    pub load_s: f64,
}

impl Setup {
    /// What `setup_s` reports: start plus load, without the assembly wait.
    pub fn setup_s(&self) -> f64 {
        self.start_s + self.load_s
    }
}

/// Length of the slices a measured phase is cut into. Per-op figures are
/// medians over slices, so a burst of outside load that covers less than
/// half the run does not move them. Each node runs one anti-entropy step
/// every 2 s (`sync_interval_micros`); a slice of that length holds one step
/// per node, so slices do not alternate between having a step and not.
const SLICE: Duration = Duration::from_secs(2);

/// One slice of a measured phase.
#[derive(Clone, Copy)]
pub struct Slice {
    pub calls: u64,
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub allocs: u64,
    /// p50, p90 and p99 call latency in µs (kv workloads).
    pub latency_us: [f64; 3],
}

/// The latency quantiles each slice keeps.
pub const QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// What one measured phase saw.
#[derive(Default)]
pub struct Phase {
    pub calls: u64,
    pub wall_s: f64,
    pub slices: Vec<Slice>,
    /// Latencies of the running slice's calls (kv workloads; cleared as
    /// each slice closes), or every due-time-to-firing lag (trigger_feed).
    pub latencies_ns: Vec<u64>,
    /// Each call's `[start, end)` on the [`now_ns`] clock, when the runner
    /// records windows (the traced run).
    pub windows: Vec<(u64, u64)>,
    /// trigger_feed: how late the generator issued each write.
    pub late_ns: Vec<u64>,
    /// The measured loop's `[start, end)` on the [`now_ns`] clock.
    pub span_ns: (u64, u64),
    /// Context switches during the measured loop (when recording windows).
    pub ctx_switches: u64,
    /// Peak resident set (MB) when the loop reached `Workload::rss_calls`
    /// calls, or at its end if it never did.
    pub rss_mb: f64,
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The `p` quantile of sorted samples (nearest rank).
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    let i = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i] as f64
}

impl Phase {
    fn slice_median(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(self.slices.iter().filter(|s| s.calls > 0).map(f).collect())
    }
    pub fn ops_per_s(&self) -> f64 {
        self.slice_median(|s| s.calls as f64 / s.wall_s)
    }
    /// Sum of `f` over the phase's slices ÷ its calls.
    fn whole_per_call(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let calls: u64 = self.slices.iter().map(|s| s.calls).sum();
        self.slices.iter().map(f).sum::<f64>() / calls as f64
    }
    /// CPU time per call: the median over slices, or over the whole phase
    /// when `whole`.
    pub fn cpu_us_per_op(&self, whole: bool) -> f64 {
        if whole {
            self.whole_per_call(|s| s.cpu_ns as f64 / 1e3)
        } else {
            self.slice_median(|s| s.cpu_ns as f64 / 1e3 / s.calls as f64)
        }
    }
    /// Allocations per call, like [`Phase::cpu_us_per_op`].
    pub fn allocs_per_op(&self, whole: bool) -> f64 {
        if whole {
            self.whole_per_call(|s| s.allocs as f64)
        } else {
            self.slice_median(|s| s.allocs as f64 / s.calls as f64)
        }
    }
    /// Median over slices of each slice's `QUANTILES[q]` latency, in µs.
    pub fn slice_latency_us(&self, q: usize) -> f64 {
        self.slice_median(|s| s.latency_us[q])
    }
}

/// Cuts a measured phase into [`SLICE`]s.
struct Meter {
    t0: Instant,
    cpu0: u64,
    allocs0: u64,
    calls0: u64,
}

impl Meter {
    fn start(phase: &Phase) -> Self {
        Meter {
            t0: Instant::now(),
            cpu0: sys::cpu_ns(),
            allocs0: alloc::total(),
            calls0: phase.calls,
        }
    }

    /// Closes the running slice once it is `at_least` long.
    fn close(&mut self, phase: &mut Phase, at_least: Duration) {
        let wall = self.t0.elapsed();
        if wall < at_least {
            return;
        }
        let next = Meter::start(phase);
        let lat = &mut phase.latencies_ns;
        lat.sort_unstable();
        let latency_us = QUANTILES.map(|p| {
            if lat.is_empty() {
                0.0
            } else {
                percentile(lat, p) / 1e3
            }
        });
        lat.clear();
        phase.slices.push(Slice {
            calls: phase.calls - self.calls0,
            wall_s: wall.as_secs_f64(),
            cpu_ns: next.cpu0 - self.cpu0,
            allocs: next.allocs0 - self.allocs0,
            latency_us,
        });
        *self = next;
    }
}

/// An acknowledged post awaiting its firing.
struct Post {
    value: Value,
    due: Instant,
    /// The write call lasted at least [`RETRY_PAUSE`].
    slow: bool,
}

/// One trigger firing as the job's action saw it.
pub struct Firing {
    pub node: usize,
    pub key: Key,
    pub value: Option<Value>,
    pub at: Instant,
}

/// The Sec. V indexer shape: on each change to `feed/posts/*`, report the
/// firing and emit one `feed/index/*` write carrying the post's value.
pub fn indexer_job(node: usize, report: Sender<Firing>) -> JobSpec {
    JobSpec::builder("indexer")
        .input(MonitorScope::Table {
            dataset: FEED_DATASET.into(),
            table: FEED_POSTS.into(),
        })
        .action(FnAction(
            move |key: &Key, values: &[VersionedValue], out: &mut Emits| {
                let at = Instant::now();
                let value = values.iter().max_by_key(|v| v.ts).map(|v| v.value.clone());
                if let (Some(v), Some(path)) = (&value, KeyPath::decode(key)) {
                    out.latest(index_key(&path), v.clone());
                }
                let _ = report.send(Firing {
                    node,
                    key: key.clone(),
                    value,
                    at,
                });
            },
        ))
        .build()
}

fn index_key(post: &KeyPath) -> Key {
    KeyPath::new(FEED_DATASET, FEED_INDEX, post.key())
        .expect("valid key path")
        .encode()
}

fn is_sentinel(key: &Key) -> bool {
    KeyPath::decode(key).is_some_and(|p| p.key().starts_with("sentinel-"))
}

/// Drives one workload against one cluster at a time and checks answers.
pub struct Runner {
    workload: Workload,
    keys: Vec<Key>,
    /// Last value written per working-set key; `None` after a failed write
    /// left it unknown.
    model: Vec<Option<Value>>,
    values: Values,
    stream: OpStream,
    feed_rng: Xoshiro256,
    fresh: u64,
    sentinels: u64,
    firings: Option<Receiver<Firing>>,
    /// Corrupt the first expected read value (shows the checks can fail).
    break_check: bool,
    /// Keep each call's window (for attributing spans to calls).
    pub record_windows: bool,
    pub checks: Checks,
}

impl Runner {
    pub fn new(workload: Workload, seed: u64, break_check: bool) -> Self {
        Runner {
            workload,
            keys: (0..workload.working_set())
                .map(|i| workload.key(i))
                .collect(),
            model: vec![None; workload.working_set() as usize],
            values: Values::new(seed),
            stream: OpStream::new(workload, seed),
            feed_rng: Xoshiro256::seeded(seed ^ 0xFEED),
            fresh: Xoshiro256::seeded(seed ^ 0xF2E5).next_below(1 << 40),
            sentinels: 0,
            firings: None,
            break_check,
            record_windows: false,
            checks: Checks::default(),
        }
    }

    /// Starts a cluster, waits for its first acknowledged write, and loads
    /// the working set.
    pub fn setup<C: Cluster>(&mut self, start: impl FnOnce() -> C) -> Result<(C, Setup), String> {
        let t0 = Instant::now();
        let cluster = start();
        let start_s = t0.elapsed().as_secs_f64();
        let probe = cluster.write_latest(&Key::from("perfbench-probe-0000"), self.values.next());
        if probe != ClientResult::Ok {
            return Err(format!("first write after start answered {probe:?}"));
        }
        let assembly_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.await_members(&cluster)?;
        let t1 = Instant::now();
        for first in (0..self.keys.len()).step_by(LOAD_GROUP) {
            self.load_group(&cluster, first, LOAD_GROUP.min(self.keys.len() - first))?;
        }
        if self.workload == Workload::TriggerFeed {
            self.register_indexer(&cluster)?;
        }
        let load_s = t1.elapsed().as_secs_f64();
        Ok((
            cluster,
            Setup {
                start_s,
                assembly_ms,
                load_s,
            },
        ))
    }

    /// Waits until the gateway routes by a ring that holds every data node.
    /// The first ring it fetches may hold fewer, and `ClientCore` clamps W to
    /// the replica count, so a load written through it is acknowledged by one
    /// node and later quorum reads answer not-found (about one start in a
    /// hundred; see the README's findings). The wait is neither in
    /// `setup_s` nor in `coord.assembly_ms`.
    fn await_members<C: Cluster>(&self, cluster: &C) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.nodes_joined() < DATA_NODES {
            if Instant::now() > deadline {
                return Err(format!(
                    "{} of {DATA_NODES} data nodes joined",
                    cluster.nodes_joined()
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(RING_SETTLE);
        Ok(())
    }

    /// Writes working-set rows `first..first + n` with one `write_many`,
    /// re-issuing the keys that failed. Set-up calls are not workload calls:
    /// retries are counted in `Checks::setup_retries`, not in `failed`.
    fn load_group<C: Cluster>(
        &mut self,
        cluster: &C,
        first: usize,
        n: usize,
    ) -> Result<(), String> {
        let mut todo: Vec<usize> = (first..first + n).collect();
        for _ in 0..3 {
            let pairs: Vec<(Key, Value)> = todo
                .iter()
                .map(|&i| (self.keys[i].clone(), self.values.next()))
                .collect();
            let results = match cluster.write_many(&pairs) {
                ClientResult::Many(rs) if rs.len() == pairs.len() => rs,
                other => return Err(format!("loading row {first} answered {other:?}")),
            };
            let mut again = Vec::new();
            for ((i, (_, v)), r) in todo.into_iter().zip(pairs).zip(results) {
                match r {
                    ClientResult::Ok => self.model[i] = Some(v),
                    ClientResult::Failed => again.push(i),
                    other => return Err(format!("loading row {i} answered {other:?}")),
                }
            }
            if again.is_empty() {
                return Ok(());
            }
            self.checks.setup_retries += 1;
            todo = again;
        }
        Err(format!(
            "loading {} rows from {first} kept failing",
            todo.len()
        ))
    }

    /// Registers the indexer on every node, then writes sentinel posts until
    /// every node's job has fired once.
    fn register_indexer<C: Cluster>(&mut self, cluster: &C) -> Result<(), String> {
        let (tx, rx) = channel();
        let mut node = 0;
        cluster.register_job_everywhere(&mut || {
            node += 1;
            indexer_job(node - 1, tx.clone())
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = HashSet::new();
        while seen.len() < DATA_NODES {
            if Instant::now() > deadline {
                return Err(format!(
                    "indexer fired on {} of {DATA_NODES} nodes",
                    seen.len()
                ));
            }
            let pairs: Vec<(Key, Value)> = (0..30)
                .map(|_| {
                    self.sentinels += 1;
                    let key = KeyPath::new(
                        FEED_DATASET,
                        FEED_POSTS,
                        format!("sentinel-{:011}", self.sentinels),
                    )
                    .expect("valid key path")
                    .encode();
                    (key, self.values.next())
                })
                .collect();
            cluster.write_many(&pairs);
            let until = Instant::now() + Duration::from_millis(100);
            while let Some(left) = until.checked_duration_since(Instant::now()) {
                match rx.recv_timeout(left) {
                    Ok(f) => {
                        seen.insert(f.node);
                    }
                    Err(_) => break,
                }
            }
        }
        self.firings = Some(rx);
        Ok(())
    }

    /// Runs the workload for `dur` and checks every answer.
    pub fn measure<C: Cluster>(&mut self, cluster: &C, dur: Duration) -> Phase {
        if self.workload == Workload::TriggerFeed {
            self.measure_feed(cluster, dur)
        } else {
            self.measure_kv(cluster, dur)
        }
    }

    fn expected(&mut self, k: u64) -> Option<Value> {
        let v = self.model[k as usize].clone()?;
        if std::mem::take(&mut self.break_check) {
            let mut wrong = v.as_bytes().to_vec();
            wrong[0] ^= 1;
            return Some(Value::from(wrong));
        }
        Some(v)
    }

    fn check_read(&mut self, k: u64, got: &ClientResult) -> bool {
        let expected = self.expected(k);
        match (got, expected) {
            (ClientResult::Failed, _) => false,
            (_, None) => true,
            (ClientResult::Latest(Some(vv)), Some(want)) if vv.value == want => true,
            (other, Some(want)) => {
                self.checks.wrong(format!(
                    "read of {:?} answered {other:?}, expected {want:?}",
                    self.keys[k as usize]
                ));
                true
            }
        }
    }

    fn check_write(&mut self, k: u64, value: Value, got: &ClientResult) -> bool {
        match got {
            ClientResult::Ok => {
                self.model[k as usize] = Some(value);
                true
            }
            ClientResult::Failed => {
                self.model[k as usize] = None;
                false
            }
            other => {
                self.checks.wrong(format!(
                    "write of {:?} answered {other:?}",
                    self.keys[k as usize]
                ));
                self.model[k as usize] = None;
                true
            }
        }
    }

    /// Applies one call's answer to the model; false when the call failed.
    fn call_op<C: Cluster>(&mut self, cluster: &C, op: &Op) -> bool {
        match op {
            Op::Write(k) => {
                let v = self.values.next();
                let got = cluster.write_latest(&self.keys[*k as usize], v.clone());
                self.check_write(*k, v, &got)
            }
            Op::Read(k) => {
                let got = cluster.read_latest(&self.keys[*k as usize]);
                self.check_read(*k, &got)
            }
            Op::WriteMany(ks) => {
                let pairs: Vec<(Key, Value)> = ks
                    .iter()
                    .map(|&k| (self.keys[k as usize].clone(), self.values.next()))
                    .collect();
                let got = cluster.write_many(&pairs);
                let children = match got {
                    ClientResult::Many(c) if c.len() == ks.len() => c,
                    other => {
                        self.checks.wrong(format!("write_many answered {other:?}"));
                        ks.iter().for_each(|&k| self.model[k as usize] = None);
                        return true;
                    }
                };
                let mut ok = true;
                for ((&k, (_, v)), child) in ks.iter().zip(pairs).zip(&children) {
                    ok &= self.check_write(k, v, child);
                }
                ok
            }
            Op::ReadMany(ks) => {
                let keys: Vec<Key> = ks.iter().map(|&k| self.keys[k as usize].clone()).collect();
                let got = cluster.read_many(&keys);
                let children = match got {
                    ClientResult::Many(c) if c.len() == ks.len() => c,
                    ClientResult::Failed => return false,
                    other => {
                        self.checks.wrong(format!("read_many answered {other:?}"));
                        return true;
                    }
                };
                let mut ok = true;
                for (&k, child) in ks.iter().zip(&children) {
                    ok &= self.check_read(k, child);
                }
                ok
            }
        }
    }

    fn measure_kv<C: Cluster>(&mut self, cluster: &C, dur: Duration) -> Phase {
        let mut phase = Phase::default();
        let ctx0 = self.ctx_switches();
        phase.span_ns.0 = now_ns();
        let mut meter = Meter::start(&phase);
        let t0 = meter.t0;
        while t0.elapsed() < dur {
            let op = self.stream.next_op();
            let start = now_ns();
            let ok = self.call_op(cluster, &op);
            let end = now_ns();
            phase.latencies_ns.push(end - start);
            if self.record_windows {
                phase.windows.push((start, end));
            }
            phase.calls += 1;
            self.checks.attempted += 1;
            self.checks.failed += u64::from(!ok);
            if phase.calls == self.workload.rss_calls() {
                phase.rss_mb = sys::peak_rss_mb();
            }
            meter.close(&mut phase, SLICE);
        }
        meter.close(&mut phase, (SLICE / 2).min(dur / 2));
        phase.wall_s = t0.elapsed().as_secs_f64();
        phase.span_ns.1 = now_ns();
        phase.ctx_switches = self.ctx_switches() - ctx0;
        if phase.rss_mb == 0.0 {
            phase.rss_mb = sys::peak_rss_mb();
        }
        phase
    }

    /// Context switches so far, read only when recording windows (the
    /// traced run), since the read walks every thread's status file.
    fn ctx_switches(&self) -> u64 {
        if self.record_windows {
            sys::ctx_switches()
        } else {
            0
        }
    }

    /// Open loop at [`FEED_RATE`]: most writes create fresh posts, the rest
    /// overwrite unmonitored rows. Each post's firing lag is measured from
    /// the write's due time.
    fn measure_feed<C: Cluster>(&mut self, cluster: &C, dur: Duration) -> Phase {
        let mut phase = Phase::default();
        let mut pending: HashMap<Key, Post> = HashMap::new();
        let period = Duration::from_secs_f64(1.0 / FEED_RATE);
        let ctx0 = self.ctx_switches();
        phase.span_ns.0 = now_ns();
        let mut meter = Meter::start(&phase);
        let t0 = meter.t0;
        for i in 0.. {
            let due = t0 + period * i;
            if due >= t0 + dur {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            phase
                .late_ns
                .push(Instant::now().duration_since(due).as_nanos() as u64);
            let start = now_ns();
            let ok = if self.feed_rng.next_f64() < FEED_MONITORED {
                self.fresh += 1;
                let key = feed_key(FEED_POSTS, self.fresh);
                let value = self.values.next();
                let called = Instant::now();
                match cluster.write_latest(&key, value.clone()) {
                    ClientResult::Ok => {
                        let slow = called.elapsed() >= RETRY_PAUSE;
                        pending.insert(key, Post { value, due, slow });
                        true
                    }
                    ClientResult::Failed => false,
                    other => {
                        self.checks
                            .wrong(format!("write of {key:?} answered {other:?}"));
                        true
                    }
                }
            } else {
                let k = self.feed_rng.next_below(self.keys.len() as u64);
                let v = self.values.next();
                let got = cluster.write_latest(&self.keys[k as usize], v.clone());
                self.check_write(k, v, &got)
            };
            if self.record_windows {
                phase.windows.push((start, now_ns()));
            }
            phase.calls += 1;
            self.checks.attempted += 1;
            self.checks.failed += u64::from(!ok);
            if phase.calls == self.workload.rss_calls() {
                phase.rss_mb = sys::peak_rss_mb();
            }
            meter.close(&mut phase, SLICE);
        }
        meter.close(&mut phase, (SLICE / 2).min(dur / 2));
        phase.wall_s = t0.elapsed().as_secs_f64();
        phase.span_ns.1 = now_ns();
        phase.ctx_switches = self.ctx_switches() - ctx0;
        if phase.rss_mb == 0.0 {
            phase.rss_mb = sys::peak_rss_mb();
        }
        let fired = self.collect_firings(pending, &mut phase);
        self.check_index(cluster, fired);
        phase
    }

    /// Matches firings to acknowledged posts: each fires once, with its
    /// value; nothing else fires. A slow post may fire again (see
    /// [`Checks::refired`]), but only with its value.
    fn collect_firings(
        &mut self,
        mut pending: HashMap<Key, Post>,
        phase: &mut Phase,
    ) -> Vec<(Key, Value)> {
        let rx = self.firings.take().expect("indexer registered at set-up");
        let mut fired: Vec<(Key, Value)> = Vec::new();
        let mut seen: HashSet<Key> = HashSet::new();
        let mut slow_fired: HashMap<Key, Value> = HashMap::new();
        let deadline = Instant::now() + DRAIN;
        // After the last expected firing, listen one more sweep period for
        // duplicates.
        let mut quiet_until: Option<Instant> = None;
        loop {
            let until = quiet_until.unwrap_or(deadline).min(deadline);
            let Some(left) = until.checked_duration_since(Instant::now()) else {
                break;
            };
            let Ok(f) = rx.recv_timeout(left) else {
                break;
            };
            if is_sentinel(&f.key) {
                continue;
            }
            if let Some(want) = slow_fired.get(&f.key) {
                if f.value.as_ref() == Some(want) {
                    self.checks.refired += 1;
                } else {
                    self.checks.wrong(format!(
                        "{:?} fired again with {:?}, posted {want:?}",
                        f.key, f.value
                    ));
                }
                continue;
            }
            if !seen.insert(f.key.clone()) {
                self.checks.wrong(format!("{:?} fired twice", f.key));
                continue;
            }
            let Some(Post { value, due, slow }) = pending.remove(&f.key) else {
                self.checks
                    .wrong(format!("{:?} fired but was never posted", f.key));
                continue;
            };
            if slow {
                slow_fired.insert(f.key.clone(), value.clone());
            }
            let mut want = value;
            if std::mem::take(&mut self.break_check) {
                let mut bytes = want.as_bytes().to_vec();
                bytes[0] ^= 1;
                want = Value::from(bytes);
            }
            if f.value.as_ref() != Some(&want) {
                self.checks.wrong(format!(
                    "{:?} fired with {:?}, posted {want:?}",
                    f.key, f.value
                ));
            }
            phase
                .latencies_ns
                .push(f.at.saturating_duration_since(due).as_nanos() as u64);
            fired.push((f.key, want));
            if pending.is_empty() && quiet_until.is_none() {
                quiet_until = Some(Instant::now() + Duration::from_millis(60));
            }
        }
        if let Some(key) = pending.keys().next() {
            self.checks.wrong(format!(
                "{} acknowledged posts never fired, e.g. {key:?}",
                pending.len()
            ));
        }
        self.firings = Some(rx);
        fired
    }

    /// Every index write the action emitted must read back. These reads
    /// verify; they are not workload calls, so a read that fails is polled
    /// again rather than counted.
    fn check_index<C: Cluster>(&mut self, cluster: &C, fired: Vec<(Key, Value)>) {
        let mut missing: Vec<(Key, Value)> = fired
            .into_iter()
            .map(|(k, v)| {
                let path = KeyPath::decode(&k).expect("posts are key paths");
                (index_key(&path), v)
            })
            .collect();
        let deadline = Instant::now() + DRAIN;
        while !missing.is_empty() && Instant::now() < deadline {
            let mut still = Vec::new();
            for chunk in missing.chunks(LOAD_GROUP) {
                let keys: Vec<Key> = chunk.iter().map(|(k, _)| k.clone()).collect();
                match cluster.read_many(&keys) {
                    ClientResult::Many(rs) if rs.len() == chunk.len() => {
                        for (r, (k, want)) in rs.iter().zip(chunk) {
                            match r {
                                ClientResult::Latest(Some(vv)) if vv.value == *want => {}
                                _ => still.push((k.clone(), want.clone())),
                            }
                        }
                    }
                    _ => still.extend_from_slice(chunk),
                }
            }
            missing = still;
            if !missing.is_empty() {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        if let Some((k, _)) = missing.first() {
            self.checks.wrong(format!(
                "{} index writes never read back, e.g. {k:?}",
                missing.len()
            ));
        }
    }
}
