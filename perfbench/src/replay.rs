//! The workload's key/value stream replayed through `MemStore` and
//! `TriggerEngine`'s public APIs, on the benchmark's own thread.

use std::hint::black_box;
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::Instant;

use sedna_common::rng::Xoshiro256;
use sedna_common::{Key, NodeId, Timestamp, Value};
use sedna_memstore::store::{BatchWrite, MemStore, StoreConfig};
use sedna_triggers::{TriggerEngine, TriggerSink, WriteMode};

use crate::alloc;
use crate::drive::indexer_job;
use crate::inputs::{feed_key, Op, OpStream, Values, Workload, BATCH, FEED_MONITORED, FEED_POSTS};

/// Ops replayed per timed pass.
const REPLAY_OPS: usize = 100_000;
/// Rows written per dispatch round, and rounds.
const DISPATCH_ROWS: u64 = 4_000;
const DISPATCH_ROUNDS: usize = 5;
/// Timed sweeps of the loaded store.
const SWEEPS: usize = 7;

pub struct Figures {
    pub write_ns: f64,
    pub read_ns: f64,
    pub batch_ns_per_key: f64,
    pub allocs_per_op: f64,
    pub sweep_ns_per_row: f64,
    pub bytes_per_key: f64,
    pub dispatch_us_per_record: f64,
}

/// The store a data node builds for itself.
fn node_store() -> MemStore {
    MemStore::new(StoreConfig {
        shards: 16,
        ..StoreConfig::default()
    })
}

struct Stamp(u64);

impl Stamp {
    fn next(&mut self) -> Timestamp {
        self.0 += 1;
        Timestamp::new(self.0, 0, NodeId(1_000))
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Keys this workload writes and reads, flattened to single-key ops.
fn key_stream(w: Workload, seed: u64, keys: &[Key]) -> (Vec<Key>, Vec<Key>) {
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    if w == Workload::TriggerFeed {
        let mut rng = Xoshiro256::seeded(seed ^ 0xFEED);
        for i in 0..REPLAY_OPS as u64 {
            let key = if rng.next_f64() < FEED_MONITORED {
                feed_key(FEED_POSTS, i)
            } else {
                keys[rng.next_below(keys.len() as u64) as usize].clone()
            };
            reads.push(key.clone());
            writes.push(key);
        }
        return (writes, reads);
    }
    let mut stream = OpStream::new(w, seed);
    while writes.len() + reads.len() < REPLAY_OPS {
        match stream.next_op() {
            Op::Write(k) => writes.push(keys[k as usize].clone()),
            Op::Read(k) => reads.push(keys[k as usize].clone()),
            Op::WriteMany(ks) => writes.extend(ks.iter().map(|&k| keys[k as usize].clone())),
            Op::ReadMany(ks) => reads.extend(ks.iter().map(|&k| keys[k as usize].clone())),
        }
    }
    (writes, reads)
}

pub fn run(w: Workload, seed: u64) -> Figures {
    let keys: Vec<Key> = (0..w.working_set()).map(|i| w.key(i)).collect();
    let mut values = Values::new(seed ^ 0x5EED);
    let mut stamp = Stamp(0);

    // Footprint: heap bytes the loaded working set holds, per key.
    let live0 = alloc::thread_live_bytes();
    let store = node_store();
    for k in &keys {
        store.write_latest(k, stamp.next(), values.next());
    }
    let bytes_per_key = (alloc::thread_live_bytes() - live0) as f64 / keys.len() as f64;

    // The dirty sweep every node runs each 20 ms, over a clean store.
    black_box(store.scan_dirty());
    let sweeps = (0..SWEEPS)
        .map(|_| {
            let t = Instant::now();
            black_box(store.scan_dirty());
            t.elapsed().as_nanos() as f64 / keys.len() as f64
        })
        .collect();
    let sweep_ns_per_row = median(sweeps);

    let (write_keys, read_keys) = key_stream(w, seed, &keys);
    let write_vals: Vec<Value> = write_keys.iter().map(|_| values.next()).collect();
    let stamps: Vec<Timestamp> = write_keys.iter().map(|_| stamp.next()).collect();

    let allocs0 = alloc::thread_allocs();
    let t = Instant::now();
    for ((k, v), ts) in write_keys.iter().zip(&write_vals).zip(&stamps) {
        black_box(store.write_latest(k, *ts, v.clone()));
    }
    let write_ns = t.elapsed().as_nanos() as f64 / write_keys.len() as f64;
    let t = Instant::now();
    for k in &read_keys {
        black_box(store.read_latest(k));
    }
    let read_ns = t.elapsed().as_nanos() as f64 / read_keys.len() as f64;
    let allocs_per_op =
        (alloc::thread_allocs() - allocs0) as f64 / (write_keys.len() + read_keys.len()) as f64;

    // The same keys in groups, through the batched entry points.
    let groups: Vec<Vec<BatchWrite>> = write_keys
        .chunks(BATCH)
        .map(|chunk| {
            chunk
                .iter()
                .map(|k| BatchWrite {
                    key: k.clone(),
                    ts: stamp.next(),
                    value: values.next(),
                    ctx: Default::default(),
                    latest: true,
                })
                .collect()
        })
        .collect();
    let t = Instant::now();
    for g in &groups {
        black_box(store.apply_batch(g));
    }
    for chunk in read_keys.chunks(BATCH) {
        black_box(store.get_many(chunk));
    }
    let batch_ns_per_key =
        t.elapsed().as_nanos() as f64 / (write_keys.len() + read_keys.len()) as f64;

    Figures {
        write_ns,
        read_ns,
        batch_ns_per_key,
        allocs_per_op,
        sweep_ns_per_row,
        bytes_per_key,
        dispatch_us_per_record: dispatch(w, seed, &keys),
    }
}

/// Collects emitted writes, as a node's buffer sink does.
#[derive(Default)]
struct Collect(Mutex<Vec<(Key, Value, WriteMode)>>);

impl TriggerSink for Collect {
    fn apply(&self, key: &Key, value: Value, mode: WriteMode) {
        self.0
            .lock()
            .expect("sink lock never poisoned")
            .push((key.clone(), value, mode));
    }
}

/// `TriggerEngine::dispatch` over the dirty records of this workload's
/// writes. trigger_feed registers its indexer; the kv workloads register no
/// job, as their nodes run with none.
fn dispatch(w: Workload, seed: u64, keys: &[Key]) -> f64 {
    let store = node_store();
    let engine = TriggerEngine::new();
    let (tx, rx) = channel();
    if w == Workload::TriggerFeed {
        engine.register_job(&store, indexer_job(0, tx), 0);
    }
    let mut values = Values::new(seed ^ 0xD15);
    let mut rng = Xoshiro256::seeded(seed ^ 0xD15);
    let mut stamp = Stamp(0);
    let mut fresh = 0;
    let mut per_record = Vec::new();
    for round in 0..DISPATCH_ROUNDS {
        for _ in 0..DISPATCH_ROWS {
            let key = if w == Workload::TriggerFeed && rng.next_f64() < FEED_MONITORED {
                fresh += 1;
                feed_key(FEED_POSTS, fresh)
            } else {
                keys[rng.next_below(keys.len() as u64) as usize].clone()
            };
            store.write_latest(&key, stamp.next(), values.next());
        }
        let records = store.scan_dirty();
        let sink = Collect::default();
        // Distinct rounds sit a trigger interval apart, as sweeps do.
        let now = round as u64 * 1_000_000;
        let t = Instant::now();
        black_box(engine.dispatch(&records, &sink, now));
        per_record.push(t.elapsed().as_nanos() as f64 / 1e3 / records.len() as f64);
        while rx.try_recv().is_ok() {}
    }
    median(per_record)
}
