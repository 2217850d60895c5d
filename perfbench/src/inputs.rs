//! Workload definitions and the seeded inputs they feed the cluster. The
//! program only ever sees the keys and values generated here. Keys and the
//! random stream come from the repository's workload generator
//! (`sedna_workload::PaperWorkload`, `sedna_common::rng::Xoshiro256`); the
//! unique values and the op streams are the benchmark's own.

use bytes::Bytes;
use sedna_common::rng::Xoshiro256;
use sedna_common::{Key, KeyPath, Value};
use sedna_workload::PaperWorkload;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 50/50 point writes/reads, skewed keys, small working set.
    KvSmall,
    /// The same mix, uniform keys, a working set whose sweep costs ms.
    KvLarge,
    /// `write_many`/`read_many` groups with replica batching on.
    KvBatch,
    /// Open-loop writes feeding a trigger job.
    TriggerFeed,
}

/// Working set of kv_small, kv_batch and trigger_feed's unmonitored table.
pub const SMALL_SET: u64 = 10_000;
/// Working set of kv_large: each node's 20 ms dirty sweep walks every row.
pub const LARGE_SET: u64 = 40_000;
/// Zipf exponent of the skewed workloads.
pub const ZIPF_THETA: f64 = 0.99;
/// Keys per `write_many`/`read_many` group on kv_batch.
pub const BATCH: usize = 16;
/// Keys per `write_many` group while loading a working set.
pub const LOAD_GROUP: usize = 200;
/// trigger_feed's offered write rate (writes per second).
pub const FEED_RATE: f64 = 500.0;
/// Share of trigger_feed writes that go to fresh keys of the monitored table.
pub const FEED_MONITORED: f64 = 0.8;
/// Value size in bytes (the paper's 20 B values).
pub const VALUE_LEN: usize = 20;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "kv_small" => Some(Workload::KvSmall),
            "kv_large" => Some(Workload::KvLarge),
            "kv_batch" => Some(Workload::KvBatch),
            "trigger_feed" => Some(Workload::TriggerFeed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvSmall => "kv_small",
            Workload::KvLarge => "kv_large",
            Workload::KvBatch => "kv_batch",
            Workload::TriggerFeed => "trigger_feed",
        }
    }

    /// Rows loaded before the measured phase.
    pub fn working_set(self) -> u64 {
        match self {
            Workload::KvLarge => LARGE_SET,
            _ => SMALL_SET,
        }
    }

    /// The key of working-set row `i`.
    pub fn key(self, i: u64) -> Key {
        match self {
            Workload::TriggerFeed => feed_key(FEED_OTHER, i),
            _ => PaperWorkload::new().key(i),
        }
    }

    /// Calls after which `rss_mb` is read: the program's resident set grows
    /// with the number of calls, so reading it at a fixed count keeps it
    /// independent of throughput. Each is reached within 20 s even at a
    /// third of the usual rate.
    pub fn rss_calls(self) -> u64 {
        match self {
            Workload::KvSmall | Workload::KvLarge => 50_000,
            Workload::KvBatch => 10_000,
            Workload::TriggerFeed => 5_000,
        }
    }

    pub fn zipf_theta(self) -> Option<f64> {
        match self {
            Workload::KvLarge | Workload::TriggerFeed => None,
            _ => Some(ZIPF_THETA),
        }
    }
}

/// trigger_feed's dataset and tables.
pub const FEED_DATASET: &str = "feed";
pub const FEED_POSTS: &str = "posts";
pub const FEED_OTHER: &str = "other";
pub const FEED_INDEX: &str = "index";

/// A 20 B `test-…` key inside a trigger_feed table.
pub fn feed_key(table: &str, i: u64) -> Key {
    let key = PaperWorkload::new().key(i);
    let key = std::str::from_utf8(key.as_bytes()).expect("paper keys are ASCII");
    KeyPath::new(FEED_DATASET, table, key)
        .expect("valid key path")
        .encode()
}

/// Draws key indices uniformly or Zipf-skewed (index 0 hottest). The Zipf
/// draw inverts the exact CDF: `sedna_workload::KeyChooser::zipfian`
/// approximates it above 4 096 keys, and at theta 0.99 over 10 000 keys that
/// approximation sends about 91 % of draws to key 0 (the exact share is
/// about 10 %).
pub struct KeyChooser {
    n: u64,
    /// Cumulative Zipf weights; empty for uniform.
    cdf: Vec<f64>,
}

impl KeyChooser {
    pub fn new(n: u64, theta: Option<f64>) -> Self {
        let cdf = match theta {
            None => Vec::new(),
            Some(theta) => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (1..=n)
                    .map(|i| {
                        acc += 1.0 / (i as f64).powf(theta);
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                cdf
            }
        };
        KeyChooser { n, cdf }
    }

    pub fn pick(&self, rng: &mut Xoshiro256) -> u64 {
        if self.cdf.is_empty() {
            return rng.next_below(self.n);
        }
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.n - 1)
    }
}

/// Unique 20 B values: 20 decimal digits of `salt ^ seq`.
pub struct Values {
    salt: u64,
    seq: u64,
}

impl Values {
    pub fn new(seed: u64) -> Self {
        Values {
            salt: Xoshiro256::seeded(seed ^ 0xA11_0CA7E).next_u64(),
            seq: 0,
        }
    }

    pub fn next(&mut self) -> Value {
        self.seq += 1;
        let mut n = self.salt ^ self.seq;
        let mut buf = [b'0'; VALUE_LEN];
        for b in buf.iter_mut().rev() {
            *b = b'0' + (n % 10) as u8;
            n /= 10;
        }
        Value::from_bytes(Bytes::copy_from_slice(&buf))
    }
}

/// One client call of the kv workloads.
pub enum Op {
    Write(u64),
    Read(u64),
    WriteMany(Vec<u64>),
    ReadMany(Vec<u64>),
}

/// The seeded op stream of kv_small, kv_large and kv_batch.
pub struct OpStream {
    rng: Xoshiro256,
    chooser: KeyChooser,
    batch: usize,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        OpStream {
            rng: Xoshiro256::seeded(seed),
            chooser: KeyChooser::new(workload.working_set(), workload.zipf_theta()),
            batch: if workload == Workload::KvBatch {
                BATCH
            } else {
                1
            },
        }
    }

    pub fn next_op(&mut self) -> Op {
        let write = self.rng.next_u64() & 1 == 0;
        if self.batch == 1 {
            let k = self.chooser.pick(&mut self.rng);
            return if write { Op::Write(k) } else { Op::Read(k) };
        }
        // Distinct keys per group, so request order fixes every answer.
        let mut keys = Vec::with_capacity(self.batch);
        while keys.len() < self.batch {
            let k = self.chooser.pick(&mut self.rng);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        if write {
            Op::WriteMany(keys)
        } else {
            Op::ReadMany(keys)
        }
    }
}
