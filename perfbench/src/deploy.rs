//! The two deployments the benchmark drives: the program's own
//! [`ThreadCluster`] (untraced runs) and the same actors wired by hand with a
//! span-recording shim around each one (the traced run).

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sedna_common::{Key, Value};
use sedna_coord::messages::EnsembleConfig;
use sedna_coord::replica::CoordReplica;
use sedna_core::cluster::{install_profiling, Gateway, ThreadCluster};
use sedna_core::config::ClusterConfig;
use sedna_core::manager::ClusterManager;
use sedna_core::messages::{ClientFrame, ClientOp, ClientResult, ControlMsg, ReplicaOp, SednaMsg};
use sedna_core::node::SednaNode;
use sedna_net::actor::{Actor, ActorId, Ctx, MessageSize, TimerToken};
use sedna_net::threaded::{ExternalHandle, ThreadNet, ThreadNetConfig};
use sedna_obs::journal::{Event, EventJournal, EventKind};
use sedna_obs::AlertEngine;
use sedna_triggers::JobSpec;

use crate::alloc;

/// The client surface the workloads drive.
pub trait Cluster {
    fn write_latest(&self, key: &Key, value: Value) -> ClientResult;
    fn read_latest(&self, key: &Key) -> ClientResult;
    fn write_many(&self, pairs: &[(Key, Value)]) -> ClientResult;
    fn read_many(&self, keys: &[Key]) -> ClientResult;
    fn register_job_everywhere(&self, make: &mut dyn FnMut() -> JobSpec);
    /// Data nodes whose join the manager has recorded.
    fn nodes_joined(&self) -> usize;
}

fn nodes_joined(events: &[Event]) -> usize {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Membership { node, joined: true } => Some(node),
            _ => None,
        })
        .collect::<HashSet<_>>()
        .len()
}

impl Cluster for ThreadCluster {
    fn write_latest(&self, key: &Key, value: Value) -> ClientResult {
        ThreadCluster::write_latest(self, key, value)
    }
    fn read_latest(&self, key: &Key) -> ClientResult {
        ThreadCluster::read_latest(self, key)
    }
    fn write_many(&self, pairs: &[(Key, Value)]) -> ClientResult {
        ThreadCluster::write_many(self, pairs)
    }
    fn read_many(&self, keys: &[Key]) -> ClientResult {
        ThreadCluster::read_many(self, keys)
    }
    fn register_job_everywhere(&self, make: &mut dyn FnMut() -> JobSpec) {
        ThreadCluster::register_job_everywhere(self, make)
    }
    fn nodes_joined(&self) -> usize {
        nodes_joined(&self.journal_events())
    }
}

/// Nanoseconds since the first call in this process; every span and call
/// window uses this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Which part of the deployment an actor is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Coord,
    Manager,
    Node,
    Gateway,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Coord => "coord",
            Role::Manager => "manager",
            Role::Node => "node",
            Role::Gateway => "gateway",
        }
    }
}

/// One handler call of one actor.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub role: Role,
    pub actor: u32,
    /// Message or timer kind (see [`msg_kind`], [`timer_kind`]).
    pub kind: &'static str,
    pub timer: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    /// `MessageSize` bytes of the delivered message (0 for timers).
    pub bytes: u64,
    /// The `TraceId` a replica frame carries (0 when it carries none).
    pub trace: u64,
}

fn replica_kind(op: &ReplicaOp) -> &'static str {
    match op {
        ReplicaOp::Write { .. } => "write",
        ReplicaOp::WriteAck { .. } => "write_ack",
        ReplicaOp::Read { .. } => "read",
        ReplicaOp::ReadReply { .. } => "read_reply",
        ReplicaOp::Push { .. } => "push",
        ReplicaOp::PushAck { .. } => "push_ack",
        ReplicaOp::Batch { .. } => "batch",
        ReplicaOp::AckBatch { .. } => "ack_batch",
        ReplicaOp::TransferRequest { .. }
        | ReplicaOp::TransferData { .. }
        | ReplicaOp::TransferComplete { .. } => "transfer",
        ReplicaOp::SyncDigest { .. }
        | ReplicaOp::SyncRootMatch { .. }
        | ReplicaOp::SyncLeaves { .. }
        | ReplicaOp::SyncRows { .. } => "sync",
        _ => "replica_other",
    }
}

/// Span kind of a delivered message.
pub fn msg_kind(msg: &SednaMsg) -> &'static str {
    match msg {
        SednaMsg::Coord(_) => "coord",
        SednaMsg::Replica(op) => replica_kind(op),
        SednaMsg::Client(ClientFrame::Request { .. }) => "client_request",
        SednaMsg::Client(ClientFrame::Response { .. }) => "client_response",
        SednaMsg::Control(_) => "control",
    }
}

/// The `TraceId` a replica frame carries (a batch: its first sub-op's).
fn trace_of(op: &ReplicaOp) -> u64 {
    match op {
        ReplicaOp::Write { trace, .. } | ReplicaOp::Read { trace, .. } => trace.0,
        ReplicaOp::Batch { ops } => ops.first().map_or(0, trace_of),
        _ => 0,
    }
}

/// Span kind of a timer. The token values mirror the private constants of
/// `SednaNode` and `Gateway`; any other token is reported as `timer`.
pub fn timer_kind(role: Role, token: TimerToken) -> &'static str {
    match (role, token.0) {
        (Role::Node, 0xDA_01) => "node_tick",
        (Role::Node, 0xDA_02) => "node_sweep",
        (Role::Node, 0xDA_03) => "node_persist",
        (Role::Node, 0xDA_04) => "node_stats",
        (Role::Node, 0xDA_05) => "node_anti_entropy",
        (Role::Gateway, 0x6A_01) => "gateway_tick",
        _ => "timer",
    }
}

/// Wraps an actor and records a [`Span`] per handler call while recording
/// is on.
pub struct Shim {
    inner: Box<dyn Actor<Msg = SednaMsg>>,
    role: Role,
    actor: u32,
    recording: Arc<AtomicBool>,
    spans: Vec<Span>,
}

impl Shim {
    fn begin(&self) -> Option<(u64, u64)> {
        self.recording
            .load(Ordering::Relaxed)
            .then(|| (now_ns(), alloc::thread_allocs()))
    }

    fn end(
        &mut self,
        begun: Option<(u64, u64)>,
        kind: &'static str,
        timer: bool,
        bytes: u64,
        trace: u64,
    ) {
        if let Some((start_ns, allocs0)) = begun {
            self.spans.push(Span {
                role: self.role,
                actor: self.actor,
                kind,
                timer,
                start_ns,
                end_ns: now_ns(),
                allocs: alloc::thread_allocs() - allocs0,
                bytes,
                trace,
            });
        }
    }
}

impl Actor for Shim {
    type Msg = SednaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        let begun = self.begin();
        self.inner.on_start(ctx);
        self.end(begun, "start", false, 0, 0);
    }

    fn on_message(&mut self, from: ActorId, msg: SednaMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        let begun = self.begin();
        let (kind, bytes, trace) = if begun.is_some() {
            let trace = match &msg {
                SednaMsg::Replica(op) => trace_of(op),
                _ => 0,
            };
            (msg_kind(&msg), msg.size_bytes() as u64, trace)
        } else {
            ("", 0, 0)
        };
        self.inner.on_message(from, msg, ctx);
        self.end(begun, kind, false, bytes, trace);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
        let begun = self.begin();
        self.inner.on_timer(token, ctx);
        self.end(begun, timer_kind(self.role, token), true, 0, 0);
    }

    fn service_micros(&self, msg: &SednaMsg) -> u64 {
        self.inner.service_micros(msg)
    }
}

/// The traced deployment: the actors `ThreadCluster::start` wires together
/// (coordination replicas, manager, data nodes, one gateway) with the same
/// config, alert engine and profiling hooks, each wrapped in a [`Shim`].
pub struct Traced {
    handle: ExternalHandle<SednaMsg>,
    config: ClusterConfig,
    gateway: ActorId,
    next_op: Cell<u64>,
    recording: Arc<AtomicBool>,
    manager_journal: Arc<EventJournal>,
}

impl Traced {
    pub fn start(config: ClusterConfig) -> Self {
        install_profiling();
        let recording = Arc::new(AtomicBool::new(false));
        let mut net = ThreadNet::new(ThreadNetConfig::default());
        let mut add = |inner: Box<dyn Actor<Msg = SednaMsg>>, role: Role, index: u32| {
            net.add_actor(Box::new(Shim {
                inner,
                role,
                actor: index,
                recording: recording.clone(),
                spans: Vec::new(),
            }))
        };
        let ens = EnsembleConfig::lan(config.coord_actors());
        let mut index = 0;
        for i in 0..config.coord_replicas as u32 {
            add(
                Box::new(CoordReplica::<SednaMsg>::new(ens.clone(), i)),
                Role::Coord,
                index,
            );
            index += 1;
        }
        let alerts = Arc::new(AlertEngine::new(
            AlertEngine::default_specs(),
            Some(Arc::new(EventJournal::new(config.journal_capacity))),
        ));
        alerts.set_enabled(config.metrics_enabled);
        let manager = ClusterManager::new(config.clone());
        let manager_journal = manager.journal();
        add(Box::new(manager), Role::Manager, index);
        index += 1;
        for n in 0..config.data_nodes as u32 {
            let mut node = SednaNode::new(config.clone(), sedna_common::NodeId(n), None);
            node.set_alert_engine(alerts.clone());
            add(Box::new(node), Role::Node, index);
            index += 1;
        }
        let mut gw = Gateway::new(config.clone(), config.client_origin(0));
        gw.set_alert_engine(alerts);
        let gateway = add(Box::new(gw), Role::Gateway, index);
        Traced {
            handle: net.start(),
            config,
            gateway,
            next_op: Cell::new(0),
            recording,
            manager_journal,
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Stops every actor thread and returns all recorded spans.
    pub fn stop(self) -> Vec<Span> {
        let mut spans = Vec::new();
        for actor in self.handle.shutdown() {
            if let Some(shim) = actor.as_any().downcast_ref::<Shim>() {
                spans.extend_from_slice(&shim.spans);
            }
        }
        spans
    }

    /// One request/response exchange with the gateway, as `ThreadCluster`
    /// does it.
    fn call(&self, op: ClientOp, timeout: Duration) -> ClientResult {
        let op_id = self.next_op.get() + 1;
        self.next_op.set(op_id);
        self.handle.send(
            self.gateway,
            SednaMsg::Client(ClientFrame::Request { op_id, op }),
        );
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return ClientResult::Failed;
            }
            match self.handle.recv_timeout(remaining) {
                Some((_, SednaMsg::Client(ClientFrame::Response { op_id: got, result })))
                    if got == op_id =>
                {
                    return result;
                }
                Some(_) => continue,
                None => return ClientResult::Failed,
            }
        }
    }

    /// Writes retry while every key failed, with `ThreadCluster`'s policy.
    fn retry_write(&self, op: ClientOp) -> ClientResult {
        fn all_failed(result: &ClientResult) -> bool {
            match result {
                ClientResult::Failed => true,
                ClientResult::Many(children) => {
                    !children.is_empty()
                        && children.iter().all(|c| matches!(c, ClientResult::Failed))
                }
                _ => false,
            }
        }
        for _ in 0..50 {
            match self.call(op.clone(), Duration::from_secs(2)) {
                result if all_failed(&result) => std::thread::sleep(Duration::from_millis(50)),
                done => return done,
            }
        }
        ClientResult::Failed
    }
}

impl Cluster for Traced {
    fn write_latest(&self, key: &Key, value: Value) -> ClientResult {
        self.retry_write(ClientOp::WriteLatest {
            key: key.clone(),
            value,
        })
    }
    fn read_latest(&self, key: &Key) -> ClientResult {
        self.call(
            ClientOp::ReadLatest { key: key.clone() },
            Duration::from_secs(2),
        )
    }
    fn write_many(&self, pairs: &[(Key, Value)]) -> ClientResult {
        self.retry_write(ClientOp::WriteMany {
            pairs: pairs.to_vec(),
        })
    }
    fn read_many(&self, keys: &[Key]) -> ClientResult {
        self.call(
            ClientOp::ReadMany {
                keys: keys.to_vec(),
            },
            Duration::from_secs(2),
        )
    }
    fn register_job_everywhere(&self, make: &mut dyn FnMut() -> JobSpec) {
        for n in 0..self.config.data_nodes as u32 {
            self.handle.send(
                self.config.node_actor(sedna_common::NodeId(n)),
                SednaMsg::Control(ControlMsg::RegisterJob(make())),
            );
        }
    }
    fn nodes_joined(&self) -> usize {
        nodes_joined(&self.manager_journal.events())
    }
}
