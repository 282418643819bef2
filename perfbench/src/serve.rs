//! The served path: deployment behind a real TCP server, the closed-loop
//! client, the update probe, and the crash and reopen.
//!
//! Everything runs with the program's defaults (`ServiceConfig`,
//! `ShardedConfig`, `ServerConfig`, `StorageConfig`); the only thing the
//! benchmark chooses is the storage directory.

use crate::data::{Dataset, Op, Traffic, Workload};
use rknnt_core::RknntQuery;
use rknnt_index::TransitionId;
use rknnt_net::{Backend, Client, ClientConfig, Reply, Server, ServerConfig};
use rknnt_obs::{MetricsRegistry, MetricsSnapshot};
use rknnt_service::{
    QueryService, ServiceConfig, ShardedConfig, ShardedService, StorageConfig, StoreUpdate,
};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reply slower than this is a failed operation, not a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Pause before each probe batch.
const PROBE_PAUSE: Duration = Duration::from_millis(3);
/// Length of the alternating untraced / traced slices of a traced window.
pub const SLICE: Duration = Duration::from_millis(250);

/// A standing query the client registered.
pub struct ClientSubscription {
    /// Server-side handle.
    pub handle: u64,
    /// The standing query.
    pub query: Arc<RknntQuery>,
    /// Its result when registered.
    pub initial: Vec<TransitionId>,
}

/// A running server with its one client connection.
pub struct Deployment {
    /// The TCP server owning the backend.
    pub server: Server,
    /// The workload's single connection.
    pub client: Client,
    /// Live handles to the backend's metric registries (the router's and
    /// every shard's for a sharded backend).
    pub registries: Vec<MetricsRegistry>,
    /// `churn` standing queries.
    pub subscriptions: Vec<ClientSubscription>,
    /// Time the initial checkpoint (`attach_storage`) took.
    pub checkpoint: Duration,
}

/// Builds the backend over `dataset`, makes it durable in `dir`, warms
/// what the workload needs, and connects the client.
pub fn deploy(
    workload: Workload,
    dataset: &Dataset,
    traffic: &Traffic<'_>,
    dir: &Path,
) -> Result<Deployment, String> {
    let storage = StorageConfig::default();
    let (backend, registries, checkpoint) = if workload == Workload::Local {
        let mut service = ShardedService::bulk_build(
            ShardedConfig::default(),
            dataset.city.routes.clone(),
            dataset.pairs.clone(),
        );
        let started = Instant::now();
        service
            .attach_storage(dir, storage)
            .map_err(|e| format!("attach storage: {e}"))?;
        let checkpoint = started.elapsed();
        let mut registries = vec![service.metrics().registry().clone()];
        for index in 0..service.shard_count() {
            let shard = service.shard_service(index).expect("shard in range");
            registries.push(shard.metrics().registry().clone());
        }
        (Backend::Sharded(service), registries, checkpoint)
    } else {
        let (routes, transitions) = dataset.stores();
        let mut service = QueryService::new(routes, transitions, ServiceConfig::default());
        let started = Instant::now();
        service
            .attach_storage(dir, storage)
            .map_err(|e| format!("attach storage: {e}"))?;
        let checkpoint = started.elapsed();
        if workload == Workload::Hot {
            let pool: Vec<RknntQuery> = traffic.pool.iter().map(|q| (**q).clone()).collect();
            service.execute_batch(&pool);
        }
        let registries = vec![service.metrics().registry().clone()];
        (Backend::Single(service), registries, checkpoint)
    };
    let server = Server::start(backend, ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientConfig::default().with_read_timeout(READ_TIMEOUT),
    )
    .map_err(|e| format!("connect: {e}"))?;
    let mut subscriptions = Vec::new();
    for query in &traffic.subscriptions {
        match client.subscribe(query) {
            Ok(Reply::Answered(sub)) => subscriptions.push(ClientSubscription {
                handle: sub.subscription,
                query: query.clone(),
                initial: sub.transitions,
            }),
            Ok(Reply::Overloaded(_)) => return Err("subscribe was shed".into()),
            Err(e) => return Err(format!("subscribe: {e}")),
        }
    }
    Ok(Deployment {
        server,
        client,
        registries,
        subscriptions,
        checkpoint,
    })
}

/// Stops a deployment without crashing it (set-up repetitions).
pub fn teardown(deployment: Deployment) {
    drop(deployment.client);
    drop(deployment.server.stop());
}

/// What happened to one sent operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A query answer, as [`digest`] of its transition ids.
    Answered(u64),
    /// An update batch acknowledged with every update applied.
    Acked,
    /// Shed with a typed `Overloaded` reply.
    Shed,
    /// An error, a timeout, a broken connection, or an acknowledgement
    /// that did not apply the whole batch.
    Failed,
}

/// The fixed-size account of one sent operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// [`fingerprint`] of the operation, to re-pair it with its
    /// regenerated operation.
    pub fingerprint: u64,
    /// Send time, in nanoseconds since the run's epoch.
    pub sent_ns: u64,
    /// Client-side round trip, in nanoseconds.
    pub rtt_ns: u64,
    /// What came back.
    pub outcome: Outcome,
    /// Sent during a traced slice.
    pub traced: bool,
    /// Sent inside the timed window to the served backend (the probe goes
    /// to the recovery fixture).
    pub in_window: bool,
}

/// One operation sent during the run, with its account.
pub struct Record {
    /// The operation.
    pub op: Op,
    /// Send time, in nanoseconds since the run's epoch.
    pub sent_ns: u64,
    /// Client-side round trip, in nanoseconds.
    pub rtt_ns: u64,
    /// What came back.
    pub outcome: Outcome,
    /// Sent during a traced slice.
    pub traced: bool,
    /// Sent inside the timed window (the probe is not).
    pub in_window: bool,
}

/// Bytes of one [`Entry`] in the [`Log`] file.
const ENTRY_BYTES: usize = 36;

/// Streams [`Entry`]s to a file during the window, so the client's
/// bookkeeping stays a fixed-size buffer however many operations the
/// server completes: `peak_rss_mb` then reads the server's memory, not the
/// length of the log. Operations themselves are not kept at all; they are
/// regenerated from the seed afterwards.
pub struct Log {
    path: PathBuf,
    out: BufWriter<File>,
    pushed: usize,
}

impl Log {
    /// Creates (or truncates) the log file.
    pub fn create(path: PathBuf) -> Result<Log, String> {
        let file = File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Log {
            path,
            out: BufWriter::new(file),
            pushed: 0,
        })
    }

    fn push(&mut self, entry: &Entry) -> Result<(), String> {
        let (tag, digest) = match entry.outcome {
            Outcome::Answered(d) => (0u8, d),
            Outcome::Acked => (1, 0),
            Outcome::Shed => (2, 0),
            Outcome::Failed => (3, 0),
        };
        let mut bytes = [0u8; ENTRY_BYTES];
        bytes[0] = tag;
        bytes[1] = u8::from(entry.traced);
        bytes[2] = u8::from(entry.in_window);
        bytes[4..12].copy_from_slice(&digest.to_le_bytes());
        bytes[12..20].copy_from_slice(&entry.fingerprint.to_le_bytes());
        bytes[20..28].copy_from_slice(&entry.sent_ns.to_le_bytes());
        bytes[28..36].copy_from_slice(&entry.rtt_ns.to_le_bytes());
        self.pushed += 1;
        self.out
            .write_all(&bytes)
            .map_err(|e| format!("write {}: {e}", self.path.display()))
    }

    /// Reads every entry back and removes the file.
    pub fn finish(self) -> Result<Vec<Entry>, String> {
        let Log { path, out, .. } = self;
        out.into_inner()
            .map_err(|e| format!("flush {}: {e}", path.display()))?;
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let _ = std::fs::remove_file(&path);
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
        Ok(bytes
            .chunks_exact(ENTRY_BYTES)
            .map(|b| Entry {
                outcome: match b[0] {
                    0 => Outcome::Answered(word(&b[4..12])),
                    1 => Outcome::Acked,
                    2 => Outcome::Shed,
                    _ => Outcome::Failed,
                },
                traced: b[1] == 1,
                in_window: b[2] == 1,
                fingerprint: word(&b[12..20]),
                sent_ns: word(&b[20..28]),
                rtt_ns: word(&b[28..36]),
            })
            .collect())
    }
}

/// Pairs log entries with their operations, checking each fingerprint.
pub fn pair(entries: Vec<Entry>, ops: Vec<Op>) -> Result<Vec<Record>, String> {
    if entries.len() != ops.len() {
        return Err(format!(
            "log holds {} entries for {} regenerated operations",
            entries.len(),
            ops.len()
        ));
    }
    entries
        .into_iter()
        .zip(ops)
        .enumerate()
        .map(|(i, (entry, op))| {
            if fingerprint(&op) != entry.fingerprint {
                return Err(format!(
                    "op {i}: regenerated operation differs from the one sent"
                ));
            }
            Ok(Record {
                op,
                sent_ns: entry.sent_ns,
                rtt_ns: entry.rtt_ns,
                outcome: entry.outcome,
                traced: entry.traced,
                in_window: entry.in_window,
            })
        })
        .collect()
}

/// FNV-1a over a sorted id list: answers are compared by digest so the
/// client keeps 8 bytes per answer instead of the answer.
pub fn digest(ids: &[TransitionId]) -> u64 {
    fnv(ids.len() as u64, ids.iter().map(|id| u64::from(id.0)))
}

/// A cheap identity of an operation.
pub fn fingerprint(op: &Op) -> u64 {
    match op {
        Op::Query(q) => fnv(
            q.k as u64,
            q.route.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
        ),
        Op::Update(batch) => fnv(u64::MAX - batch.len() as u64, std::iter::empty()),
    }
}

fn fnv(seed: u64, words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Operations after which the window reads the peak resident set: a fixed
/// amount of work, so the reading does not grow with throughput (every
/// `cold` answer enters the cache, for one). `cold` completes them in
/// about 5 s.
const RSS_MARK_OPS: usize = 500;

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The timed window's bookkeeping.
pub struct Window {
    /// Peak resident set, in MiB, after [`RSS_MARK_OPS`] operations (or
    /// at the end of a window that completed fewer).
    pub peak_rss_mb: f64,
    /// Wall time from the first send to the last reply.
    pub elapsed: Duration,
    /// Time spent in untraced / traced slices (traced runs only).
    pub slice_time: [Duration; 2],
    /// Operations drawn from the traffic stream (one more than were sent
    /// when an update was drawn as the window closed).
    pub drawn: usize,
    /// Operations sent.
    pub sent: usize,
}

/// Runs the closed loop for `seconds`, logging one [`Entry`] per
/// operation in send order. With `sliced`, consecutive [`SLICE`]s
/// alternate between untraced and traced (`Entry::traced`).
pub fn run_window(
    workload: Workload,
    deployment: &mut Deployment,
    traffic: &mut Traffic<'_>,
    seconds: f64,
    sliced: bool,
    epoch: Instant,
    log: &mut Log,
) -> Result<Window, String> {
    let client = &mut deployment.client;
    let depth = workload.depth();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let traced_at =
        |at: Instant| sliced && (at.duration_since(start).as_nanos() / SLICE.as_nanos()) % 2 == 1;
    let ns = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
    // (request id, entry, send instant) of each query in flight; replies
    // come back in send order on the one connection.
    let mut inflight: VecDeque<(u64, Entry, Instant)> = VecDeque::new();
    let mut stash: Option<Op> = None;
    let mut broken = false;
    let (mut drawn, mut sent) = (0usize, 0usize);
    let mut peak_rss = None;
    loop {
        if peak_rss.is_none() && log.pushed >= RSS_MARK_OPS {
            peak_rss = Some(peak_rss_mb()?);
        }
        while !broken && inflight.len() < depth && Instant::now() < deadline {
            let op = match stash.take() {
                Some(op) => op,
                None => {
                    drawn += 1;
                    traffic.next_op()
                }
            };
            let at = Instant::now();
            let mut entry = Entry {
                fingerprint: fingerprint(&op),
                sent_ns: ns(at),
                rtt_ns: 0,
                outcome: Outcome::Failed,
                traced: traced_at(at),
                in_window: true,
            };
            match op {
                Op::Query(query) => {
                    sent += 1;
                    match client.send_query(&query) {
                        Ok(id) => inflight.push_back((id, entry, at)),
                        Err(_) => {
                            broken = true;
                            log.push(&entry)?;
                        }
                    }
                }
                Op::Update(batch) => {
                    if !inflight.is_empty() {
                        stash = Some(Op::Update(batch));
                        break;
                    }
                    sent += 1;
                    let (outcome, rtt_ns) = send_updates(client, batch, at);
                    entry.outcome = outcome;
                    entry.rtt_ns = rtt_ns;
                    broken = outcome == Outcome::Failed;
                    log.push(&entry)?;
                }
            }
        }
        let Some((id, mut entry, at)) = inflight.pop_front() else {
            if broken || Instant::now() >= deadline {
                break;
            }
            continue;
        };
        let reply = client.recv_query_reply();
        entry.rtt_ns = at.elapsed().as_nanos() as u64;
        entry.outcome = match reply {
            Ok((rid, Reply::Answered(ids))) if rid == id => Outcome::Answered(digest(&ids)),
            Ok((rid, Reply::Overloaded(_))) if rid == id => Outcome::Shed,
            _ => {
                // The connection is out of step or gone: every request still
                // in flight fails with it.
                broken = true;
                Outcome::Failed
            }
        };
        log.push(&entry)?;
        if broken {
            for (_, entry, _) in inflight.drain(..) {
                log.push(&entry)?;
            }
        }
    }
    let elapsed = start.elapsed();
    let mut slice_time = [Duration::ZERO; 2];
    if sliced {
        let slices = (elapsed.as_nanos() / SLICE.as_nanos()) as u32;
        let rest = elapsed - SLICE * slices;
        slice_time[0] = SLICE * slices.div_ceil(2);
        slice_time[1] = SLICE * (slices / 2);
        slice_time[(slices % 2) as usize] += rest;
    }
    let peak_rss_mb = match peak_rss {
        Some(mb) => mb,
        None => peak_rss_mb()?,
    };
    Ok(Window {
        peak_rss_mb,
        elapsed,
        slice_time,
        drawn,
        sent,
    })
}

/// Sends one update batch; returns its outcome and round trip.
fn send_updates(client: &mut Client, batch: Vec<StoreUpdate>, at: Instant) -> (Outcome, u64) {
    let expected = batch.len() as u64;
    let reply = client.apply_updates(batch);
    let rtt_ns = at.elapsed().as_nanos() as u64;
    let outcome = match reply {
        Ok(Reply::Answered(counts)) if counts.applied == expected && counts.rejected == 0 => {
            Outcome::Acked
        }
        Ok(Reply::Overloaded(_)) => Outcome::Shed,
        _ => Outcome::Failed,
    };
    (outcome, rtt_ns)
}

/// Sends the probe batches one at a time with a short pause between them,
/// so the samples spread over the disk's behaviour instead of one burst;
/// stops at the first failure. Returns how many were sent.
pub fn run_probe(
    deployment: &mut Deployment,
    batches: &[Vec<StoreUpdate>],
    epoch: Instant,
    log: &mut Log,
) -> Result<usize, String> {
    for (sent, batch) in batches.iter().enumerate() {
        std::thread::sleep(PROBE_PAUSE);
        let at = Instant::now();
        let (outcome, rtt_ns) = send_updates(&mut deployment.client, batch.clone(), at);
        log.push(&Entry {
            fingerprint: fingerprint(&Op::Update(batch.clone())),
            sent_ns: at.saturating_duration_since(epoch).as_nanos() as u64,
            rtt_ns,
            outcome,
            traced: false,
            in_window: false,
        })?;
        if outcome == Outcome::Failed {
            return Ok(sent + 1);
        }
    }
    Ok(batches.len())
}

/// Snapshots every registry of the backend.
pub fn snapshot(registries: &[MetricsRegistry]) -> Vec<MetricsSnapshot> {
    registries.iter().map(MetricsRegistry::snapshot).collect()
}

/// A backend reopened from its storage directory.
pub enum Reopened {
    /// A single service.
    Single(QueryService),
    /// A sharded fleet.
    Sharded(ShardedService),
}

impl Reopened {
    /// Executes one query in process.
    pub fn execute(&self, query: &RknntQuery) -> Vec<TransitionId> {
        match self {
            Reopened::Single(s) => s.execute(query).transitions,
            Reopened::Sharded(s) => s.execute(query).transitions,
        }
    }
}

/// Kills the server the way a crash would — queue dropped, connections
/// severed, no shutdown work — and drops the backend without a checkpoint.
pub fn crash(deployment: Deployment) {
    deployment
        .server
        .kill("benchmark crash point after the last acknowledgement");
    drop(deployment.client);
    drop(deployment.server.stop());
}

/// Reopens the crashed directory through the program's recovery entry
/// point, returning the backend and the time the call took.
pub fn reopen(workload: Workload, dir: &Path) -> Result<(Reopened, Duration), String> {
    let storage = StorageConfig::default();
    let started = Instant::now();
    let reopened = if workload == Workload::Local {
        let (service, _) = ShardedService::open(dir, ShardedConfig::default(), storage)
            .map_err(|e| format!("reopen sharded: {e}"))?;
        Reopened::Sharded(service)
    } else {
        let (service, _) = QueryService::open(dir, ServiceConfig::default(), storage)
            .map_err(|e| format!("reopen: {e}"))?;
        Reopened::Single(service)
    };
    Ok((reopened, started.elapsed()))
}
