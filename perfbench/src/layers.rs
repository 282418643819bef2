//! The traced run's per-layer decomposition.
//!
//! The program is not instrumented for this: after the window, the
//! benchmark replays the run's operations, in send order, against twins of
//! the served backend and times its own calls into each layer's public
//! functions — the wire codec, `QueryService` and `ShardedService`
//! batches and updates, the engine phases, a twin WAL, and (in the model
//! replay of [`crate::check`]) the transition store. The program's own
//! exported counters and the engine's reported phase split fill in what a
//! call boundary cannot separate.

use crate::data::{Dataset, Op, Workload};
use crate::serve::{Outcome, Record};
use crate::stats::{mean, median, ratio};
use crate::trace::{children_of, self_time_ns, SpanId, Tracer};
use crate::Metrics;
use rknnt_core::{
    build_filter_set, prune_transitions, EngineKind, FilterRefineEngine, QueryScratch, RknntQuery,
    RknntResult,
};
use rknnt_net::Message;
use rknnt_service::{
    EnginePolicy, QueryService, ServiceConfig, ShardedConfig, ShardedService, StorageConfig,
};
use rknnt_storage::Storage;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay stops adding queries after this long (updates always replay, so
/// the twins' stores stay in step with the served run).
const QUERY_REPLAY_BUDGET: Duration = Duration::from_secs(6);
/// Traced queries replayed layer by layer: every n-th traced query, with n
/// chosen so about this many are sampled. The unsharded twin also answers
/// every other query, untimed, so its cache follows the served one.
const SAMPLED_QUERIES: usize = 1_000;
/// Queries whose engine phases are replayed one by one.
const ENGINE_SAMPLES: usize = 150;

/// The served run as seen from outside, for the metrics the replay cannot
/// produce on its own.
pub struct Live<'a> {
    /// Every operation of the run, in send order.
    pub records: &'a [Record],
    /// Served-backend registry readings before and after the window.
    pub window: [&'a [rknnt_obs::MetricsSnapshot]; 2],
    /// Registry readings around every WAL write: the served backend's run
    /// and the recovery fixture's probe.
    pub storage: [[&'a [rknnt_obs::MetricsSnapshot]; 2]; 2],
    /// `Server::request_latency` before and after the window.
    pub request_latency: [&'a rknnt_obs::HistogramSnapshot; 2],
    /// `(admitted, shed)` over the window.
    pub admission: (u64, u64),
    /// Operations completed in untraced / traced slices.
    pub slice_ops: [usize; 2],
    /// Time spent in untraced / traced slices.
    pub slice_time: [Duration; 2],
    /// The initial checkpoint.
    pub checkpoint: Duration,
    /// `Storage::open` on the crashed directory.
    pub storage_open: Duration,
}

/// Sum of a counter over registries, between two readings.
fn counter(snaps: [&[rknnt_obs::MetricsSnapshot]; 2], name: &str) -> f64 {
    let read = |s: &[rknnt_obs::MetricsSnapshot]| -> u64 {
        s.iter().filter_map(|m| m.counter(name)).sum()
    };
    read(snaps[1]).saturating_sub(read(snaps[0])) as f64
}

/// Sum of a histogram's samples over registries, between two readings.
fn histogram_sum(snaps: [&[rknnt_obs::MetricsSnapshot]; 2], name: &str) -> f64 {
    let read = |s: &[rknnt_obs::MetricsSnapshot]| -> u64 {
        s.iter()
            .filter_map(|m| m.histogram(name))
            .map(|h| h.sum())
            .sum()
    };
    read(snaps[1]).saturating_sub(read(snaps[0])) as f64
}

/// Count of a histogram's samples over registries, between two readings.
fn histogram_count(snaps: [&[rknnt_obs::MetricsSnapshot]; 2], name: &str) -> f64 {
    let read = |s: &[rknnt_obs::MetricsSnapshot]| -> u64 {
        s.iter()
            .filter_map(|m| m.histogram(name))
            .map(|h| h.count())
            .sum()
    };
    read(snaps[1]).saturating_sub(read(snaps[0])) as f64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What one replayed query cost in each layer.
struct QueryCosts {
    encode_ns: u64,
    decode_ns: u64,
    single_ns: u64,
    sharded_ns: u64,
}

/// The engine phases of one query, replayed call by call.
struct EngineCosts {
    prepare_ns: u64,
    filter_build_ns: u64,
    prune_ns: u64,
    verify_ns: u64,
    candidates: usize,
    verified: usize,
}

/// Replays the engine pipeline of `query` as the `Auto` policy would run
/// it, timing each phase. Divide & Conquer filters and prunes once per
/// query point through the public `build_filter_set` / `prune_transitions`
/// and then runs the engine for its verification; Filter–Refine and
/// Voronoi build the filter, then prune and verify against it, and report
/// the split of that second call themselves.
fn replay_engine(
    tracer: &mut Tracer,
    service: &QueryService,
    query: &RknntQuery,
    kind: EngineKind,
    request: u64,
    scratch: &mut QueryScratch,
) -> EngineCosts {
    let (routes, transitions) = (service.routes(), service.transitions());
    let root = tracer.begin("core.engine", None, request);
    let (engine, prepare) = tracer.time("core.prepare", Some(root), request, || {
        kind.build(routes, transitions)
    });
    let mut filter_build_ns = 0;
    let mut prune_ns = 0;
    let result: RknntResult;
    if kind == EngineKind::DivideConquer {
        for point in &query.route {
            let (outcome, b) = tracer.time("core.filter_build", Some(root), request, || {
                build_filter_set(routes, std::slice::from_ref(point), query.k)
            });
            let (_, p) = tracer.time("core.prune", Some(root), request, || {
                prune_transitions(transitions, &outcome.filter_set, query.k, false)
            });
            filter_build_ns += tracer.spans()[b].duration_ns();
            prune_ns += tracer.spans()[p].duration_ns();
        }
        let (r, exec) = tracer.time("core.execute", Some(root), request, || {
            engine.execute_scratch(query, scratch)
        });
        result = r;
        let end = tracer.spans()[exec].end_ns;
        let verify = result.timings.verification.as_nanos() as u64;
        tracer.record(
            "core.verify",
            Some(exec),
            request,
            end.saturating_sub(verify),
            end,
        );
    } else {
        let fr = if kind == EngineKind::Voronoi {
            FilterRefineEngine::with_voronoi(routes, transitions)
        } else {
            FilterRefineEngine::new(routes, transitions)
        };
        let (outcome, b) = tracer.time("core.filter_build", Some(root), request, || {
            fr.build_filter(query)
        });
        filter_build_ns = tracer.spans()[b].duration_ns();
        let (r, exec) = tracer.time("core.execute", Some(root), request, || {
            fr.execute_with_filter_scratch(query, &outcome, scratch)
        });
        result = r;
        let (start, end) = (tracer.spans()[exec].start_ns, tracer.spans()[exec].end_ns);
        prune_ns = result.timings.filtering.as_nanos() as u64;
        let verify = result.timings.verification.as_nanos() as u64;
        tracer.record("core.prune", Some(exec), request, start, start + prune_ns);
        tracer.record(
            "core.verify",
            Some(exec),
            request,
            end.saturating_sub(verify),
            end,
        );
    }
    tracer.end(root);
    EngineCosts {
        prepare_ns: tracer.spans()[prepare].duration_ns(),
        filter_build_ns,
        prune_ns,
        verify_ns: result.timings.verification.as_nanos() as u64,
        candidates: result.stats.candidate_endpoints,
        verified: result.stats.verified_endpoints,
    }
}

/// Replays the run and derives every per-layer metric.
pub fn decompose(
    workload: Workload,
    dataset: &Dataset,
    pool: &[Arc<RknntQuery>],
    subscriptions: &[Arc<RknntQuery>],
    live: &Live<'_>,
    tracer: &mut Tracer,
    twin_dir: &Path,
) -> Result<Metrics, String> {
    let (routes, transitions) = dataset.stores();
    let mut single = QueryService::new(routes, transitions, ServiceConfig::default());
    let mut sharded = ShardedService::bulk_build(
        ShardedConfig::default(),
        dataset.city.routes.clone(),
        dataset.pairs.clone(),
    );
    if workload == Workload::Hot {
        let warm: Vec<RknntQuery> = pool.iter().map(|q| (**q).clone()).collect();
        single.execute_batch(&warm);
        sharded.execute_batch(&warm);
    }
    for query in subscriptions {
        single.subscribe((**query).clone());
        sharded.subscribe((**query).clone());
    }
    let (mut wal, _) = Storage::open(twin_dir, StorageConfig::default())
        .map_err(|e| format!("twin storage: {e}"))?;
    let router_before = sharded.router_stats();

    let mut queries: Vec<(usize, QueryCosts, rknnt_service::BatchStats)> = Vec::new();
    let mut engine: Vec<EngineCosts> = Vec::new();
    let mut mix = [0usize; 3];
    let mut reply_bytes = Vec::new();
    let mut append_ns = Vec::new();
    let mut update_ns = Vec::new();
    let (mut updates, mut batches, mut evicted, mut full_drops, mut reexecuted) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut accounted = Vec::new();
    let mut scratch = QueryScratch::new();
    let started = Instant::now();
    let served_is_sharded = workload == Workload::Local;

    let traced_queries = live
        .records
        .iter()
        .filter(|r| r.traced && matches!(r.outcome, Outcome::Answered(_)))
        .count();
    let stride = traced_queries.div_ceil(SAMPLED_QUERIES).max(1);
    let mut traced_seen = 0usize;

    for (i, record) in live.records.iter().enumerate() {
        let request = i as u64;
        match (&record.op, record.outcome) {
            (Op::Query(query), Outcome::Answered(_)) => {
                if started.elapsed() > QUERY_REPLAY_BUDGET {
                    continue;
                }
                let sampled = record.traced && {
                    traced_seen += 1;
                    (traced_seen - 1).is_multiple_of(stride)
                };
                if !sampled {
                    single.execute_batch(std::slice::from_ref(query.as_ref()));
                    continue;
                }
                let one = std::slice::from_ref(query.as_ref());
                let root = tracer.begin("replay.request", None, request);
                let request_msg = Message::Query {
                    id: request,
                    query: (**query).clone(),
                    trace: None,
                };
                let (bytes, enc) =
                    tracer.time("net.encode", Some(root), request, || request_msg.encode());
                let (_, dec) = tracer.time("net.decode", Some(root), request, || {
                    Message::decode(&bytes)
                });
                let served_parent = |sharded: bool| (sharded == served_is_sharded).then_some(root);
                let ((results, stats), s) =
                    tracer.time("service.batch", served_parent(false), request, || {
                        single.execute_batch(one)
                    });
                let (_, r) = tracer.time("router.batch", served_parent(true), request, || {
                    sharded.execute_batch(one)
                });
                let reply = Message::QueryOk {
                    id: request,
                    transitions: results.into_iter().next().expect("one result").transitions,
                };
                let (reply_frame, enc2) =
                    tracer.time("net.encode", Some(root), request, || reply.encode());
                let (_, dec2) = tracer.time("net.decode", Some(root), request, || {
                    Message::decode(&reply_frame)
                });
                tracer.end(root);
                let d = |id: SpanId| tracer.spans()[id].duration_ns();
                let costs = QueryCosts {
                    encode_ns: d(enc) + d(enc2),
                    decode_ns: d(dec) + d(dec2),
                    single_ns: d(s),
                    sharded_ns: d(r),
                };
                reply_bytes.push(reply_frame.len() as f64);
                let spans = tracer.spans();
                let children = children_of(spans);
                let covered =
                    spans[root].duration_ns() - self_time_ns(spans, &children[root], root);
                accounted.push(ratio(covered as f64, record.rtt_ns as f64));
                let kind = EnginePolicy::Auto.choose(query);
                mix[match kind {
                    EngineKind::DivideConquer => 0,
                    EngineKind::Voronoi => 1,
                    _ => 2,
                }] += 1;
                if engine.len() < ENGINE_SAMPLES {
                    engine.push(replay_engine(
                        tracer,
                        &single,
                        query,
                        kind,
                        request,
                        &mut scratch,
                    ));
                }
                queries.push((i, costs, stats));
            }
            (Op::Update(batch), Outcome::Acked) => {
                let root = tracer.begin("replay.request", None, request);
                let msg = Message::ApplyUpdates {
                    id: request,
                    updates: batch.clone(),
                    trace: None,
                };
                let (bytes, _) = tracer.time("net.encode", Some(root), request, || msg.encode());
                let _ = tracer.time("net.decode", Some(root), request, || {
                    Message::decode(&bytes)
                });
                let frames: Vec<Vec<u8>> = batch.iter().map(|u| u.to_wal_record()).collect();
                let (appended, a) = tracer.time("storage.append", Some(root), request, || {
                    wal.append(&frames)
                });
                appended.map_err(|e| format!("twin append: {e}"))?;
                let (stats, u) = tracer.time("service.update", Some(root), request, || {
                    single.apply_updates(batch.clone())
                });
                tracer.time("router.update", None, request, || {
                    sharded.apply_updates(batch.clone())
                });
                tracer.end(root);
                append_ns.push(tracer.spans()[a].duration_ns() as f64);
                update_ns.push(tracer.spans()[u].duration_ns() as f64);
                updates += stats.applied;
                batches += 1;
                evicted += stats.evicted_entries;
                full_drops += stats.full_drops;
                reexecuted += stats.subs_reexecuted;
            }
            _ => {}
        }
    }

    let router_after = sharded.router_stats();
    let executions = router_after.executions - router_before.executions;
    let dispatches = router_after.dispatches - router_before.dispatches;
    let shard_count = sharded.shard_count() as f64;

    let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);
    let q_us = |f: &dyn Fn(&QueryCosts, &rknnt_service::BatchStats) -> f64| {
        med(queries.iter().map(|(_, c, s)| f(c, s)).collect())
    };
    let e_us = |f: &dyn Fn(&EngineCosts) -> u64| med(engine.iter().map(|e| us(f(e))).collect());
    let served_ns = |c: &QueryCosts| {
        if served_is_sharded {
            c.sharded_ns
        } else {
            c.single_ns
        }
    };
    let edge: Vec<f64> = queries
        .iter()
        .map(|(i, c, _)| (live.records[*i].rtt_ns as f64 - served_ns(c) as f64) / 1e3)
        .collect();
    let window = live.window;
    let (lat0, lat1) = (live.request_latency[0], live.request_latency[1]);
    let acked_updates: usize = live
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Acked)
        .map(|r| match &r.op {
            Op::Update(b) => b.len(),
            Op::Query(_) => 0,
        })
        .sum();
    let index_us = |name: &str| {
        med(tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.duration_ns()))
            .collect())
    };
    let throughput = |mode: usize| {
        ratio(
            live.slice_ops[mode] as f64,
            live.slice_time[mode].as_secs_f64(),
        )
    };
    let total_mix = (mix[0] + mix[1] + mix[2]) as f64;

    let mut m = Metrics::new();
    m.insert("net.edge_us", (med(edge), "us"));
    m.insert("net.encode_us", (q_us(&|c, _| us(c.encode_ns)), "us"));
    m.insert("net.decode_us", (q_us(&|c, _| us(c.decode_ns)), "us"));
    m.insert(
        "net.reply_bytes",
        (mean(&reply_bytes).unwrap_or(0.0), "bytes"),
    );
    m.insert(
        "net.request_mean_us",
        (
            ratio(
                lat1.sum().saturating_sub(lat0.sum()) as f64,
                lat1.count().saturating_sub(lat0.count()) as f64,
            ) / 1e3,
            "us",
        ),
    );
    m.insert(
        "net.shed_frac",
        (
            ratio(
                live.admission.1 as f64,
                (live.admission.0 + live.admission.1) as f64,
            ),
            "frac",
        ),
    );
    m.insert("service.batch_us", (q_us(&|c, _| us(c.single_ns)), "us"));
    m.insert(
        "service.lookup_us",
        (q_us(&|_, s| s.timings.lookup.as_secs_f64() * 1e6), "us"),
    );
    m.insert(
        "service.grouping_us",
        (q_us(&|_, s| s.timings.grouping.as_secs_f64() * 1e6), "us"),
    );
    m.insert(
        "service.finalize_us",
        (q_us(&|_, s| s.timings.finalize.as_secs_f64() * 1e6), "us"),
    );
    // Registry 0 is the backend that fronts the batch path: the service, or
    // the router of a sharded fleet.
    fn front(snaps: [&[rknnt_obs::MetricsSnapshot]; 2]) -> [&[rknnt_obs::MetricsSnapshot]; 2] {
        [&snaps[0][..1], &snaps[1][..1]]
    }
    m.insert(
        "service.batch_size",
        (
            ratio(
                counter(front(window), "service.batch.queries"),
                counter(front(window), "service.batch.count"),
            ),
            "count",
        ),
    );
    let hits = counter(front(window), "service.cache.hits");
    let misses = counter(front(window), "service.cache.misses");
    m.insert(
        "service.cache_hit_rate",
        (ratio(hits, hits + misses), "frac"),
    );
    m.insert(
        "service.update_us",
        (med(update_ns.iter().map(|n| n / 1e3).collect()), "us"),
    );
    m.insert(
        "service.evicted_per_update",
        (ratio(evicted as f64, updates as f64), "count"),
    );
    m.insert("service.full_drops", (full_drops as f64, "count"));
    m.insert(
        "service.subs_reexec_frac",
        (
            ratio(reexecuted as f64, (batches * subscriptions.len()) as f64),
            "frac",
        ),
    );
    m.insert("router.batch_us", (q_us(&|c, _| us(c.sharded_ns)), "us"));
    m.insert(
        "router.overhead_ratio",
        (
            ratio(
                queries.iter().map(|(_, c, _)| c.sharded_ns as f64).sum(),
                queries.iter().map(|(_, c, _)| c.single_ns as f64).sum(),
            ),
            "ratio",
        ),
    );
    m.insert(
        "router.fanout_frac",
        (
            ratio(dispatches as f64, executions as f64) / shard_count,
            "frac",
        ),
    );
    m.insert("core.prepare_us", (e_us(&|e| e.prepare_ns), "us"));
    m.insert("core.filter_build_us", (e_us(&|e| e.filter_build_ns), "us"));
    m.insert("core.prune_us", (e_us(&|e| e.prune_ns), "us"));
    m.insert("core.verify_us", (e_us(&|e| e.verify_ns), "us"));
    m.insert(
        "core.candidates",
        (
            mean(
                &engine
                    .iter()
                    .map(|e| e.candidates as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            "count",
        ),
    );
    m.insert(
        "core.verify_yield",
        (
            ratio(
                engine.iter().map(|e| e.verified as f64).sum(),
                engine.iter().map(|e| e.candidates as f64).sum(),
            ),
            "frac",
        ),
    );
    m.insert(
        "core.engine_mix.divide_conquer",
        (ratio(mix[0] as f64, total_mix), "frac"),
    );
    m.insert(
        "core.engine_mix.voronoi",
        (ratio(mix[1] as f64, total_mix), "frac"),
    );
    m.insert(
        "core.engine_mix.filter_refine",
        (ratio(mix[2] as f64, total_mix), "frac"),
    );
    m.insert(
        "storage.append_us",
        (med(append_ns.iter().map(|n| n / 1e3).collect()), "us"),
    );
    let (fsync_sum, fsync_count) = live.storage.iter().fold((0.0, 0.0), |(s, n), &interval| {
        (
            s + histogram_sum(interval, "storage.wal.fsync_ns"),
            n + histogram_count(interval, "storage.wal.fsync_ns"),
        )
    });
    m.insert(
        "storage.fsync_us",
        (ratio(fsync_sum, fsync_count) / 1e3, "us"),
    );
    let wal_bytes: f64 = live
        .storage
        .iter()
        .map(|&interval| counter(interval, "storage.wal.bytes"))
        .sum();
    m.insert(
        "storage.wal_bytes_per_update",
        (ratio(wal_bytes, acked_updates as f64), "bytes"),
    );
    m.insert(
        "storage.checkpoint_ms",
        (live.checkpoint.as_secs_f64() * 1e3, "ms"),
    );
    m.insert(
        "storage.open_ms",
        (live.storage_open.as_secs_f64() * 1e3, "ms"),
    );
    m.insert("index.insert_us", (index_us("index.insert"), "us"));
    m.insert("index.remove_us", (index_us("index.remove"), "us"));
    m.insert(
        "trace.overhead_frac",
        (1.0 - ratio(throughput(1), throughput(0)), "frac"),
    );
    m.insert("trace.accounted_frac", (med(accounted), "frac"));
    Ok(m)
}
