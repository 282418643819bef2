//! The benchmark's inputs: one fixed city with its transitions, and the
//! seeded traffic each workload sends against it.
//!
//! The city is part of the workload definition and never changes with the
//! seed, so runs on different seeds measure the same system on different
//! traffic (query routes, `k` draws, popularity draws, updates,
//! subscriptions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rknnt_core::RknntQuery;
use rknnt_data::workload::{self, ChurnConfig, ChurnEvent};
use rknnt_data::{City, CityConfig, CityGenerator, TransitionConfig, TransitionGenerator};
use rknnt_geo::Point;
use rknnt_index::{RouteId, RouteStore, TransitionId, TransitionStore};
use rknnt_rtree::RTreeConfig;
use rknnt_service::StoreUpdate;
use std::collections::VecDeque;
use std::sync::Arc;

/// Fraction of the paper's LA route count (1,208): 604 routes.
pub const CITY_SCALE: f64 = 0.5;
/// Check-in-shaped transitions in the initial store.
pub const TRANSITIONS: usize = 100_000;
/// Seed of the city and its transitions (fixed; see the module docs).
const DATASET_SEED: u64 = 42;
/// `local` trips are shortened toward their origin to at most this length
/// (about two stop spacings), so each transition stays in its origin's
/// neighbourhood and shard.
pub const TRIP_CAP_M: f64 = 600.0;
/// Routes in the `hot` pool; they fit the service's 4096-entry cache.
pub const HOT_POOL: usize = 256;
/// Requests the `hot` client keeps in flight.
pub const HOT_DEPTH: usize = 4;
/// Routes cycled by `churn` queries.
pub const CHURN_POOL: usize = 64;
/// `k` of `churn` queries and subscriptions: small enough that the window
/// collects a p99 of queries and a p90 of update batches.
pub const CHURN_K: usize = 5;
/// Standing queries the `churn` client holds.
pub const CHURN_SUBS: usize = 8;
/// Updates per `churn` (and probe) `apply_updates` batch.
pub const UPDATE_BATCH: usize = 8;
/// Update batches of the recovery fixture's probe (see [`probe`]).
pub const PROBE_BATCHES: usize = 800;
/// Leading probe batches left out of the update latency: the fresh
/// server's first appends run slower while its WAL segment and caches warm.
pub const PROBE_WARMUP: usize = 100;

/// The four served workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All-distinct queries: the engine does the work, the cache cannot help.
    Cold,
    /// Zipf draws over a cached pool: the edge and the batch path dominate.
    Hot,
    /// Reads beside batched writes, subscriptions and a crash.
    Churn,
    /// Short local queries through the 4-shard router.
    Local,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "cold" => Ok(Workload::Cold),
            "hot" => Ok(Workload::Hot),
            "churn" => Ok(Workload::Churn),
            "local" => Ok(Workload::Local),
            other => Err(format!(
                "unknown workload {other:?}; expected cold, hot, churn or local"
            )),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Hot => "hot",
            Workload::Churn => "churn",
            Workload::Local => "local",
        }
    }

    /// Requests kept in flight on the one connection.
    pub fn depth(self) -> usize {
        match self {
            Workload::Hot => HOT_DEPTH,
            _ => 1,
        }
    }

    /// Whether the timed window sends no updates; these workloads take
    /// their update latency from the recovery fixture's probe.
    pub fn read_only(self) -> bool {
        matches!(self, Workload::Cold | Workload::Hot)
    }
}

/// The generated city and its transition pairs, in store id order.
pub struct Dataset {
    /// The city (routes as stop sequences).
    pub city: City,
    /// Transition endpoint pairs; pair `i` has id `i` in every store.
    pub pairs: Vec<(Point, Point)>,
}

impl Dataset {
    /// Generates the fixed city; `local` caps every trip at [`TRIP_CAP_M`].
    pub fn generate(local: bool) -> Dataset {
        let city = CityGenerator::new(CityConfig::la_like(CITY_SCALE, DATASET_SEED)).generate();
        let mut pairs =
            TransitionGenerator::new(TransitionConfig::checkin_like(TRANSITIONS, DATASET_SEED))
                .generate(&city);
        if local {
            for (origin, destination) in &mut pairs {
                *destination = localize_trip(*origin, *destination);
            }
        }
        Dataset { city, pairs }
    }

    /// Fresh route and transition stores over the dataset.
    pub fn stores(&self) -> (RouteStore, TransitionStore) {
        (
            self.city.route_store(),
            TransitionStore::bulk_build(RTreeConfig::default(), self.pairs.clone()),
        )
    }
}

/// Shortens a trip toward its origin to at most [`TRIP_CAP_M`].
fn localize_trip(origin: Point, destination: Point) -> Point {
    let (dx, dy) = (destination.x - origin.x, destination.y - origin.y);
    let len = (dx * dx + dy * dy).sqrt();
    if len <= TRIP_CAP_M {
        destination
    } else {
        let scale = TRIP_CAP_M / len;
        Point::new(origin.x + dx * scale, origin.y + dy * scale)
    }
}

/// One closed-loop operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// One query; pool queries share their `Arc`.
    Query(Arc<RknntQuery>),
    /// One `apply_updates` batch.
    Update(Vec<StoreUpdate>),
}

/// Mixes a seed with a stream label and chunk number.
fn mix(seed: u64, label: u64, chunk: u64) -> u64 {
    let mut x = seed
        ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ chunk.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 31;
    x.wrapping_mul(0x94d0_49bb_1331_11eb)
}

/// The live-id view the generator resolves expiries and route removals
/// against. Stores assign dense ids in insertion order, so the generator
/// predicts exactly the ids the server will assign.
struct IdModel {
    live_transitions: Vec<TransitionId>,
    live_routes: Vec<RouteId>,
    next_transition: u32,
    next_route: u32,
}

impl IdModel {
    fn new(dataset: &Dataset) -> Self {
        IdModel {
            live_transitions: (0..dataset.pairs.len() as u32).map(TransitionId).collect(),
            live_routes: (0..dataset.city.routes.len() as u32).map(RouteId).collect(),
            next_transition: dataset.pairs.len() as u32,
            next_route: dataset.city.routes.len() as u32,
        }
    }

    /// Turns a generated update event into a store update (or `None` for a
    /// query event, or a removal with nothing left to remove).
    fn resolve(&mut self, event: ChurnEvent, local: bool) -> Option<StoreUpdate> {
        Some(match event {
            ChurnEvent::Query(_) => return None,
            ChurnEvent::InsertTransition(origin, destination) => {
                let destination = if local {
                    localize_trip(origin, destination)
                } else {
                    destination
                };
                self.live_transitions
                    .push(TransitionId(self.next_transition));
                self.next_transition += 1;
                StoreUpdate::InsertTransition {
                    origin,
                    destination,
                }
            }
            ChurnEvent::ExpireTransition(draw) => {
                if self.live_transitions.is_empty() {
                    return None;
                }
                let victim = draw as usize % self.live_transitions.len();
                StoreUpdate::ExpireTransition(self.live_transitions.swap_remove(victim))
            }
            ChurnEvent::InsertRoute(points) => {
                self.live_routes.push(RouteId(self.next_route));
                self.next_route += 1;
                StoreUpdate::InsertRoute(points)
            }
            ChurnEvent::RemoveRoute(draw) => {
                if self.live_routes.len() <= 4 {
                    return None;
                }
                let victim = draw as usize % self.live_routes.len();
                StoreUpdate::RemoveRoute(self.live_routes.swap_remove(victim))
            }
        })
    }
}

/// Events generated per chunk of the lazily extended streams.
const CHUNK: usize = 512;
/// Seed of the fixed `hot` / `churn` pools and subscriptions.
const POOL_SEED: u64 = 7;
/// `k` of consecutive `cold` queries: 40 / 50 / 10 % of 5 / 10 / 20. With
/// exactly half the queries at k = 5 the median round trip would be the
/// slowest k = 5 query or the fastest k = 10 one, whichever a run happened
/// to have; with 40 % it is a quantile inside the k = 10 costs.
const COLD_K: [usize; 10] = [5, 10, 5, 10, 10, 5, 10, 5, 10, 20];
/// `k` of consecutive `local` queries.
const LOCAL_K: [usize; 3] = [1, 2, 3];

/// Draws query routes the way `workload::rknnt_queries` does — a random
/// stop of a start route, then steps of `interval` metres whose heading
/// turns by at most ±90° each — except that start routes follow a seeded
/// permutation of the city's routes instead of independent draws. Every
/// run then covers the whole city evenly, so seeds differ in routes but
/// not in how much of the city they load.
struct RouteSampler {
    order: Vec<usize>,
    next: usize,
    rng: StdRng,
    len: usize,
    interval: f64,
}

impl RouteSampler {
    fn new(seed: u64, len: usize, interval: f64) -> Self {
        RouteSampler {
            order: Vec::new(),
            next: 0,
            rng: StdRng::seed_from_u64(seed),
            len,
            interval,
        }
    }

    fn route(&mut self, city: &City) -> Vec<Point> {
        if self.next == self.order.len() {
            self.order = (0..city.routes.len()).collect();
            for i in (1..self.order.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        let stops = &city.routes[self.order[self.next]];
        self.next += 1;
        let mut heading: f64 = self.rng.gen_range(0.0..std::f64::consts::TAU);
        let mut points = vec![stops[self.rng.gen_range(0..stops.len())]];
        while points.len() < self.len {
            heading += self
                .rng
                .gen_range(-std::f64::consts::FRAC_PI_2..std::f64::consts::FRAC_PI_2);
            let last = *points.last().expect("non-empty");
            points.push(Point::new(
                last.x + self.interval * heading.cos(),
                last.y + self.interval * heading.sin(),
            ));
        }
        points
    }

    fn queries(&mut self, city: &City, count: usize, k: usize) -> Vec<Arc<RknntQuery>> {
        (0..count)
            .map(|_| Arc::new(RknntQuery::exists(self.route(city), k)))
            .collect()
    }
}

/// The seeded, unbounded operation stream of one workload.
///
/// The seed draws the request sequence: `cold` and `local` query routes,
/// `hot` popularity draws, and every update. The `hot` and `churn` pools
/// and the `churn` subscriptions are fixed, like the city: a pool of a few
/// dozen routes would otherwise make the tail latency a property of
/// whichever routes a seed happened to draw.
pub struct Traffic<'a> {
    workload: Workload,
    city: &'a City,
    seed: u64,
    rng: StdRng,
    routes: RouteSampler,
    ids: IdModel,
    /// `hot` / `churn` query pool.
    pub pool: Vec<Arc<RknntQuery>>,
    /// `churn` standing queries.
    pub subscriptions: Vec<Arc<RknntQuery>>,
    zipf_cdf: Vec<f64>,
    pending: VecDeque<Op>,
    batch: Vec<StoreUpdate>,
    chunk: u64,
    cursor: usize,
}

impl<'a> Traffic<'a> {
    /// The stream for `workload` on `seed`.
    pub fn new(workload: Workload, dataset: &'a Dataset, seed: u64) -> Self {
        let city = &dataset.city;
        let mut fixed = RouteSampler::new(POOL_SEED, 5, 1_000.0);
        let (pool, subscriptions) = match workload {
            Workload::Hot => (fixed.queries(city, HOT_POOL, 10), Vec::new()),
            Workload::Churn => (
                fixed.queries(city, CHURN_POOL, CHURN_K),
                fixed.queries(city, CHURN_SUBS, CHURN_K),
            ),
            Workload::Cold | Workload::Local => (Vec::new(), Vec::new()),
        };
        let routes = match workload {
            Workload::Local => RouteSampler::new(mix(seed, 7, 0), 3, 400.0),
            _ => RouteSampler::new(mix(seed, 6, 0), 5, 1_000.0),
        };
        // Zipf with s = 1 over the pool ranks.
        let mut zipf_cdf: Vec<f64> = Vec::with_capacity(pool.len());
        let mut total = 0.0;
        for rank in 1..=pool.len() {
            total += 1.0 / rank as f64;
            zipf_cdf.push(total);
        }
        for c in &mut zipf_cdf {
            *c /= total;
        }
        Traffic {
            workload,
            city,
            seed,
            rng: StdRng::seed_from_u64(mix(seed, 4, 0)),
            routes,
            ids: IdModel::new(dataset),
            pool,
            subscriptions,
            zipf_cdf,
            pending: VecDeque::new(),
            batch: Vec::new(),
            chunk: 0,
            cursor: 0,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        loop {
            if let Some(op) = self.pending.pop_front() {
                return op;
            }
            self.refill();
        }
    }

    fn refill(&mut self) {
        self.chunk += 1;
        match self.workload {
            Workload::Cold => {
                for _ in 0..CHUNK {
                    let route = self.routes.route(self.city);
                    let k = COLD_K[self.cursor % COLD_K.len()];
                    self.cursor += 1;
                    self.pending
                        .push_back(Op::Query(Arc::new(RknntQuery::exists(route, k))));
                }
            }
            Workload::Hot => {
                for _ in 0..CHUNK {
                    let draw: f64 = self.rng.gen_range(0.0..1.0);
                    let rank = self.zipf_cdf.partition_point(|&c| c < draw);
                    let query = self.pool[rank.min(self.pool.len() - 1)].clone();
                    self.pending.push_back(Op::Query(query));
                }
            }
            Workload::Churn => {
                for event in self.events(0.30, 0.05) {
                    if matches!(event, ChurnEvent::Query(_)) {
                        let query = self.pool[self.cursor % self.pool.len()].clone();
                        self.cursor += 1;
                        self.pending.push_back(Op::Query(query));
                    } else if let Some(update) = self.ids.resolve(event, false) {
                        self.batch.push(update);
                        if self.batch.len() == UPDATE_BATCH {
                            self.pending
                                .push_back(Op::Update(std::mem::take(&mut self.batch)));
                        }
                    }
                }
            }
            Workload::Local => {
                for event in self.events(0.05, 0.0) {
                    if matches!(event, ChurnEvent::Query(_)) {
                        let route = self.routes.route(self.city);
                        let k = LOCAL_K[self.cursor % LOCAL_K.len()];
                        self.cursor += 1;
                        self.pending
                            .push_back(Op::Query(Arc::new(RknntQuery::exists(route, k))));
                    } else if let Some(update) = self.ids.resolve(event, true) {
                        self.pending.push_back(Op::Update(vec![update]));
                    }
                }
            }
        }
    }

    /// One chunk of a `churn_stream`-shaped event sequence.
    fn events(&self, update_ratio: f64, route_update_fraction: f64) -> Vec<ChurnEvent> {
        let config = ChurnConfig {
            events: CHUNK,
            update_ratio,
            route_update_fraction,
            query_pool: 1,
            query_len: 1,
            query_interval: 1_000.0,
            seed: mix(self.seed, 8, self.chunk),
        };
        workload::churn_stream(self.city, &config)
    }
}

/// The fixed probe: `PROBE_BATCHES` batches of `UPDATE_BATCH`
/// transition-only updates against the dataset's initial state. It is the
/// same on every seed and every run, so the recovery it leaves behind is a
/// fixed amount of work.
pub fn probe(dataset: &Dataset, local: bool) -> Vec<Vec<StoreUpdate>> {
    let config = ChurnConfig {
        events: PROBE_BATCHES * UPDATE_BATCH * 2,
        update_ratio: 1.0,
        route_update_fraction: 0.0,
        query_pool: 1,
        query_len: 1,
        query_interval: 1_000.0,
        seed: mix(POOL_SEED, 5, 0),
    };
    let mut ids = IdModel::new(dataset);
    let updates: Vec<StoreUpdate> = workload::churn_stream(&dataset.city, &config)
        .into_iter()
        .filter_map(|event| ids.resolve(event, local))
        .take(PROBE_BATCHES * UPDATE_BATCH)
        .collect();
    updates.chunks(UPDATE_BATCH).map(<[_]>::to_vec).collect()
}
