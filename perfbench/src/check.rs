//! Answer checks, made after the timed window.
//!
//! The benchmark keeps its own model of the stores — plain `RouteStore` /
//! `TransitionStore`, updated with exactly the acknowledged batches in send
//! order — and answers every served query again on it with the
//! Filter–Refine engine, an engine the served `Auto` policy never picks for
//! multi-point queries. Two queries per run are also answered by the
//! brute-force oracle. `churn` subscriptions are rebuilt from the pushed
//! deltas, and the crashed directory is compared with the model after the
//! reopen.

use crate::data::{Dataset, Op};
use crate::serve::{digest, ClientSubscription, Outcome, Record, Reopened};
use crate::trace::Tracer;
use rknnt_core::{BruteForceEngine, FilterRefineEngine, RknnTEngine, RknntQuery};
use rknnt_index::{RouteStore, TransitionId, TransitionStore};
use rknnt_net::DeltaEvent;
use rknnt_service::StoreUpdate;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Queries per run checked against the brute-force oracle (≈ 0.5 s each).
const BRUTE_CHECKS: usize = 2;
/// Queries the reopened backend must answer like the model.
const REOPEN_QUERIES: usize = 4;

/// The benchmark's own copy of the stores.
pub struct Model {
    /// Routes.
    pub routes: RouteStore,
    /// Transitions.
    pub transitions: TransitionStore,
}

impl Model {
    /// The dataset's initial state.
    pub fn new(dataset: &Dataset) -> Model {
        let (routes, transitions) = dataset.stores();
        Model {
            routes,
            transitions,
        }
    }

    /// Applies one update, timing the transition-store calls as the
    /// `index` layer when tracing. Returns whether the store accepted it.
    pub fn apply(
        &mut self,
        update: &StoreUpdate,
        tracer: Option<&mut Tracer>,
        request: u64,
    ) -> bool {
        let transitions = &mut self.transitions;
        match update {
            StoreUpdate::InsertTransition {
                origin,
                destination,
            } => {
                let mut insert = || transitions.insert(*origin, *destination).is_some();
                match tracer {
                    Some(t) => t.time("index.insert", None, request, insert).0,
                    None => insert(),
                }
            }
            StoreUpdate::ExpireTransition(id) => {
                let mut remove = || transitions.remove(*id);
                match tracer {
                    Some(t) => t.time("index.remove", None, request, remove).0,
                    None => remove(),
                }
            }
            StoreUpdate::InsertRoute(points) => self.routes.insert_route(points.clone()).is_some(),
            StoreUpdate::RemoveRoute(id) => self.routes.remove_route(*id),
        }
    }

    fn answer(engine: &FilterRefineEngine<'_>, query: &RknntQuery) -> Vec<TransitionId> {
        engine.execute(query).transitions
    }
}

/// What the checks found.
#[derive(Default)]
pub struct Findings {
    /// Served answers compared with the model.
    pub checked: usize,
    /// Served answers also compared with the brute-force oracle.
    pub brute_checked: usize,
    /// Wrong answers, each also counted as a failed operation.
    pub wrong: usize,
    /// Human-readable description of every mismatch.
    pub problems: Vec<String>,
}

impl Findings {
    fn problem(&mut self, what: String) {
        self.wrong += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Replays `records` on a fresh model and checks every answered query, the
/// brute-force sample and the subscriptions. Returns the final model.
pub fn check_answers(
    dataset: &Dataset,
    records: &[Record],
    subscriptions: &[ClientSubscription],
    deltas: &[DeltaEvent],
    mut tracer: Option<&mut Tracer>,
    findings: &mut Findings,
) -> Model {
    let mut model = Model::new(dataset);
    let answered: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.outcome, Outcome::Answered(_)))
        .map(|(i, _)| i)
        .collect();
    let brute: BTreeSet<usize> = (1..=BRUTE_CHECKS)
        .filter_map(|j| {
            answered
                .get(answered.len() * j / (BRUTE_CHECKS + 1))
                .copied()
        })
        .collect();

    {
        let engine = FilterRefineEngine::new(&model.routes, &model.transitions);
        for sub in subscriptions {
            if digest(&Model::answer(&engine, &sub.query)) != digest(&sub.initial) {
                findings.problem(format!(
                    "subscription {} initial result differs",
                    sub.handle
                ));
            }
        }
    }

    let mut i = 0;
    while i < records.len() {
        if let Op::Update(batch) = &records[i].op {
            if records[i].outcome == Outcome::Acked {
                for update in batch {
                    if !model.apply(update, tracer.as_deref_mut(), i as u64) {
                        findings
                            .problem(format!("op {i}: the model rejected an acknowledged update"));
                    }
                }
            }
            i += 1;
            continue;
        }
        // A run of queries against one store state.
        let engine = FilterRefineEngine::new(&model.routes, &model.transitions);
        let mut memo: HashMap<*const RknntQuery, u64> = HashMap::new();
        while let Some(Record {
            op: Op::Query(query),
            outcome,
            ..
        }) = records.get(i)
        {
            if let Outcome::Answered(served) = *outcome {
                findings.checked += 1;
                let expected = *memo
                    .entry(Arc::as_ptr(query))
                    .or_insert_with(|| digest(&Model::answer(&engine, query)));
                if expected != served {
                    findings.problem(format!("op {i}: answer differs from the model"));
                }
                if brute.contains(&i) {
                    findings.brute_checked += 1;
                    let oracle = BruteForceEngine::new(&model.routes, &model.transitions);
                    if digest(&oracle.execute(query).transitions) != served {
                        findings.problem(format!("op {i}: answer differs from brute force"));
                    }
                }
            }
            i += 1;
        }
    }

    if !subscriptions.is_empty() {
        let engine = FilterRefineEngine::new(&model.routes, &model.transitions);
        for sub in subscriptions {
            let mut result: BTreeSet<TransitionId> = sub.initial.iter().copied().collect();
            for delta in deltas.iter().filter(|d| d.subscription == sub.handle) {
                for id in &delta.left {
                    result.remove(id);
                }
                result.extend(delta.entered.iter().copied());
            }
            let rebuilt: Vec<TransitionId> = result.into_iter().collect();
            findings.checked += 1;
            if rebuilt != Model::answer(&engine, &sub.query) {
                findings.problem(format!(
                    "subscription {}: result rebuilt from deltas differs from the model",
                    sub.handle
                ));
            }
        }
    }
    model
}

/// Checks that the reopened backend holds exactly the model's stores —
/// every acknowledged update and nothing else — and answers like it.
pub fn check_reopened(
    model: &Model,
    reopened: &Reopened,
    queries: &[Arc<RknntQuery>],
    findings: &mut Findings,
) {
    let ids = model.transitions.transition_ids();
    let (live, endpoints_match) = match reopened {
        Reopened::Single(s) => (
            s.transitions().len(),
            ids.iter().all(|&id| {
                let (a, b) = (s.transitions().get(id), model.transitions.get(id));
                matches!((a, b), (Some(a), Some(b)) if a.origin == b.origin && a.destination == b.destination)
            }),
        ),
        Reopened::Sharded(s) => (
            s.num_transitions(),
            ids.iter().all(|&id| {
                let b = model.transitions.get(id).expect("live id");
                s.transition_endpoints(id) == Some((b.origin, b.destination))
            }),
        ),
    };
    if live != ids.len() || !endpoints_match {
        findings.problem(format!(
            "reopened store holds {live} transitions, the model {} (endpoints match: {endpoints_match})",
            ids.len()
        ));
    }
    let routes = match reopened {
        Reopened::Single(s) => s.routes(),
        Reopened::Sharded(s) => s.routes(),
    };
    let same_routes = routes.route_ids() == model.routes.route_ids()
        && model
            .routes
            .route_ids()
            .into_iter()
            .all(|id| routes.route_points(id) == model.routes.route_points(id));
    if !same_routes {
        findings.problem("reopened routes differ from the model".into());
    }
    let engine = FilterRefineEngine::new(&model.routes, &model.transitions);
    for query in queries.iter().take(REOPEN_QUERIES) {
        findings.checked += 1;
        if reopened.execute(query) != Model::answer(&engine, query) {
            findings.problem("reopened backend answers differ from the model".into());
        }
    }
}
