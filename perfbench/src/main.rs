//! The RkNNT serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold|hot|churn|local> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process deploys the real serving path — `Client` → TCP → `Server` →
//! `QueryService` / `ShardedService` → engine → WAL — on the program's
//! defaults, drives one workload's closed loop for `--seconds`, then checks
//! every answer, crashes the server and reopens its directory. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! replays the run layer by layer and reports the per-layer metrics
//! instead. The last line of standard output is the JSON result; a wrong
//! answer or a percentile without enough samples behind it exits non-zero.
//! See `perfbench/README.md` for the workloads and every metric.

mod check;
mod data;
mod layers;
mod serve;
mod stats;
mod trace;

use data::{Dataset, Op, Traffic, Workload};
use serve::{Outcome, Record};
use stats::{chunked_percentile, interquartile_mean, median};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Reopens of the recovery fixture per traced run; `recovery_s` is their
/// interquartile mean (reopen times fall in two modes a few tens of
/// milliseconds apart, so a median would jump between them).
const REOPENS: usize = 9;
/// Most chunks a percentile is read over.
const MAX_CHUNKS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space inside the benchmark's own directory.
fn work_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join(".work")
}

/// Every storage directory a sharded or flat layout holds.
fn storage_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    if dirs.is_empty() {
        dirs.push(root.to_path_buf());
    }
    dirs.sort();
    dirs
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Metrics for the result line, by name: `(value, unit)`.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Reads a percentile under the sample floor (over up to [`MAX_CHUNKS`]
/// consecutive chunks) and prints it with its counts.
fn report_percentile(
    metrics: &mut Metrics,
    name: &'static str,
    samples: &[f64],
    p: f64,
) -> Result<(), String> {
    let pct = chunked_percentile(samples, p, MAX_CHUNKS).map_err(|e| format!("{name}: {e}"))?;
    println!(
        "{name} = {:.4} ms  ({} over {} chunks of p{p}; n={}, at least {} samples beyond in each)",
        pct.value, pct.across, pct.chunks, pct.samples, pct.beyond
    );
    metrics.insert(name, (pct.value, "ms"));
    Ok(())
}

fn run(args: &Args, work: &Path, scratch: &Path) -> Result<bool, String> {
    let workload = args.workload;
    let local = workload == Workload::Local;
    let epoch = Instant::now();
    let mut tracer = trace::Tracer::new();

    // Set-up: generation, index build, durable attach (initial checkpoint),
    // cache warm-up, server start, connection and subscriptions. Untraced
    // runs repeat it and report the median; only the last one is kept.
    let setups = if args.trace { 1 } else { SETUPS };
    let data_dir = scratch.join("served");
    let mut setup_times = Vec::new();
    for _ in 1..setups {
        fresh_dir(&data_dir)?;
        let started = Instant::now();
        let dataset = Dataset::generate(local);
        let traffic = Traffic::new(workload, &dataset, args.seed);
        let deployment = serve::deploy(workload, &dataset, &traffic, &data_dir)?;
        setup_times.push(started.elapsed().as_secs_f64());
        serve::teardown(deployment);
    }
    fresh_dir(&data_dir)?;
    let started = Instant::now();
    let dataset = Dataset::generate(local);
    let mut traffic = Traffic::new(workload, &dataset, args.seed);
    let mut deployment = serve::deploy(workload, &dataset, &traffic, &data_dir)?;
    setup_times.push(started.elapsed().as_secs_f64());

    // The timed window.
    let before = serve::snapshot(&deployment.registries);
    let latency_before = deployment.server.request_latency();
    let admission_before = (deployment.server.admitted(), deployment.server.shed());
    let mut log = serve::Log::create(scratch.join("ops.log"))?;
    let window = serve::run_window(
        workload,
        &mut deployment,
        &mut traffic,
        args.seconds,
        args.trace,
        epoch,
        &mut log,
    )?;
    let after_window = serve::snapshot(&deployment.registries);
    let latency_after = deployment.server.request_latency();
    let admission = (
        deployment.server.admitted() - admission_before.0,
        deployment.server.shed() - admission_before.1,
    );

    // A ping queues behind every earlier request, so every delta pushed
    // for them has arrived once it is answered.
    let mut flush_failed = false;
    if !deployment.subscriptions.is_empty() {
        flush_failed = !matches!(deployment.client.ping(), Ok(rknnt_net::Reply::Answered(())));
    }
    let deltas = deployment.client.take_deltas();
    let after_flush = serve::snapshot(&deployment.registries);
    let checkpoint = deployment.checkpoint;
    let subscriptions = std::mem::take(&mut deployment.subscriptions);

    // Crash after the last acknowledgement; the reopen is checked below.
    serve::crash(deployment);
    let (reopened, _) = serve::reopen(workload, &data_dir)?;

    // The recovery fixture: a fresh backend of the same kind takes the
    // fixed probe of update batches over TCP and crashes. Its update round
    // trips are the update latency of the read-only workloads, and its
    // reopen is `recovery_s` — a fixed amount of work, where the served
    // directory's WAL would grow with the window's throughput.
    let fixture_dir = scratch.join("fixture");
    fresh_dir(&fixture_dir)?;
    let fixture_kind = if local {
        Workload::Local
    } else {
        Workload::Cold
    };
    let probe = data::probe(&dataset, local);
    let mut fixture = serve::deploy(
        fixture_kind,
        &dataset,
        &Traffic::new(fixture_kind, &dataset, args.seed),
        &fixture_dir,
    )?;
    let probe_before = serve::snapshot(&fixture.registries);
    let probed = serve::run_probe(&mut fixture, &probe, epoch, &mut log)?;
    let probe_after = serve::snapshot(&fixture.registries);
    serve::crash(fixture);
    let mut storage_open = Duration::ZERO;
    if args.trace {
        for dir in storage_dirs(&fixture_dir) {
            let started = Instant::now();
            let opened =
                rknnt_storage::Storage::open(&dir, rknnt_service::StorageConfig::default())
                    .map_err(|e| format!("open {}: {e}", dir.display()))?;
            storage_open += started.elapsed();
            drop(opened);
        }
    }
    // `recovery_s` is a per-layer metric: untraced runs reopen once, for
    // the durability check.
    let reopens = if args.trace { REOPENS } else { 1 };
    let mut recovery_times = Vec::new();
    let mut fixture_reopened = None;
    for _ in 0..reopens {
        drop(fixture_reopened.take());
        let (backend, took) = serve::reopen(workload, &fixture_dir)?;
        recovery_times.push(took.as_secs_f64());
        fixture_reopened = Some(backend);
    }
    let fixture_reopened = fixture_reopened.expect("at least one reopen");

    // The operations were not kept during the window: regenerate them from
    // the seed and pair them with the logged outcomes.
    let mut regenerated = Traffic::new(workload, &dataset, args.seed);
    let mut ops: Vec<Op> = (0..window.drawn).map(|_| regenerated.next_op()).collect();
    ops.truncate(window.sent);
    ops.extend(probe.into_iter().take(probed).map(Op::Update));
    let records: Vec<Record> = serve::pair(log.finish()?, ops)?;
    let (served, probed_records) = records.split_at(window.sent);

    // Answer checks, outside the window.
    let mut findings = check::Findings::default();
    let model = check::check_answers(
        &dataset,
        served,
        &subscriptions,
        &deltas,
        args.trace.then_some(&mut tracer),
        &mut findings,
    );
    let mut check_queries: Vec<Arc<rknnt_core::RknntQuery>> =
        subscriptions.iter().map(|s| s.query.clone()).collect();
    check_queries.extend(served.iter().filter_map(|r| match &r.op {
        Op::Query(q) => Some(q.clone()),
        Op::Update(_) => None,
    }));
    check::check_reopened(&model, &reopened, &check_queries, &mut findings);
    drop(reopened);
    drop(model);
    let fixture_model = check::check_answers(
        &dataset,
        probed_records,
        &[],
        &[],
        args.trace.then_some(&mut tracer),
        &mut findings,
    );
    check::check_reopened(
        &fixture_model,
        &fixture_reopened,
        &check_queries,
        &mut findings,
    );
    drop(fixture_reopened);
    drop(fixture_model);
    if flush_failed {
        findings.wrong += 1;
        findings.problems.push("delta flush ping failed".into());
    }

    let attempted = records.len();
    let shed = records
        .iter()
        .filter(|r| r.outcome == Outcome::Shed)
        .count();
    let errors = records
        .iter()
        .filter(|r| r.outcome == Outcome::Failed)
        .count();
    let failed = shed + errors + findings.wrong;
    println!(
        "workload={} seed={} seconds={} trace={} routes={} transitions={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        dataset.city.routes.len(),
        dataset.pairs.len()
    );
    println!(
        "checks: {} answers against the model, {} against brute force; {} wrong, {} shed, {} errors",
        findings.checked, findings.brute_checked, findings.wrong, shed, errors
    );
    for problem in &findings.problems {
        println!("  problem: {problem}");
    }

    // Update latency: the window's batches, or the probe's (after its
    // warm-up) on the read-only workloads.
    let update_records = if workload.read_only() {
        &probed_records[data::PROBE_WARMUP.min(probed_records.len())..]
    } else {
        served
    };
    let update_ms: Vec<f64> = update_records
        .iter()
        .filter(|r| r.outcome == Outcome::Acked)
        .map(|r| ms(r.rtt_ns))
        .collect();
    let mut metrics = Metrics::new();
    if args.trace {
        let slice_ops = [false, true].map(|traced| {
            records
                .iter()
                .filter(|r| {
                    r.in_window
                        && r.traced == traced
                        && matches!(r.outcome, Outcome::Answered(_) | Outcome::Acked)
                })
                .count()
        });
        for (i, r) in records.iter().enumerate() {
            if r.traced {
                tracer.record(
                    "client.rtt",
                    None,
                    i as u64,
                    r.sent_ns,
                    r.sent_ns + r.rtt_ns,
                );
            }
        }
        let twin_dir = scratch.join("twin");
        fresh_dir(&twin_dir)?;
        let live = layers::Live {
            records: &records,
            window: [&before, &after_window],
            storage: [[&before, &after_flush], [&probe_before, &probe_after]],
            request_latency: [&latency_before, &latency_after],
            admission,
            slice_ops,
            slice_time: window.slice_time,
            checkpoint,
            storage_open,
        };
        let sub_queries: Vec<_> = subscriptions.iter().map(|s| s.query.clone()).collect();
        let layer = layers::decompose(
            workload,
            &dataset,
            &traffic.pool,
            &sub_queries,
            &live,
            &mut tracer,
            &twin_dir,
        );
        metrics.extend(layer?);
        // Reported with the layers: on the machine the bounds were set on,
        // the fsync tail and reopen times moved these by more than any
        // end-to-end bound (0.25) from run to run.
        report_percentile(&mut metrics, "update_p50_ms", &update_ms, 50.0)?;
        report_percentile(&mut metrics, "update_p90_ms", &update_ms, 90.0)?;
        metrics.insert(
            "recovery_s",
            (interquartile_mean(&recovery_times).expect("reopened"), "s"),
        );
        let traces = work.join("traces");
        std::fs::create_dir_all(&traces)
            .map_err(|e| format!("create {}: {e}", traces.display()))?;
        let path = traces.join(format!("{}-seed{}.tsv", workload.name(), args.seed));
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        // The mean rate over the whole window: like the mean over chunks
        // of `query_p50_ms`, it moves in proportion to the time the host
        // spent slow, where a median over slices jumps between its levels.
        let completed = served
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Answered(_) | Outcome::Acked))
            .count();
        let throughput = completed as f64 / window.elapsed.as_secs_f64();
        println!(
            "throughput_ops_s = {throughput:.2} 1/s  ({completed} ops in {:.3} s)",
            window.elapsed.as_secs_f64()
        );
        metrics.insert("throughput_ops_s", (throughput, "1/s"));
        let query_ms: Vec<f64> = served
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Answered(_)))
            .map(|r| ms(r.rtt_ns))
            .collect();
        println!("setup_s runs: {setup_times:?}");
        report_percentile(&mut metrics, "query_p50_ms", &query_ms, 50.0)?;
        report_percentile(&mut metrics, "query_p99_ms", &query_ms, 99.0)?;
        metrics.insert("setup_s", (median(&setup_times).expect("set up"), "s"));
        metrics.insert("peak_rss_mb", (window.peak_rss_mb, "MiB"));
    }

    let correct = failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = work_dir();
    // Storage directories, twins and the operation log of this process;
    // removed however the run ends.
    let scratch = work.join(format!("run-{}", std::process::id()));
    let outcome = run(&args, &work, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: answer checks failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
