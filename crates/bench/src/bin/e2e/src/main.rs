//! `e2e`: raw HTTP bytes → verdict, timed end to end and layer by
//! layer. See README.md next to this package for the definitions.

mod alloc;
mod calib;
mod check;
mod direct;
mod metrics;
mod pool;
mod serve;
mod spans;
mod stats;

use calib::Kernel;
use check::{Reference, Tally};
use metrics::{object, Record, END_TO_END};
use pool::{Path, Pool, Workload};
use psigene::psigene_http::parse_request;
use psigene::psigene_rulesets::DetectionEngine;
use psigene::{PipelineConfig, Psigene};
use serde_json::Value;
use spans::{SpanBuffer, LAYERS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds one run measures for unless `--seconds` says otherwise;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// Set-ups timed for `setup_s`, which is their median.
const SETUP_REPEATS: usize = 5;

/// Open-loop schedules of the traced run, in requests per second. The
/// untraced run holds the middle one for its whole length.
const LADDER: [f64; 3] = [20_000.0, 40_000.0, 80_000.0];
const OPEN_RATE: f64 = LADDER[1];

/// Where the trace and the detailed records go, under the current
/// directory.
const OUT_DIR: &str = "target/e2e";

const USAGE: &str =
    "usage: e2e [--workload <name> --trace <0|1>] [--seed <n>] [--seconds <n>] [--repeat <k>]
  with --workload: run that workload once and print the result line last
  without: run every workload, untraced then traced, --repeat times";

struct Args {
    workload: Option<Workload>,
    traced: bool,
    seed: u64,
    seconds: f64,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        traced: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        repeat: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value).ok_or_else(bad)?);
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad())?;
                if args.repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One timed set-up: the configuration `ids_gateway` deploys.
struct SetUp {
    total_s: f64,
    prepare_s: f64,
    phases: psigene::report::PhaseTimings,
}

fn set_up() -> (Psigene, SetUp) {
    let start = Instant::now();
    let trained = Psigene::train(&PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    });
    let trained_at = start.elapsed().as_secs_f64();
    let system = trained.with_insight(true);
    system.prepare();
    let total_s = start.elapsed().as_secs_f64();
    let phases = system.report().phase_seconds;
    let timing = SetUp {
        total_s,
        prepare_s: total_s - trained_at,
        phases,
    };
    (system, timing)
}

/// What every run of an invocation shares.
struct Context {
    kernel: Kernel,
    /// The engine as deployed, and the same engine without the drift
    /// monitors (for the traced run's on − off).
    on: Arc<Psigene>,
    off: Psigene,
    setups: Vec<SetUp>,
    seed: u64,
}

impl Context {
    fn new(seed: u64, setups: usize) -> Context {
        let mut timings = Vec::with_capacity(setups);
        let mut system = None;
        for _ in 0..setups {
            // Drop the previous system first: peak memory is that of
            // one deployed engine, not two.
            drop(system.take());
            let (s, t) = set_up();
            system = Some(s);
            timings.push(t);
        }
        let on = system.expect("at least one set-up");
        Context {
            kernel: Kernel::new(),
            off: on.with_insight(false),
            on: Arc::new(on),
            setups: timings,
            seed,
        }
    }

    fn setup_median(&self, pick: impl Fn(&SetUp) -> f64) -> f64 {
        stats::median(&mut self.setups.iter().map(pick).collect::<Vec<_>>())
    }

    fn fingerprint(&self) -> Value {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split(':').nth(1)?.trim().to_string())
            })
            .unwrap_or_default();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        object([
            ("nproc", Value::Number(nproc as f64)),
            ("cpu_model", Value::String(cpu)),
            (
                "raw.calib_ms",
                Value::Number(stats::median(&mut self.kernel.runs()) / 1e6),
            ),
        ])
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One untimed direct cycle through the pool.
fn replay_direct(system: &Psigene, pool: &Pool, reference: &Reference, tally: &mut Tally) {
    let mut failed = 0;
    for (i, wire) in pool.wire.iter().enumerate() {
        failed += parse_request(black_box(wire)).map_or(1, |request| {
            reference.mismatch(i, &system.evaluate(&request))
        });
    }
    tally.add(pool.len() as u64, failed);
}

/// One untimed cycle through each gateway call: with the reference
/// taken on the direct path, this checks that all three paths give
/// every request the same verdict.
fn cross_check(ctx: &Context, pool: &Pool, reference: &Reference, tally: &mut Tally) {
    for path in [Path::Submit, Path::Batch] {
        let mut client = serve::Client::start(&ctx.on, pool, reference, path, false);
        client.replay_pool();
        client.finish(tally);
    }
}

/// The untraced run: every end-to-end metric of one workload.
fn run_untraced(ctx: &Context, workload: Workload, seconds: f64) -> Record {
    let mut record = Record::new(workload.name(), false);
    let mut tally = Tally::default();
    let pool = pool::build(workload, ctx.seed);
    let reference = Reference::take(&ctx.on, &pool, &mut tally);
    cross_check(ctx, &pool, &reference, &mut tally);
    let kernel = &ctx.kernel;

    // The direct passes repeat to a few percent and get most of the
    // time; the gateway figure is a total over its pass and gains
    // little from a longer one.
    let (direct_share, gateway_share) = (0.4, 0.2);
    let timed = direct::throughput(
        &ctx.on,
        &pool,
        &reference,
        kernel,
        seconds * direct_share,
        &mut tally,
    );
    record.put_timed("throughput_rps", &timed, |ns| 1e9 / ns);
    record.note("raw_throughput_rps", timed.raw_rate());
    let latency = direct::latency(
        &ctx.on,
        &pool,
        &reference,
        kernel,
        seconds * direct_share,
        &mut tally,
    );
    let (p50, p99) = latency.percentiles();
    record.put("latency_p50_us", p50 / 1e3);
    record.put("latency_p99_us", p99 / 1e3);
    record.note("latency_samples", latency.samples() as f64);

    let path = workload.path();
    let mut client = serve::Client::start(&ctx.on, &pool, &reference, path, path == Path::Open);
    client.replay_pool();
    let cpu_ns = if path == Path::Open {
        client
            .open(kernel, seconds * gateway_share, OPEN_RATE)
            .cpu_ns_per_request
    } else {
        client
            .closed(kernel, seconds * gateway_share)
            .cpu_ns_per_request
    };
    client.finish(&mut tally);
    record.put("gateway_throughput_rps", 1e9 / cpu_ns);

    record.put("setup_s", ctx.setup_median(|s| s.total_s));
    record.put("detect_accuracy", reference.quality(&pool).0);
    record.put("peak_rss_mb", peak_rss_mb());
    record.tally = tally;
    record.digest = reference.digest;
    record
}

/// How the traced run divides its time: the direct path untraced (the
/// yardstick for `bench.layer_sum_ratio`), the direct path traced, and
/// the gateway passes, which share theirs equally.
const TRACED_SHARES: (f64, f64, f64) = (0.15, 0.35, 0.5);

/// The traced run: every per-layer metric of one workload, and the
/// span file.
fn run_traced(ctx: &Context, workload: Workload, seconds: f64) -> Record {
    let mut record = Record::new(workload.name(), true);
    let mut tally = Tally::default();
    let pool = pool::build(workload, ctx.seed);
    let reference = Reference::take(&ctx.on, &pool, &mut tally);
    let kernel = &ctx.kernel;
    let path = workload.path();
    let (untraced_share, traced_share, gateway_share) = TRACED_SHARES;
    let requests = pool.len() as f64;

    // Counts first, while this is the only thread that evaluates.
    let counts = direct::counts(&ctx.on, &pool);
    record.put("http.normalize_passes", counts.normalize_passes);
    record.put("features.vm_runs_per_request", counts.vm_runs);
    record.put("features.vm_skip_ratio", counts.vm_skip_ratio);
    record.put(
        "features.fallback_vm_runs_per_request",
        counts.fallback_vm_runs,
    );
    record.put("features.nonzero_per_request", counts.nonzero_features);

    // The direct path and its layers, on this workload's traffic.
    let untraced = direct::throughput(
        &ctx.on,
        &pool,
        &reference,
        kernel,
        seconds * untraced_share,
        &mut tally,
    );
    let direct_ns = untraced.calibrated();
    let mut buffer = SpanBuffer::new();
    let layers = direct::traced(
        &ctx.on,
        &ctx.off,
        &pool,
        &reference,
        kernel,
        seconds * traced_share,
        &mut buffer,
        &mut tally,
    );
    let (duration, own) = layers.calibrated();
    let evaluate_ns = duration[spans::EVALUATE];
    let layer_sum = duration[spans::PARSE] + evaluate_ns;
    record.put("http.parse_ns", duration[spans::PARSE]);
    record.put("http.normalize_ns", duration[spans::NORMALIZE]);
    record.put("regex.scan_ns", duration[spans::SCAN]);
    record.put("features.extract_ns", duration[spans::EXTRACT]);
    record.put("features.count_ns", own[spans::EXTRACT]);
    record.put("core.score_ns", duration[spans::SCORE]);
    record.put("core.evaluate_ns", evaluate_ns);
    record.put("core.overhead_ns", own[spans::EVALUATE_PLAIN]);
    record.put("core.insight_ns", own[spans::EVALUATE]);
    record.put("core.insight_share", own[spans::EVALUATE] / evaluate_ns);
    record.put("bench.layer_sum_ratio", layer_sum / direct_ns);
    record.put("bench.trace_overhead_ratio", layer_sum / direct_ns - 1.0);
    record.put("bench.timer_ns", layers.timer_ns);
    let stepped = (layers.scanned_bytes - layers.dfa_skipped_bytes).max(1) as f64;
    let scanned = layers.scanned_bytes.max(1) as f64;
    record.put(
        "regex.scan_ns_per_byte",
        duration[spans::SCAN] * layers.requests as f64 / scanned,
    );
    record.put("regex.dfa_miss_ratio", layers.dfa_misses as f64 / stepped);
    record.put("regex.dfa_flushes", layers.dfa_flushes as f64);
    record.put(
        "regex.dfa_skipped_ratio",
        layers.dfa_skipped_bytes as f64 / scanned,
    );
    record.put("regex.dfa_states", f64::from(layers.dfa_states));

    // The workload's own path: heap calls per request on a warm
    // system, then the gateway passes.
    let mut raw_rate = untraced.raw_rate();
    let direct_allocs = alloc::count(|| replay_direct(&ctx.on, &pool, &reference, &mut tally));
    record.put("allocs_per_request", direct_allocs as f64 / requests);
    let (allocs, stats) = match path {
        Path::Submit | Path::Batch => {
            let mut client = serve::Client::start(&ctx.on, &pool, &reference, path, false);
            client.replay_pool();
            let allocs = alloc::count(|| client.replay_pool());
            let plain = client.closed(kernel, seconds * gateway_share / 2.0);
            client.finish(&mut tally);
            raw_rate = plain.cost.raw_rate();
            record.put("serve.cpu_ns", plain.cpu_ns_per_request);
            record.put("serve.wall_ns", plain.cost.calibrated());

            let mut client = serve::Client::start(&ctx.on, &pool, &reference, path, true);
            client.replay_pool();
            let tapped = client.closed(kernel, seconds * gateway_share / 2.0);
            let stats = client.finish(&mut tally);
            let (p50, p99) = tapped.sojourn.percentiles();
            record.put("serve.submit_ns", tapped.submit_ns.mean());
            record.put("serve.sojourn_p50_us", p50 / 1e3);
            record.put("serve.sojourn_p99_us", p99 / 1e3);
            let (p50, p99) = tapped.latency.percentiles();
            record.put("serve.latency_p50_us", p50 / 1e3);
            record.put("serve.latency_p99_us", p99 / 1e3);
            (allocs, stats)
        }
        Path::Open => {
            let mut client = serve::Client::start(&ctx.on, &pool, &reference, path, true);
            client.replay_pool();
            let allocs = alloc::count(|| client.replay_pool());
            let mut best_rate = 0.0;
            for rate in LADDER {
                let step = client.open(kernel, seconds * gateway_share / LADDER.len() as f64, rate);
                if step.slo_met_ratio() >= 0.99 && step.backlog_steady() {
                    best_rate = rate;
                }
                let (p50, p99) = step.latency.percentiles();
                if rate == LADDER[0] {
                    record.put("serve.open_p50_us_at_20k", p50 / 1e3);
                } else if rate == LADDER[2] {
                    record.put("serve.open_p50_us_at_80k", p50 / 1e3);
                } else {
                    raw_rate = step.rate * step.slo_met_ratio();
                    record.put("slo_met_ratio", step.slo_met_ratio());
                    record.put("serve.cpu_ns", step.cpu_ns_per_request);
                    record.put("serve.latency_p50_us", p50 / 1e3);
                    record.put("serve.latency_p99_us", p99 / 1e3);
                    let (p50, p99) = step.sojourn.percentiles();
                    record.put("serve.sojourn_p50_us", p50 / 1e3);
                    record.put("serve.sojourn_p99_us", p99 / 1e3);
                    record.put("serve.generator_late_p99_us", step.late_p99_ns / 1e3);
                }
            }
            record.put("serve.max_rate_within_slo_rps", best_rate);
            (allocs, client.finish(&mut tally))
        }
    };
    record.put(
        "serve.shed_ratio",
        stats.shed as f64 / (stats.submitted + stats.shed).max(1) as f64,
    );
    record.put("serve.allocs_per_request", allocs as f64 / requests);
    record.put("serve.overhead_ns", record.get("serve.cpu_ns") - layer_sum);
    record.put("raw.throughput_rps", raw_rate);

    let mut calib = ctx.kernel.runs();
    record.put("raw.calib_spread", stats::relative_iqr(&mut calib));
    record.put("raw.calib_ms", stats::median(&mut calib) / 1e6);

    let setup = &ctx.setups[ctx.setups.len() - 1];
    record.put("corpus.crawl_s", setup.phases.crawl);
    record.put("features.extract_matrix_s", setup.phases.extract);
    record.put("cluster.bicluster_s", setup.phases.bicluster);
    record.put("learn.fit_s", setup.phases.train);
    record.put("core.prepare_s", setup.prepare_s);

    let (_, tpr, fpr) = reference.quality(&pool);
    let flagged = reference.flagged.iter().filter(|&&f| f).count() as f64;
    let parse_failures = reference.hashes.iter().filter(|&&h| h == 0).count() as f64;
    record.put("detect_tpr", tpr);
    record.put("detect_fpr", fpr);
    record.put("core.flagged_ratio", flagged / requests);
    record.put("http.parse_fail_ratio", parse_failures / requests);
    record.put("failed_ratio", tally.failed as f64 / tally.attempted as f64);
    record.tally = tally;
    record.digest = reference.digest;

    write_trace(ctx, &record, &layers, &buffer);
    record
}

/// Writes the spans of the traced pass and its per-layer aggregates to
/// `target/e2e/trace-<workload>.json`.
fn write_trace(ctx: &Context, record: &Record, layers: &direct::Layers, buffer: &SpanBuffer) {
    let (duration, own) = layers.calibrated();
    let aggregates = LAYERS
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let entry = object([
                ("duration_ns", Value::Number(duration[i])),
                ("self_ns", Value::Number(own[i])),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let header = BTreeMap::from([
        ("workload".to_string(), Value::String(record.workload.to_string())),
        ("seed".to_string(), Value::Number(ctx.seed as f64)),
        ("requests_traced".to_string(), Value::Number(layers.requests as f64)),
        (
            "note".to_string(),
            Value::String(
                "spans are calls made by the benchmark, one after another; a child is a \
                 replayed call, not an interval inside its parent; `spans` holds raw ns, `aggregates` \
                 calibrated ns per request"
                    .to_string(),
            ),
        ),
    ]);
    let doc = buffer.to_json(header, Value::Object(aggregates));
    write_out(&format!("trace-{}.json", record.workload), &doc);
}

fn write_out(file: &str, doc: &Value) {
    let path = std::path::Path::new(OUT_DIR).join(file);
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.to_string()));
    if let Err(e) = written {
        eprintln!("e2e: cannot write {}: {e}", path.display());
    }
}

fn run(ctx: &Context, workload: Workload, traced: bool, seconds: f64) -> Record {
    let record = if traced {
        run_traced(ctx, workload, seconds)
    } else {
        run_untraced(ctx, workload, seconds)
    };
    record.print();
    let file = format!("e2e-{}-trace{}.json", record.workload, u8::from(traced));
    write_out(&file, &record.detailed(ctx.seed, &ctx.fingerprint()));
    record
}

/// Metrics of the invocation, not of a set: set-up is timed once, and
/// the memory high-water mark only ever rises.
const PER_INVOCATION: [&str; 2] = ["setup_s", "peak_rss_mb"];

/// Compares the end-to-end metrics of repeated sets: per metric and
/// workload, the gap between the extremes as a share of the median
/// against the metric's bound. Returns whether every gap is within.
fn compare_sets(sets: &[Vec<Record>]) -> bool {
    let mut within = true;
    println!(
        "== agreement of {} sets (gap = (max - min) / median; {} belong to the invocation and are left out)",
        sets.len(),
        PER_INVOCATION.join(" and ")
    );
    for (w, first) in sets[0].iter().enumerate() {
        for m in END_TO_END
            .iter()
            .filter(|m| !PER_INVOCATION.contains(&m.name))
        {
            let mut values: Vec<f64> = sets.iter().map(|set| set[w].get(m.name)).collect();
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let mid = stats::median(&mut values);
            let gap = (values[values.len() - 1] - values[0]) / mid;
            let ok = gap <= m.bound;
            within &= ok;
            println!(
                "{:<20} {:<16} {:<40} gap {:>7.4} bound {:.2} {}",
                first.workload,
                m.name,
                listed.join(" "),
                gap,
                m.bound,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    within
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(workload) = args.workload {
        // One workload, one result line, last on standard output. Only
        // the untraced run reports `setup_s`, so only it repeats set-up.
        let setups = if args.traced { 1 } else { SETUP_REPEATS };
        let ctx = Context::new(args.seed, setups);
        let record = run(&ctx, workload, args.traced, args.seconds);
        println!("{}", record.result_line());
        return ExitCode::from(u8::from(!record.correct()));
    }

    let ctx = Context::new(args.seed, SETUP_REPEATS);
    let mut correct = true;
    let mut sets = Vec::with_capacity(args.repeat);
    for _ in 0..args.repeat {
        let mut untraced = Vec::with_capacity(Workload::ALL.len());
        for workload in Workload::ALL {
            let record = run(&ctx, workload, false, args.seconds);
            correct &= record.correct();
            correct &= run(&ctx, workload, true, args.seconds).correct();
            untraced.push(record);
        }
        sets.push(untraced);
    }
    if sets.len() > 1 {
        correct &= compare_sets(&sets);
    }
    ExitCode::from(u8::from(!correct))
}
