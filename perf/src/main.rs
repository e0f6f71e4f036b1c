//! `perf`: the wall-clock benchmark of FractOS-rs. See `perf/README.md`.
//!
//! ```text
//! perf [run] --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf run --all [--seed <n>] [--record]
//! perf check [--seed <n>]
//! perf ladder
//! perf manifest
//! ```
//!
//! The first form is what a benchmark driver calls: `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones, and the last
//! line of standard output is one JSON object with the result.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

mod check;
mod ladder;
mod measure;
mod micro;
mod report;
mod traced;
mod workloads;

use ladder::Effort;
use measure::{median, peak_rss_mib, repeat, Mode, Repeat, SimFacts, Traced};
use report::{result_line, END_TO_END, HOST_BOUND, PER_LAYER, RUN_SECONDS};
use workloads::{build, Backend, Kind, Spec, SPECS};

/// Timed repeats of an end-to-end run, whatever `--seconds` says.
const MIN_REPEATS: usize = 5;

/// Set-up samples of an end-to-end run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;

/// Least wall of one set-up sample.
const SETUP_BATCH: Duration = Duration::from_millis(50);

/// A timed repeat shorter than this measures the host's noise, not the
/// simulator: the workload must be re-sized.
const TOO_SHORT: Duration = Duration::from_millis(50);

/// Least untraced repeats a traced run compares its wall against.
const TRACE_REFERENCE_REPEATS: usize = 3;

/// The share of a benchmark driver's 3,420 s one run may take: the driver
/// makes 4 + 22 × 6 runs (and two builds).
const RUN_TIME_SHARE: Duration = Duration::from_secs(3_420 / (4 + 22 * 6));

const DEFAULT_SEED: u64 = 61;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf [run] --workload <name> --seed <n> --seconds <s> --trace <0|1> [--ladder quick|full|off]\n\
         \x20      perf run --all [--seed <n>] [--record]\n\
         \x20      perf check [--seed <n>]\n\
         \x20      perf ladder\n\
         \x20      perf manifest\n\
         workloads: {}",
        SPECS.map(|s| s.name).join(" ")
    );
    ExitCode::from(2)
}

/// Command-line options, checked where they enter.
struct Options {
    command: String,
    workload: Option<Spec>,
    all: bool,
    record: bool,
    seed: u64,
    seconds: Duration,
    trace: bool,
    ladder: Option<Effort>,
}

fn parse(args: &[String]) -> Option<Options> {
    let mut o = Options {
        command: "run".into(),
        workload: None,
        all: false,
        record: false,
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(RUN_SECONDS),
        trace: false,
        ladder: Some(Effort::QUICK),
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        o.command = first.to_string();
        it.next();
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--all" => o.all = true,
            "--record" => o.record = true,
            "--workload" => o.workload = Some(workloads::spec(it.next()?)?),
            "--seed" => o.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                let s = it.next()?.parse().ok().filter(|s| (1..=60).contains(s))?;
                o.seconds = Duration::from_secs(s);
            }
            "--trace" => {
                o.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--ladder" => {
                o.ladder = match it.next()?.as_str() {
                    "quick" => Some(Effort::QUICK),
                    "full" => Some(Effort::FULL),
                    "off" => None,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(o) = parse(&args) else {
        return usage();
    };
    match (o.command.as_str(), o.workload, o.all) {
        ("run", Some(spec), false) => {
            let (warnings, result) = if o.trace {
                per_layer(spec, o.seed, o.seconds, o.ladder)
            } else {
                end_to_end(spec, o.seed, o.seconds)
            };
            // Warnings are for `run --all`, which turns them into its exit
            // code; a driver's run ends on the result line and exits 0.
            for w in warnings {
                println!("warning: {w}");
            }
            println!("{result}");
            ExitCode::SUCCESS
        }
        ("run", None, true) => run_all(o.seed, o.record),
        ("check", None, false) => {
            if check::run(o.seed) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ("ladder", None, false) => {
            print_ladder(&ladder::run(Effort::FULL));
            ExitCode::SUCCESS
        }
        ("manifest", None, false) => {
            print!("{}", report::manifest());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Pairs measured values with the units their definitions give them.
///
/// # Panics
///
/// Panics unless `values` are exactly the defined metrics, in order: a
/// value must never be reported under another metric's name.
fn with_units<'a>(
    values: &[(&'a str, f64)],
    defined: impl ExactSizeIterator<Item = (&'a str, &'a str)>,
) -> Vec<(&'a str, &'a str, f64)> {
    assert_eq!(values.len(), defined.len(), "one value per defined metric");
    values
        .iter()
        .zip(defined)
        .map(|(&(name, value), (defined_name, unit))| {
            assert_eq!(
                name, defined_name,
                "metrics are reported in definition order"
            );
            (name, unit, value)
        })
        .collect()
}

/// Checks that a repeat simulated exactly what the first one did.
fn same_simulation(reference: &SimFacts, r: &Repeat, what: &str) -> bool {
    let same = r.sim == *reference;
    if !same {
        println!(
            "  {what} simulated something else: {:?} vs {reference:?}",
            r.sim
        );
    }
    same
}

/// Seconds to build one world, [`SETUP_SAMPLES`] times over. A world that
/// builds in microseconds is built many times per sample, about
/// [`SETUP_BATCH`] worth, so that a sample is never at the resolution of
/// the clock or the mercy of one page fault; `estimate` sizes the batch.
fn setup_samples(spec: Spec, seed: u64, estimate: f64) -> Vec<f64> {
    let batch = (SETUP_BATCH.as_secs_f64() / estimate).clamp(1.0, 20_000.0) as u32;
    (0..SETUP_SAMPLES)
        .map(|_| {
            let mut building = Duration::ZERO;
            for _ in 0..batch {
                let t = Instant::now();
                let world = build(spec, spec.ops, seed, false);
                building += t.elapsed();
                // Outside the clock: dropping is not set-up. Dropped at
                // once all the same, so that memory stays flat.
                drop(world);
            }
            building.as_secs_f64() / f64::from(batch)
        })
        .collect()
}

/// `--trace 0`: times the workload and prints the end-to-end metrics.
fn end_to_end(spec: Spec, seed: u64, seconds: Duration) -> (Vec<String>, String) {
    let warm = repeat(spec, spec.ops, seed, Mode::Plain);
    let reference = warm.sim.clone();
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPEATS || started.elapsed() < seconds {
        reps.push(repeat(spec, spec.ops, seed, Mode::Plain));
    }
    // Before the set-up samples below hold several worlds at once.
    let peak_rss = peak_rss_mib().expect("VmHWM in /proc/self/status; the benchmark runs on Linux");
    let mut setups = setup_samples(
        spec,
        seed,
        reps.iter().map(|r| r.setup_s).sum::<f64>() / reps.len() as f64,
    );

    let mut walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall = median(&mut walls);
    let (min, max) = (walls[0], walls[walls.len() - 1]);
    let deterministic = reps
        .iter()
        .all(|r| same_simulation(&reference, r, "a repeat"));
    let s = &reference;
    let ops = s.attempted as f64;
    let values = [
        ("host_ops_per_s", ops / wall),
        ("host_events_per_s", s.events as f64 / wall),
        ("host_peak_rss_mb", peak_rss),
        ("setup_s", median(&mut setups)),
        ("sim_lat_p50_us", us(s.lat_p50_ns)),
        ("sim_lat_p99_us", us(s.lat_p99_ns)),
        ("sim_ops_per_s", ops / (s.virt_ns as f64 / 1e9)),
        // On the wire every message carries a header; the fabric's own
        // counter leaves it out.
        (
            "sim_net_bytes_per_op",
            (s.net_bytes + s.net_msgs * fractos_net::WIRE_HEADER_BYTES) as f64 / ops,
        ),
        ("sim_net_msgs_per_op", s.net_msgs as f64 / ops),
        ("ok_share", 1.0 - s.failed as f64 / ops),
    ];
    let metrics = with_units(&values, END_TO_END.iter().map(|m| (m.name, m.unit)));

    println!(
        "{} (seed {seed}): {} ops per repeat, {} timed repeats, 1 warm-up discarded",
        spec.name,
        s.attempted,
        reps.len()
    );
    println!(
        "  wall per repeat: median {wall:.4} s, min {min:.4} s, max {max:.4} s, n {}",
        walls.len()
    );
    let in_order: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!("  walls in run order: {} s", in_order.join(" "));
    println!(
        "  simulated: {} events, {:.3} ms virtual, {} latency samples, sim_digest {:016x}",
        s.events,
        s.virt_ns as f64 / 1e6,
        s.lat_count,
        s.digest
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<22} {value:>16.4} {unit}");
    }

    let mut warnings = Vec::new();
    if min < TOO_SHORT.as_secs_f64() {
        warnings.push(format!(
            "too_short: {} repeats in {min:.4} s; re-size the workload so a repeat takes at least {TOO_SHORT:?}",
            spec.name
        ));
    }
    // The statistic a driver judges steadiness by: the distance between
    // the quartiles as a share of the median.
    let (q1, q3) = (walls[walls.len() / 4], walls[walls.len() * 3 / 4]);
    if (q3 - q1) / wall > HOST_BOUND {
        warnings.push(format!(
            "noisy: {} repeats spread (q3-q1)/median = {:.3}, above the {HOST_BOUND} bound of host_ops_per_s",
            spec.name,
            (q3 - q1) / wall
        ));
    }
    let runs = 1 + reps.len() as u64;
    let correct = s.failed == 0 && deterministic;
    let result = result_line(s.attempted * runs, s.failed * runs, correct, &metrics);
    (warnings, result)
}

/// `--trace 1`: the traced run (table A), the exact counters (B) and, unless
/// switched off, the ladder (C).
fn per_layer(
    spec: Spec,
    seed: u64,
    seconds: Duration,
    ladder: Option<Effort>,
) -> (Vec<String>, String) {
    // The warm-up doubles as the run that makes the sharded engine count
    // its rounds.
    let counted = repeat(spec, spec.ops, seed, Mode::Telemetry);
    // The untraced reference gets a third of the run; the traced run and
    // the ladder need the rest.
    let started = Instant::now();
    let mut plain = Vec::new();
    while plain.len() < TRACE_REFERENCE_REPEATS || started.elapsed() < seconds / 3 {
        plain.push(repeat(spec, spec.ops, seed, Mode::Plain));
    }
    let s = plain[0].sim.clone();
    let traced_run = repeat(spec, spec.ops, seed, Mode::Traced { events: s.events });
    let unperturbed = same_simulation(&s, &traced_run, "the traced run")
        && same_simulation(&s, &counted, "the telemetry run")
        && plain.iter().all(|r| same_simulation(&s, r, "a repeat"));
    let wall_plain = median(&mut plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let t = Traced(traced_run.chunks);
    let c = plain[0].counters;
    let ops = s.attempted as f64;
    let events = s.events as f64;
    let per_op = |layer: &str| t.layer(layer).0 / ops;

    println!(
        "{} (seed {seed}): traced run, {} events in {} chunks, sim_digest {:016x}",
        spec.name,
        t.events(),
        measure::CHUNKS,
        s.digest
    );
    println!("  A. host time by layer (busy = inside Actor::handle; a Process's includes core::process dispatch)");
    println!(
        "  {:<22} {:>10} {:>7} {:>10} {:>10} {:>6}",
        "layer", "busy ms", "share", "deliveries", "ns/deliv", "q4/q1"
    );
    for layer in traced::LAYERS {
        let (ns, n) = t.layer(layer);
        if n == 0 {
            continue;
        }
        println!(
            "  {layer:<22} {:>10.2} {:>6.1}% {n:>10} {:>10.0} {:>6.2}",
            ns / 1e6,
            100.0 * ns / t.wall_ns(),
            ns / n as f64,
            t.layer_growth(&[layer])
        );
    }
    println!(
        "  {:<22} {:>10.2} {:>6.1}% {:>10} {:>10.0} {:>6}",
        "sim.engine (self)",
        t.engine_self_ns() / 1e6,
        100.0 * t.engine_self_ns() / t.wall_ns(),
        t.events(),
        t.engine_self_ns() / t.events() as f64,
        "-"
    );
    println!(
        "  {:<22} {:>10.2} {:>6.1}% {:>10} {:>10.0} {:>6.2}",
        "wall",
        t.wall_ns() / 1e6,
        100.0,
        t.events(),
        t.wall_ns() / t.events() as f64,
        t.wall_growth()
    );

    let rounds = counted.rounds.unwrap_or_default();
    let per_round = |x: f64| {
        if rounds.rounds == 0 {
            0.0
        } else {
            x / rounds.rounds as f64
        }
    };
    let shards = match spec.kind {
        Kind::Ring { nodes } | Kind::Mesh { nodes } => f64::from(nodes),
        Kind::FsMixed | Kind::FvRing => 3.0,
    };
    let cache_hit_share = match c.nvme_cache {
        Some((hits, misses)) if hits + misses > 0 => hits as f64 / (hits + misses) as f64,
        _ => 0.0,
    };
    let devices = ["devices.nvme", "devices.gpu"];
    let services = ["services.fs", "services.faceverify"];
    let values = [
        (
            "sim.engine.self_ns_per_event",
            t.engine_self_ns() / t.events() as f64,
        ),
        ("sim.q4_over_q1", t.wall_growth()),
        ("core.controller.busy_ns_per_op", per_op("core.controller")),
        (
            "core.controller.events_per_op",
            t.layer("core.controller").1 as f64 / ops,
        ),
        (
            "core.controller.q4_over_q1",
            t.layer_growth(&["core.controller"]),
        ),
        ("devices.nvme.busy_ns_per_op", per_op("devices.nvme")),
        ("devices.gpu.busy_ns_per_op", per_op("devices.gpu")),
        ("devices.q4_over_q1", t.layer_growth(&devices)),
        ("services.fs.busy_ns_per_op", per_op("services.fs")),
        (
            "services.faceverify.busy_ns_per_op",
            per_op("services.faceverify"),
        ),
        ("services.q4_over_q1", t.layer_growth(&services)),
        (
            "baselines.raw.busy_ns_per_event",
            t.layer("baselines.raw").0 / events,
        ),
        ("app.client.busy_ns_per_op", per_op("app.client")),
        ("app.server.busy_ns_per_op", per_op("app.server")),
        (
            "trace.overhead_pct",
            (traced_run.wall_s / wall_plain - 1.0) * 100.0,
        ),
        ("sim.events_per_op", events / ops),
        ("sim.sharded.rounds", rounds.rounds as f64),
        ("sim.sharded.events_per_round", per_round(events)),
        ("sim.sharded.host_us_per_round", per_round(wall_plain * 1e6)),
        (
            "sim.sharded.stalled_share",
            per_round(rounds.stalled_shard_rounds as f64) / shards,
        ),
        (
            "sim.sharded.cross_msgs_per_round",
            per_round(rounds.cross_msgs as f64),
        ),
        ("sim.queue.pending_peak", t.pending_peak() as f64),
        ("net.control_msgs_per_op", s.control_msgs as f64 / ops),
        ("net.data_msgs_per_op", s.data_msgs as f64 / ops),
        ("net.data_bytes_per_op", s.data_bytes as f64 / ops),
        ("core.syscalls_per_op", s.syscalls as f64 / ops),
        ("core.verify_checks_per_op", s.verify_checks as f64 / ops),
        ("core.table_objects_end", c.ctrl_table_objects as f64),
        ("core.capspace_len_end", c.ctrl_capspace_len as f64),
        (
            "core.ctrl_footprint_bytes_end",
            c.ctrl_footprint_bytes as f64,
        ),
        ("core.pending_ops_end", c.ctrl_pending_ops as f64),
        ("devices.nvme.ops", c.nvme_ops as f64),
        ("devices.nvme.cache_hit_share", cache_hit_share),
        ("devices.gpu.kernels", c.gpu_kernels as f64),
    ];
    let mut metrics = with_units(
        &values,
        PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)),
    );
    println!("  A+B. per-layer metrics (0 where the workload has no such layer)");
    for (name, unit, value) in &metrics {
        println!("  {name:<38} {value:>16.3} {unit}");
    }

    let mut warnings = Vec::new();
    if spec.backend == Backend::Sharded && rounds.rounds == 0 {
        warnings.push(format!(
            "no_rounds: {} counted no sharded rounds",
            spec.name
        ));
    }
    if let Some(effort) = ladder {
        let rungs = ladder::run(effort);
        print_ladder(&rungs);
        metrics.extend(rungs.iter().map(|r| (r.name, r.unit, r.value)));
    }
    let correct = s.failed == 0 && unperturbed;
    (
        warnings,
        result_line(s.attempted, s.failed, correct, &metrics),
    )
}

fn print_ladder(rungs: &[ladder::Rung]) {
    println!("  C. ladder: host ns per operation of one layer's public functions (delta to the rung below)");
    let mut below = None;
    for r in rungs {
        let delta = below.map_or(String::new(), |b: f64| format!("{:+.1}", r.value - b));
        println!(
            "  {:<38} {:>14.1} {:<3} {delta:>14}",
            r.name, r.value, r.unit
        );
        below = Some(r.value);
    }
}

/// Runs `perf` itself with `args`, echoing its output; returns the output,
/// whether it succeeded, and how long it took.
fn child(args: &[&str]) -> (String, bool, Duration) {
    let exe = std::env::current_exe().expect("the running program has a path");
    let t = Instant::now();
    // `output()` waits for the child to end.
    let out = Command::new(exe).args(args).output();
    let took = t.elapsed();
    match out {
        Ok(out) => {
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            (stdout, out.status.success(), took)
        }
        Err(e) => {
            eprintln!("perf: cannot start a child run: {e}");
            (String::new(), false, took)
        }
    }
}

/// First line of a command's output, or "unknown".
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `run --all`: the check stage, then every workload untraced and traced,
/// each in a child process of its own so that peak RSS is per workload,
/// then the full ladder in this one. Any warning makes the exit code non-zero.
fn run_all(seed: u64, record: bool) -> ExitCode {
    use fractos_obs::Json;

    let started = Instant::now();
    if !check::run(seed) {
        eprintln!("perf: the check stage failed; nothing was timed");
        return ExitCode::FAILURE;
    }
    let mut warnings: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    let seed_arg = seed.to_string();
    let seconds = RUN_SECONDS.to_string();
    for spec in SPECS {
        let [end_to_end, per_layer] = ["0", "1"].map(|trace| {
            println!();
            let args = [
                "run",
                "--workload",
                spec.name,
                "--seed",
                &seed_arg,
                "--seconds",
                &seconds,
                "--trace",
                trace,
                "--ladder",
                "off",
            ];
            let (stdout, ok, took) = child(&args);
            warnings.extend(
                stdout
                    .lines()
                    .filter_map(|l| l.strip_prefix("warning: "))
                    .map(str::to_string),
            );
            let last = stdout.lines().last().unwrap_or_default();
            if !ok || !last.starts_with("{\"correct\":true,") {
                warnings.push(format!(
                    "failed: {} --trace {trace} did not end in a correct result",
                    spec.name
                ));
            }
            if took > RUN_TIME_SHARE {
                warnings.push(format!(
                    "over_time_share: {} --trace {trace} took {took:.1?}, above the {RUN_TIME_SHARE:?} a driver's run may average",
                    spec.name
                ));
            }
            Json::Raw(if ok { last.to_string() } else { "null".into() })
        });
        rows.push((
            spec.name,
            Json::obj(vec![("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    println!();
    let rungs = ladder::run(Effort::FULL);
    print_ladder(&rungs);
    let rungs: Vec<(String, Json)> = rungs
        .iter()
        .map(|r| (r.name.to_string(), Json::Num(r.value)))
        .collect();

    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let row = Json::obj(vec![
        ("rev", Json::Str(probe("git", &["rev-parse", "HEAD"]))),
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(probe("rustc", &["--version"]))),
        ("seed", Json::UInt(seed)),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        ("workloads", Json::obj(rows)),
        ("ladder", Json::Obj(rungs)),
        (
            "warnings",
            Json::Arr(warnings.iter().cloned().map(Json::Str).collect()),
        ),
    ]);

    println!("\nsummary: {:.0} s in all", started.elapsed().as_secs_f64());
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = package.join("out");
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join("row.json"), format!("{row}\n")))
        .and_then(|()| {
            if record {
                use std::io::Write;
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(package.join("history.jsonl"))?;
                writeln!(f, "{row}")?;
                f.flush()
            } else {
                Ok(())
            }
        });
    match written {
        Ok(()) => println!(
            "  wrote {}{}",
            out.join("row.json").display(),
            if record {
                " and appended it to history.jsonl"
            } else {
                ""
            }
        ),
        Err(e) => warnings.push(format!("failed: cannot write the run's row: {e}")),
    }
    if warnings.is_empty() {
        println!("  no warnings");
        ExitCode::SUCCESS
    } else {
        for w in &warnings {
            println!("  warning: {w}");
        }
        ExitCode::FAILURE
    }
}
