//! The repository benchmark: four workloads over the MSE system, each
//! printing its end-to-end metrics (or, traced, its per-layer metrics)
//! by name with units and checking every output it measures.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat N] [--out FILE] [--write-golden FILE]
//! ```
//!
//! See README.md in this directory for the workloads, the metrics, and
//! how to compare two commits.

mod build;
mod corpus;
mod extract;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use mse_bench::alloc::CountingAlloc;
use serde::Value;

use crate::trace::Tracer;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

pub const WORKLOADS: &[&str] = &[
    "extract-heavy",
    "serve-cold",
    "serve-zipf",
    "build-wrappers",
];

/// End-to-end metrics: every untraced run reports each of them. The
/// meaning of the operation behind `throughput_per_s`, `p50_ms` and
/// `p95_ms` is the workload's (a page, a request, a wrapper build).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them; a layer the
/// workload does not execute reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dom.lex_us", "us"),
    ("dom.parse_self_us", "us"),
    ("dom.nodes", "count"),
    ("dom.bytes", "bytes"),
    ("render.layout_us", "us"),
    ("render.lines", "count"),
    ("ingest.self_us", "us"),
    ("ingest.allocs", "count"),
    ("compiled.match_us", "us"),
    ("compiled.materialize_us", "us"),
    ("compiled.records", "count"),
    ("compiled.allocs", "count"),
    ("serialize.us", "us"),
    ("serialize.bytes", "bytes"),
    ("pipeline.unattributed_us", "us"),
    ("server.admit_us_p50", "us"),
    ("server.first_frame_us_p50", "us"),
    ("server.first_frame_us_p99", "us"),
    ("server.done_us_p50", "us"),
    ("server.done_us_p99", "us"),
    ("server.busy_rejected", "count"),
    ("server.queue_high_water", "count"),
    ("server.lane_high_water_max", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_req", "ratio"),
    ("cache.hit_done_us_p50", "us"),
    ("cache.miss_done_us_p50", "us"),
    ("proto.encode_us", "us"),
    ("proto.decode_us_per_frame", "us"),
    ("proto.frames_per_req", "count"),
    ("proto.req_bytes", "bytes"),
    ("proto.resp_bytes", "bytes"),
    ("proto.transport_us_p50", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.outstanding_end", "count"),
    ("build.parse_ms", "ms"),
    ("build.mre_ms", "ms"),
    ("build.dse_ms", "ms"),
    ("build.refine_gran_ms", "ms"),
    ("build.group_ms", "ms"),
    ("build.wrapper_ms", "ms"),
    ("build.family_ms", "ms"),
    ("build.unattributed_ms", "ms"),
    ("build.wrappers_kept_ratio", "ratio"),
    ("treedit.cache_hit_ratio", "ratio"),
    ("treedit.lookups", "count"),
    ("setup.corpus_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("setup.golden_ms", "ms"),
    ("store.save_ms", "ms"),
    ("registry.open_ms", "ms"),
    ("compiled.compile_parts_ms", "ms"),
    ("setup.engines_skipped", "count"),
    ("trace.overhead_pct", "%"),
];

/// Input sizes and window lengths. The CLI always runs [`Scale::full`];
/// the smoke test runs [`Scale::tiny`].
#[derive(Clone, Debug)]
pub struct Scale {
    /// Key of this scale's table in the golden file.
    pub name: &'static str,
    /// Measured window of one run.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub extract_engines: usize,
    pub extract_pages: usize,
    pub serve_engines: usize,
    pub cold_pages: usize,
    pub zipf_pages: usize,
    pub build_engines: usize,
    pub holdout_pages: usize,
    /// Test hook: corrupt the first checked output, which must fail the run.
    pub corrupt: bool,
}

impl Scale {
    pub fn full(seconds: f64) -> Scale {
        Scale {
            name: "full",
            seconds,
            setup_reps: 3,
            extract_engines: 8,
            extract_pages: 128,
            serve_engines: 16,
            cold_pages: 64,
            zipf_pages: 1024,
            build_engines: 96,
            holdout_pages: 8,
            corrupt: false,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            name: "tiny",
            seconds: 0.2,
            setup_reps: 1,
            extract_engines: 2,
            extract_pages: 4,
            serve_engines: 2,
            cold_pages: 4,
            zipf_pages: 16,
            build_engines: 2,
            holdout_pages: 2,
            corrupt: false,
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Engines whose wrapper build (or promotion) failed.
    pub engines: usize,
    pub skipped: usize,
    /// Per-engine digests of the reference outputs (golden-file form).
    pub digests: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The committed reference digests for seed 2006, per scale and workload.
const GOLDEN: &str = include_str!("../golden_2006.json");
const GOLDEN_SEED: u64 = 2006;

fn golden(scale: &str, workload: &str) -> Option<Vec<String>> {
    let v: Value = serde_json::from_str(GOLDEN).ok()?;
    let table = field(&v, scale)?;
    let list = field(table, workload)?.as_seq()?;
    list.iter()
        .map(|d| match d {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, x)| x)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// Run one workload and judge it: per-operation failures, the golden
/// digests (seed 2006) and the skipped-engine limit.
pub fn run_workload(
    workload: &str,
    seed: u64,
    scale: &Scale,
    trace: bool,
    tr: &mut Tracer,
) -> Result<(Outcome, Vec<String>), String> {
    let out = match workload {
        "extract-heavy" => extract::run(seed, scale, trace, tr),
        "serve-cold" => serve::run(seed, scale, serve::Mix::Cold, trace, tr),
        "serve-zipf" => serve::run(seed, scale, serve::Mix::Zipf, trace, tr),
        "build-wrappers" => build::run(seed, scale, trace, tr),
        other => return Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    }?;
    let mut errors = Vec::new();
    if out.failed > 0 {
        errors.push(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    if out.skipped * 4 > out.engines {
        errors.push(format!(
            "{} of {} engines skipped (limit 25%)",
            out.skipped, out.engines
        ));
    }
    if seed == GOLDEN_SEED {
        match golden(scale.name, workload) {
            Some(g) if g == out.digests => {}
            Some(g) => {
                for (e, (want, got)) in g.iter().zip(&out.digests).enumerate() {
                    if want != got {
                        errors.push(format!("engine{e}: output digest {got} != golden {want}"));
                    }
                }
                if g.len() != out.digests.len() {
                    errors.push(format!(
                        "{} engine digests, golden has {}",
                        out.digests.len(),
                        g.len()
                    ));
                }
            }
            None => errors.push(format!("no golden digests for {}/{workload}", scale.name)),
        }
    }
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in wanted {
        match out.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v.is_finite() => {}
            Some((_, v)) => errors.push(format!("metric {name} is not finite ({v})")),
            None => errors.push(format!("metric {name} was not measured")),
        }
    }
    Ok((out, errors))
}

/// The result object: the last line of standard output.
fn result_json(out: &Outcome, correct: bool, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|(name, unit)| {
            let v = out
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |m| m.1);
            (
                name.to_string(),
                Value::Map(vec![
                    (
                        "value".into(),
                        Value::Float(if v.is_finite() { v } else { 0.0 }),
                    ),
                    ("unit".into(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let doc = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(out.attempted.max(1))),
        ("failed".into(), Value::UInt(out.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<String>,
    write_golden: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: GOLDEN_SEED,
        seconds: 20.0,
        trace: false,
        repeat: 0,
        out: None,
        write_golden: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workloads.push(val()?.clone()),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--repeat" => a.repeat = val()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => a.out = Some(val()?.clone()),
            "--write-golden" => a.write_golden = Some(val()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    for w in &a.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload '{w}' (one of {WORKLOADS:?})"));
        }
    }
    if a.workloads.is_empty() {
        if a.repeat == 0 && a.write_golden.is_none() {
            return Err("--workload is required (or use --repeat to run them all)".into());
        }
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if a.repeat == 0 && a.write_golden.is_none() && a.workloads.len() > 1 {
        return Err("give one --workload per run (or use --repeat)".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_golden {
        return write_golden(path, args.seconds);
    }
    if args.repeat > 0 {
        return repeat(&args);
    }
    let workload = &args.workloads[0];
    let scale = Scale::full(args.seconds);
    let mut tr = Tracer::new(Instant::now());
    let (out, errors) = match run_workload(workload, args.seed, &scale, args.trace, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &errors {
        eprintln!("benchmark: {workload}: INCORRECT: {e}");
    }
    let correct = errors.is_empty();
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        let v = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |m| m.1);
        println!("{workload} {name} {v} {unit}");
    }
    let json = result_json(&out, correct, args.trace);
    if let Some(path) = &args.out {
        let written = std::fs::write(path, format!("{json}\n")).and_then(|()| {
            if args.trace {
                std::fs::write(format!("{path}.trace.json"), tr.to_json())
            } else {
                Ok(())
            }
        });
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: run each selected workload N times, each in a fresh
/// process with seeds `seed..seed+N`, and print every metric's median
/// and quartiles (quartiles as Python's
/// `statistics.quantiles(v, n=4)` gives them). A metric whose relative
/// interquartile range exceeds its `BENCHMARK.json` bound is flagged;
/// `setup_s` is exempt, since its bound is checked on medians only.
fn repeat(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok());
    let bound_of = |name: &str| -> Option<f64> {
        let list = field(bounds.as_ref()?, "end_to_end")?.as_seq()?;
        let m = list
            .iter()
            .find(|m| matches!(field(m, "name"), Some(Value::Str(n)) if n == name))?;
        number(field(m, "bound")?)
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    for w in &args.workloads {
        let mut runs: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
        for i in 0..args.repeat {
            let seed = args.seed + i as u64;
            let child = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output();
            let parsed = child.ok().and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let last = text.lines().last()?.to_string();
                let v: Value = serde_json::from_str(&last).ok()?;
                Some((o.status.success(), v))
            });
            let Some((success, v)) = parsed else {
                eprintln!("benchmark: {w} seed {seed}: no result");
                ok = false;
                continue;
            };
            if !success || field(&v, "correct") != Some(&Value::Bool(true)) {
                eprintln!("benchmark: {w} seed {seed}: incorrect run");
                ok = false;
            }
            let mut line = format!("benchmark: {w} seed {seed}:");
            for (k, (name, _)) in table.iter().enumerate() {
                if let Some(x) = field(&v, "metrics")
                    .and_then(|m| field(m, name))
                    .and_then(|m| field(m, "value"))
                    .and_then(number)
                {
                    runs[k].push(x);
                    let _ = write!(line, " {name}={x:.4}");
                }
            }
            // Run by run, so host drift across the repeats shows.
            eprintln!("{line}");
        }
        for (k, (name, unit)) in table.iter().enumerate() {
            let (q1, med, q3) = stats::quartiles(&runs[k]);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let flag = match bound_of(name) {
                Some(b) if name != &"setup_s" && spread > b => format!("  SPREAD > BOUND {b}"),
                Some(b) => format!("  (bound {b})"),
                None => String::new(),
            };
            println!(
                "{w} {name} median {med} q1 {q1} q3 {q3} {unit} rel_iqr {spread:.4} n {}{flag}",
                runs[k].len()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--write-golden FILE`: recompute the seed-2006 reference digests of
/// every workload at both scales and write them as the golden file.
fn write_golden(path: &str, seconds: f64) -> ExitCode {
    let mut tables = Vec::new();
    for scale in [Scale::full(seconds), Scale::tiny()] {
        let mut rows = Vec::new();
        for w in WORKLOADS {
            let mut tr = Tracer::new(Instant::now());
            match run_workload(w, GOLDEN_SEED, &scale, false, &mut tr) {
                Ok((out, _)) => rows.push((
                    w.to_string(),
                    Value::Seq(out.digests.into_iter().map(Value::Str).collect()),
                )),
                Err(e) => {
                    eprintln!("benchmark: {w}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        tables.push((scale.name.to_string(), Value::Map(rows)));
    }
    let written = serde_json::to_string_pretty(&Value::Map(tables))
        .map_err(|e| e.to_string())
        .and_then(|text| std::fs::write(path, text + "\n").map_err(|e| e.to_string()));
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = field(&doc, section)
            .and_then(Value::as_seq)
            .expect("metric list");
        list.iter()
            .map(|m| match field(m, "name") {
                Some(Value::Str(n)) => n.clone(),
                other => panic!("metric without a name: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn smoke_every_workload_emits_every_declared_metric() {
        let declared_e2e = declared("end_to_end");
        let declared_layers = declared("per_layer");
        assert_eq!(
            declared_e2e,
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            declared_layers,
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for seed in [GOLDEN_SEED, 7] {
            for w in WORKLOADS {
                for trace in [false, true] {
                    let mut tr = Tracer::new(Instant::now());
                    let (out, errors) = run_workload(w, seed, &Scale::tiny(), trace, &mut tr)
                        .unwrap_or_else(|e| panic!("{w} seed {seed}: {e}"));
                    assert!(
                        errors.is_empty(),
                        "{w} seed {seed} trace {trace}: {errors:?}"
                    );
                    assert!(out.attempted > 0 && out.failed == 0, "{w} seed {seed}");
                    let names = if trace {
                        &declared_layers
                    } else {
                        &declared_e2e
                    };
                    for name in names {
                        let v = out.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
                        assert!(
                            v.is_some_and(f64::is_finite),
                            "{w} seed {seed}: {name} = {v:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn smoke_a_corrupted_output_fails_the_run() {
        for w in WORKLOADS {
            let scale = Scale {
                corrupt: true,
                ..Scale::tiny()
            };
            let mut tr = Tracer::new(Instant::now());
            let (out, errors) = run_workload(w, 7, &scale, false, &mut tr).expect("workload runs");
            assert!(
                out.failed > 0 && !errors.is_empty(),
                "{w}: corruption went unnoticed"
            );
        }
    }
}
