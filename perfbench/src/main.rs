//! perfbench — host-time benchmark of the mmgen simulator.
//!
//! ```text
//! perfbench --workload <characterize|serve|token|fleet> --seed <n>
//!           --seconds <n> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then runs
//! passes in a closed loop on one worker thread for `--seconds`, checks
//! every pass's outputs, and prints the end-to-end metrics. With
//! `--trace 1` it records spans around every call into the simulator on
//! all four workloads plus direct layer probes, writes the trace to
//! `<out>/trace-<workload>-seed<n>.json`, and prints the per-layer
//! metrics. When the run completes, the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod clock;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::clock::{HostClock, Timed};
use crate::stats::median;
use crate::trace::{by_name, chrome_trace, self_times_ns, Span, Tracer};
use crate::workloads::{Kind, PassOut, Workload, CHARACTERIZE};

/// Set-ups per untraced run: at least `SETUP_REPS.0`, then more until
/// `SETUP_MIN_S` seconds are spent, at most `SETUP_REPS.1`; `setup_s` is
/// their median.
const SETUP_REPS: (usize, usize) = (3, 20);
const SETUP_MIN_S: f64 = 1.0;
/// Fewest timed passes per untraced run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Fewest traced/untraced pass pairs per workload in the traced run.
const MIN_PAIRS: usize = 2;
/// Longest a set-up step may take before the run fails as hung.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest a single pass may take before the run fails as hung.
const PASS_TIMEOUT: Duration = Duration::from_secs(60);
/// Time a run may take beyond `--seconds` of passes and one overrunning
/// pass: the set-ups, the calibrations and, in the traced run, the probes.
const RUN_SLACK: Duration = Duration::from_secs(60);

/// Layer spans whose time per unit of work is a per-layer metric.
const NS_PER_UNIT: [(&str, &str); 9] = [
    ("graph.lower", "graph.lower_ns_per_op"),
    ("graph.optimize", "graph.optimize_ns_per_op"),
    ("gpu.timing", "gpu.timing_ns_per_kernel"),
    ("gpu.cache", "gpu.cache_ns_per_access"),
    ("profiler.replay", "profiler.replay_ns_per_op"),
    ("profiler.miss", "profiler.miss_ns_per_op"),
    ("serve.cluster.simulate", "serve.cluster.ns_per_request"),
    ("serve.token.simulate", "serve.token.ns_per_iteration"),
    ("serve.fleet.run_cluster", "serve.fleet.ns_per_request"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let known = ["--workload", "--seed", "--seconds", "--trace", "--out"];
        let key = known
            .iter()
            .find(|k| **k == flag)
            .ok_or_else(|| format!("unknown flag {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let need = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        kind: Kind::parse(need("--workload")?)?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        out_dir: PathBuf::from(flags.get("--out").copied().unwrap_or(".perfbench")),
    })
}

/// A finished run, ready to print.
struct Report {
    /// Human-readable lines printed before the JSON line.
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`, in print order.
    metrics: Vec<(String, f64, &'static str)>,
}

/// Worker → watchdog messages.
enum Msg {
    /// A step started; it must finish within the given time.
    Step(String, Duration),
    Done(Result<Report, String>),
}

/// The worker's link to the watchdog.
struct Watch(Sender<Msg>);

impl Watch {
    fn step(&self, what: String, limit: Duration) {
        // A closed channel means the watchdog already gave up on us.
        let _ = self.0.send(Msg::Step(what, limit));
    }
}

/// Outcomes of one workload's passes.
#[derive(Default)]
struct Passes {
    attempted: u64,
    failed: u64,
    /// The first passing pass; every later pass must match its digest.
    first: Option<PassOut>,
    first_failure: Option<String>,
}

impl Passes {
    /// Runs one pass of `w` under `tr` (inside a `pass.<kind>` span when
    /// tracing) and checks it; returns its timing if it passed.
    fn run(
        &mut self,
        kind: Kind,
        w: &mut dyn Workload,
        tr: &Tracer,
        clock: &mut HostClock,
        watch: &Watch,
    ) -> Option<Timed> {
        self.attempted += 1;
        watch.step(
            format!("{} pass {}", kind.name(), self.attempted),
            PASS_TIMEOUT,
        );
        let (result, dt) = clock.time(|| {
            catch_unwind(AssertUnwindSafe(|| {
                tr.span(&format!("pass.{}", kind.name()), || w.pass(tr))
            }))
        });
        let verdict = match result {
            Ok(Ok(out)) => match &self.first {
                Some(first) if first.digest != out.digest => Err(format!(
                    "digest {:016x} differs from the first pass's {:016x}",
                    out.digest, first.digest
                )),
                Some(_) => Ok(()),
                None => {
                    self.first = Some(out);
                    Ok(())
                }
            },
            Ok(Err(e)) => Err(e),
            Err(panic) => Err(format!("panic: {}", panic_message(&*panic))),
        };
        match verdict {
            Ok(()) => Some(dt),
            Err(e) => {
                self.failed += 1;
                eprintln!(
                    "perfbench: {} pass {} failed: {e}",
                    kind.name(),
                    self.attempted
                );
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }

    fn first(&self, kind: Kind) -> Result<&PassOut, String> {
        self.first.as_ref().ok_or_else(|| {
            format!(
                "{}: no pass succeeded; first failure: {}",
                kind.name(),
                self.first_failure.as_deref().unwrap_or("none")
            )
        })
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Sets `kind` up under `tr` and times it, guarded by the watchdog.
fn set_up(
    kind: Kind,
    seed: u64,
    tr: &Tracer,
    clock: &mut HostClock,
    watch: &Watch,
    label: String,
) -> Result<(Box<dyn Workload>, Timed), String> {
    watch.step(label, SETUP_TIMEOUT);
    let (w, t) = clock.time(|| {
        catch_unwind(AssertUnwindSafe(|| {
            tr.span(&format!("setup.{}", kind.name()), || {
                workloads::setup(kind, seed, tr)
            })
        }))
    });
    let w = w.map_err(|p| format!("{} set-up panicked: {}", kind.name(), panic_message(&*p)))??;
    Ok((w, t))
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn measure(args: &Args, watch: &Watch) -> Result<Report, String> {
    let kind = args.kind;
    let tr = Tracer::new(false);
    let mut passes = Passes::default();
    // Warm-up, before the first calibration allocates anything: one
    // set-up and one checked pass, whose peak resident memory is the
    // simulator's own.
    let mut raw = HostClock::uncalibrated();
    let (mut w, _) = set_up(
        kind,
        args.seed,
        &tr,
        &mut raw,
        watch,
        format!("{} warm-up set-up", kind.name()),
    )?;
    passes.run(kind, w.as_mut(), &tr, &mut raw, watch);
    let peak_rss_mib = stats::status_mib("VmHWM")?;
    drop(w);

    let mut clock = HostClock::new();
    let mut setups: Vec<Timed> = Vec::new();
    let mut workload = None;
    while setups.len() < SETUP_REPS.0
        || (setups.iter().map(|t| t.raw_s).sum::<f64>() < SETUP_MIN_S
            && setups.len() < SETUP_REPS.1)
    {
        drop(workload.take()); // free the previous set-up before timing the next
        let label = format!("{} set-up {}", kind.name(), setups.len() + 1);
        let (w, t) = set_up(kind, args.seed, &tr, &mut clock, watch, label)?;
        workload = Some(w);
        setups.push(t);
    }
    let mut w = workload.expect("at least one set-up");
    let mut times = Vec::new();
    // Resident memory after the first timed pass: memory that grows from
    // pass to pass shows as growth from here, not in the peak above.
    let mut base_rss_mib = None;
    let start = Instant::now();
    // Run past `--seconds` for `MIN_PASSES` only while nothing fails.
    while start.elapsed().as_secs_f64() < args.seconds
        || (times.len() < MIN_PASSES && passes.failed == 0)
    {
        times.extend(passes.run(kind, w.as_mut(), &tr, &mut clock, watch));
        if base_rss_mib.is_none() {
            base_rss_mib = Some(stats::status_mib("VmRSS")?);
        }
        if times.is_empty() && passes.attempted > MIN_PASSES as u64 {
            break; // every pass so far failed
        }
    }
    let rss_growth_mib = stats::status_mib("VmRSS")? - base_rss_mib.unwrap_or(0.0);
    let first = passes.first(kind)?;
    if times.is_empty() {
        return Err(format!("{}: no timed pass succeeded", kind.name()));
    }
    let ref_s = |ts: &[Timed]| median(&ts.iter().map(|t| t.ref_s).collect::<Vec<_>>());
    let raw_s = |ts: &[Timed]| median(&ts.iter().map(|t| t.raw_s).collect::<Vec<_>>());
    let (pass_s, setup_s) = (ref_s(&times), ref_s(&setups));
    let units = first.units as f64;
    let n = times.len();
    // (name, value, unit, samples, raw wall-clock value)
    let rows = [
        ("pass_s", pass_s, "s", n, Some(raw_s(&times))),
        (
            "sim_units_per_s",
            units / pass_s,
            "1/s",
            n,
            Some(units / raw_s(&times)),
        ),
        ("setup_s", setup_s, "s", setups.len(), Some(raw_s(&setups))),
        ("peak_rss_mib", peak_rss_mib, "MiB", 1, None),
        ("rss_growth_mib", rss_growth_mib, "MiB", 1, None),
        (
            "fail_frac",
            passes.failed as f64 / passes.attempted as f64,
            "ratio",
            passes.attempted as usize,
            None,
        ),
    ];
    let alias = match kind {
        Kind::Characterize => "pass_s is suite_s",
        Kind::Serve | Kind::Fleet => "sim_units_per_s is sim_requests_per_s",
        Kind::Token => "sim_units_per_s is sim_tokens_per_s",
    };
    let mut lines = vec![
        format!(
            "perfbench {} seed={} trace=0: {} {} per pass; {alias}",
            kind.name(),
            args.seed,
            first.units,
            kind.unit()
        ),
        format!(
            "{:<16} {:>18} {:<6} {:>8} {:>18}",
            "metric", "value", "unit", "samples", "raw wall-clock"
        ),
    ];
    for (name, value, unit, samples, raw) in &rows {
        let raw = raw.map_or("-".to_string(), |r| format!("{r:.6}"));
        lines.push(format!(
            "{name:<16} {value:>18.6} {unit:<6} {samples:>8} {raw:>18}"
        ));
    }
    lines.push(format!("sim digest {:016x}", first.digest));
    let metrics = rows
        .iter()
        .filter(|row| ["pass_s", "sim_units_per_s", "setup_s", "peak_rss_mib"].contains(&row.0))
        .map(|&(name, value, unit, _, _)| (name.to_string(), value, unit))
        .collect();
    Ok(Report {
        lines,
        attempted: passes.attempted,
        failed: passes.failed,
        metrics,
    })
}

/// Per traced pass of `ids`, `f` over the seconds of each span `name`.
fn per_pass(spans: &[Span], name: &str, ids: &BTreeSet<u64>, f: fn(&[f64]) -> f64) -> Vec<f64> {
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == name && ids.contains(&s.pass))
    {
        groups
            .entry(s.pass)
            .or_default()
            .push(s.dur_ns() as f64 * 1e-9);
    }
    groups.values().map(|v| f(v)).collect()
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

fn span_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum()
}

/// One workload's share of the traced run.
struct Traced {
    kind: Kind,
    passes: Passes,
    untraced: Vec<Timed>,
    traced: Vec<Timed>,
    /// Ids of its traced passes.
    ids: BTreeSet<u64>,
    /// Figures from [`Workload::inspect`], one per traced pass.
    inspected: BTreeMap<&'static str, Vec<f64>>,
}

/// `--trace 1`: every workload traced, plus the layer probes.
fn trace_run(args: &Args, watch: &Watch) -> Result<Report, String> {
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let mut clock = HostClock::new();
    let budget = args.seconds / Kind::ALL.len() as f64;
    let mut next_id = 0u64;
    let mut next = || {
        next_id += 1;
        next_id
    };
    let mut runs = Vec::new();
    let mut setup_ids = BTreeSet::new();
    for kind in Kind::ALL {
        let id = next();
        on.set_pass(id);
        setup_ids.insert(id);
        let (mut w, _) = set_up(
            kind,
            args.seed,
            &on,
            &mut clock,
            watch,
            format!("{} set-up", kind.name()),
        )?;
        let mut t = Traced {
            kind,
            passes: Passes::default(),
            untraced: Vec::new(),
            traced: Vec::new(),
            ids: BTreeSet::new(),
            inspected: BTreeMap::new(),
        };
        let start = Instant::now();
        let mut i = 0;
        while i < 2 * MIN_PAIRS || start.elapsed().as_secs_f64() < budget {
            // Alternate so drift in host speed hits both sides alike.
            if i % 2 == 0 {
                t.untraced
                    .extend(t.passes.run(kind, w.as_mut(), &off, &mut clock, watch));
            } else {
                let id = next();
                on.set_pass(id);
                t.ids.insert(id);
                t.traced
                    .extend(t.passes.run(kind, w.as_mut(), &on, &mut clock, watch));
                for (name, v) in w.inspect() {
                    t.inspected.entry(name).or_default().push(v);
                }
            }
            i += 1;
        }
        t.passes.first(kind)?;
        if t.traced.is_empty() || t.untraced.is_empty() {
            return Err(format!(
                "{}: every traced or every untraced pass failed",
                kind.name()
            ));
        }
        runs.push(t);
    }
    watch.step("layer probes".to_string(), SETUP_TIMEOUT);
    on.set_pass(next());
    let probed = on.span("probes", || layers::probe(&on));

    let spans = on.spans();
    let units = on.unit_counts();
    let mut m: Vec<(String, f64)> = Vec::new();
    fn get(runs: &[Traced], k: Kind) -> &Traced {
        runs.iter().find(|t| t.kind == k).expect("every kind ran")
    }
    let ch = get(&runs, Kind::Characterize);
    for id in CHARACTERIZE {
        let name = format!("core.experiment.{id}");
        m.push((
            format!("core.experiment_s.{id}"),
            median(&per_pass(&spans, &name, &ch.ids, sum)),
        ));
    }
    m.extend(probed);
    let ns_per_unit = |span: &str| {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == span)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / units.get(span).copied().unwrap_or(0).max(1) as f64
    };
    for (span, metric) in NS_PER_UNIT {
        m.push((metric.to_string(), ns_per_unit(span)));
    }
    let ch_counts: BTreeMap<&str, f64> = ch
        .passes
        .first(Kind::Characterize)?
        .counts
        .iter()
        .copied()
        .collect();
    let (lookups, hits) = (
        ch_counts["profiler.memo_lookups"],
        ch_counts["profiler.memo_hits"],
    );
    m.push(("profiler.memo_lookups".to_string(), lookups));
    m.push(("profiler.memo_hits".to_string(), hits));
    m.push((
        "profiler.memo_hit_ratio".to_string(),
        hits / lookups.max(1.0),
    ));
    for (name, vs) in &ch.inspected {
        m.push((name.to_string(), median(vs)));
    }
    let sv = get(&runs, Kind::Serve);
    m.push((
        "serve.cluster.sim_s".to_string(),
        median(&per_pass(&spans, "serve.cluster.simulate", &sv.ids, sum)),
    ));
    let tk = get(&runs, Kind::Token);
    m.push((
        "serve.token.curve_s".to_string(),
        span_s(&spans, "serve.token.curve"),
    ));
    m.push((
        "serve.token.sim_s".to_string(),
        median(&per_pass(&spans, "serve.token.simulate", &tk.ids, sum)),
    ));
    let fl = get(&runs, Kind::Fleet);
    m.push((
        "serve.fleet.profile_s".to_string(),
        span_s(&spans, "serve.fleet.profile"),
    ));
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    m.push((
        "serve.fleet.cluster_s.max".to_string(),
        median(&per_pass(&spans, "serve.fleet.run_cluster", &fl.ids, max)),
    ));
    m.push((
        "serve.fleet.cluster_s.median".to_string(),
        median(&per_pass(
            &spans,
            "serve.fleet.run_cluster",
            &fl.ids,
            median,
        )),
    ));
    m.push((
        "serve.fleet.merge_s".to_string(),
        median(&per_pass(&spans, "serve.fleet.merge", &fl.ids, sum)),
    ));
    for t in [sv, tk] {
        m.extend(
            t.passes
                .first(t.kind)?
                .counts
                .iter()
                .map(|(k, v)| (k.to_string(), *v)),
        );
    }
    for (metric, span) in [
        ("render.report_s", "render.report"),
        ("render.prom_s", "render.prom"),
    ] {
        let total = [sv, tk, fl]
            .iter()
            .map(|t| median(&per_pass(&spans, span, &t.ids, sum)))
            .sum();
        m.push((metric.to_string(), total));
    }

    // Tracing overhead and unattributed share per workload.
    let selfs = self_times_ns(&spans);
    let mut lines = vec![format!(
        "perfbench traced run seed={} (all workloads + layer probes)",
        args.seed
    )];
    for t in &runs {
        let k = t.kind.name();
        let ref_s = |ts: &[Timed]| median(&ts.iter().map(|t| t.ref_s).collect::<Vec<_>>());
        let overhead = ref_s(&t.traced) / ref_s(&t.untraced) - 1.0;
        let root = format!("pass.{k}");
        let (mut self_ns, mut total_ns) = (0u64, 0u64);
        for (s, own) in spans.iter().zip(&selfs) {
            if s.name == root && t.ids.contains(&s.pass) {
                self_ns += own;
                total_ns += s.dur_ns();
            }
        }
        let unattributed = self_ns as f64 / total_ns.max(1) as f64;
        m.push((format!("trace.overhead_frac.{k}"), overhead));
        m.push((format!("trace.unattributed_frac.{k}"), unattributed));
        lines.extend(layer_table(
            &format!(
                "{k}: {} traced passes, unattributed {:.2}%, tracing overhead {:+.2}%",
                t.ids.len(),
                100.0 * unattributed,
                100.0 * overhead
            ),
            &spans,
            &units,
            |s| t.ids.contains(&s.pass),
            total_ns as f64 / t.ids.len().max(1) as f64,
            t.ids.len(),
        ));
    }
    let probe_ns = span_s(&spans, "probes") * 1e9;
    let probe_ids: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "probes")
        .map(|s| s.pass)
        .collect();
    lines.extend(layer_table(
        "layer probes",
        &spans,
        &units,
        |s| probe_ids.contains(&s.pass),
        probe_ns,
        1,
    ));
    let setup_ns: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("setup."))
        .map(|s| s.dur_ns() as f64)
        .sum();
    lines.extend(layer_table(
        "set-up",
        &spans,
        &units,
        |s| setup_ids.contains(&s.pass),
        setup_ns,
        1,
    ));

    let (attempted, failed) = runs.iter().fold((0, 0), |(a, f), t| {
        (a + t.passes.attempted, f + t.passes.failed)
    });
    let metrics: Vec<(String, f64, &'static str)> = m
        .into_iter()
        .map(|(n, v)| {
            let u = layer_unit(&n);
            (n, v, u)
        })
        .collect();
    let digests: Vec<(String, Value)> = runs
        .iter()
        .map(|t| {
            (
                t.kind.name().to_string(),
                Value::from(format!(
                    "{:016x}",
                    t.passes.first.as_ref().map_or(0, |f| f.digest)
                )),
            )
        })
        .collect();
    lines.push(format!(
        "sim digests: {}",
        digests
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("")))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.json", args.kind.name(), args.seed));
    let extra = vec![
        ("seed".to_string(), Value::from(args.seed)),
        ("digests".to_string(), Value::Object(digests)),
        (
            "metrics".to_string(),
            Value::Object(
                metrics
                    .iter()
                    .map(|(n, v, _)| (n.clone(), Value::from(*v)))
                    .collect(),
            ),
        ),
        (
            "report".to_string(),
            Value::Array(lines.iter().map(|l| Value::from(l.as_str())).collect()),
        ),
    ];
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let body = serde_json::to_string(&chrome_trace(&spans, extra)).map_err(|e| e.to_string())?;
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    lines.push(format!(
        "trace: {} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(Report {
        lines,
        attempted,
        failed,
        metrics,
    })
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.contains("ns_per_") {
        "ns"
    } else if name.ends_with("_s") || name.contains("_s.") {
        "s"
    } else if name.contains("_frac") || name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

/// The traced-run table for one group of spans: per span name, its
/// count per pass, self time per pass, ns per unit of work, and share of
/// the group's time.
fn layer_table(
    title: &str,
    spans: &[Span],
    units: &BTreeMap<String, u64>,
    keep: impl Fn(&Span) -> bool,
    group_ns: f64,
    passes: usize,
) -> Vec<String> {
    let per = passes.max(1) as f64;
    let mut out = vec![
        format!("-- {title}"),
        format!(
            "{:<28} {:>9} {:>12} {:>12} {:>8}",
            "span", "count", "self s", "ns/unit", "share"
        ),
    ];
    for (name, st) in by_name(spans, keep) {
        let ns_unit = units.get(&name).map_or(String::from("-"), |&u| {
            let ns: u64 = spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_ns)
                .sum();
            format!("{:.1}", ns as f64 / u.max(1) as f64)
        });
        out.push(format!(
            "{:<28} {:>9.1} {:>12.6} {:>12} {:>7.2}%",
            name,
            st.count as f64 / per,
            st.self_ns as f64 * 1e-9 / per,
            ns_unit,
            100.0 * st.self_ns as f64 / (group_ns * per).max(1.0)
        ));
    }
    out
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::from(*value)),
                    ("unit".to_string(), Value::from(*unit)),
                ]),
            )
        })
        .collect();
    let v = Value::Object(vec![
        ("correct".to_string(), Value::from(correct)),
        ("attempted".to_string(), Value::from(attempted)),
        ("failed".to_string(), Value::from(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&v).expect("result serializes")
}

/// How a run ended, as the watchdog saw it.
enum Outcome {
    /// The worker reported.
    Done(Result<Report, String>),
    /// A step, or the whole run, overran its limit; says which.
    Hang(String),
    /// The worker ended without a report, during the named step.
    Died(String),
}

/// Watches the worker's steps until it reports. A step that overruns its
/// own limit, or a run that overruns `run_limit`, is a hang, named so
/// instead of blocking whoever waits on the benchmark.
fn watch_worker(rx: &Receiver<Msg>, run_limit: Duration) -> Outcome {
    let started = Instant::now();
    let mut step = ("start-up".to_string(), Instant::now(), SETUP_TIMEOUT);
    loop {
        let step_left = step.2.saturating_sub(step.1.elapsed());
        let run_left = run_limit.saturating_sub(started.elapsed());
        match rx.recv_timeout(step_left.min(run_left)) {
            Ok(Msg::Step(what, limit)) => step = (what, Instant::now(), limit),
            Ok(Msg::Done(report)) => return Outcome::Done(report),
            Err(RecvTimeoutError::Timeout) if run_left < step_left => {
                return Outcome::Hang(format!(
                    "the run did not finish within its limit of {:.1} s (during {})",
                    run_limit.as_secs_f64(),
                    step.0
                ))
            }
            Err(RecvTimeoutError::Timeout) => {
                return Outcome::Hang(format!(
                    "{} did not finish within {:.3} s (run time {:.1} s)",
                    step.0,
                    step.2.as_secs_f64(),
                    started.elapsed().as_secs_f64()
                ))
            }
            Err(RecvTimeoutError::Disconnected) => return Outcome::Died(step.0),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <characterize|serve|token|fleet> --seed <n> --seconds <n> --trace <0|1> [--out <dir>]");
            return ExitCode::from(2);
        }
    };
    let run_limit = Duration::try_from_secs_f64(args.seconds)
        .unwrap_or(Duration::MAX)
        .saturating_add(PASS_TIMEOUT + RUN_SLACK);
    let (tx, rx) = mpsc::channel();
    let trace = args.trace;
    let worker = std::thread::Builder::new()
        .name("perfbench-worker".to_string())
        .stack_size(64 << 20)
        .spawn(move || {
            let watch = Watch(tx);
            let report = if trace {
                trace_run(&args, &watch)
            } else {
                measure(&args, &watch)
            };
            let _ = watch.0.send(Msg::Done(report));
        })
        .expect("spawn worker thread");

    match watch_worker(&rx, run_limit) {
        Outcome::Done(Ok(r)) => {
            let _ = worker.join();
            for line in &r.lines {
                println!("{line}");
            }
            println!(
                "{}",
                result_json(r.failed == 0, r.attempted, r.failed, &r.metrics)
            );
            if r.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Outcome::Done(Err(e)) => {
            let _ = worker.join();
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::from(1)
        }
        Outcome::Hang(what) => {
            // The hung worker cannot be joined; exiting ends it.
            eprintln!("perfbench: FAILED: hang: {what}");
            std::process::exit(3);
        }
        Outcome::Died(during) => {
            let why = match worker.join() {
                Err(panic) => panic_message(&*panic),
                Ok(()) => "no report".to_string(),
            };
            eprintln!("perfbench: FAILED: worker thread died during {during}: {why}");
            ExitCode::from(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that starts `step` with `limit` and then stalls for
    /// `stall`, holding its channel open.
    fn stalled(step: &str, limit: Duration, stall: Duration) -> Receiver<Msg> {
        let (tx, rx) = mpsc::channel();
        let step = step.to_string();
        std::thread::spawn(move || {
            let watch = Watch(tx);
            watch.step(step, limit);
            std::thread::sleep(stall);
        });
        rx
    }

    #[test]
    fn a_step_that_overruns_its_limit_is_a_named_hang() {
        let rx = stalled(
            "serve pass 7",
            Duration::from_millis(20),
            Duration::from_secs(2),
        );
        match watch_worker(&rx, Duration::from_secs(60)) {
            Outcome::Hang(what) => assert!(
                what.starts_with("serve pass 7 did not finish within 0.020 s"),
                "{what}"
            ),
            _ => panic!("expected a hang"),
        }
    }

    #[test]
    fn a_run_that_overruns_its_limit_names_the_run_limit() {
        let rx = stalled(
            "token pass 3",
            Duration::from_secs(60),
            Duration::from_secs(2),
        );
        match watch_worker(&rx, Duration::from_millis(100)) {
            Outcome::Hang(what) => assert_eq!(
                what,
                "the run did not finish within its limit of 0.1 s (during token pass 3)"
            ),
            _ => panic!("expected a hang"),
        }
    }

    #[test]
    fn a_report_or_a_dead_worker_is_not_a_hang() {
        let (tx, rx) = mpsc::channel();
        tx.send(Msg::Done(Err("boom".to_string()))).unwrap();
        assert!(matches!(
            watch_worker(&rx, Duration::from_secs(60)),
            Outcome::Done(Err(e)) if e == "boom"
        ));
        drop(tx);
        assert!(matches!(
            watch_worker(&rx, Duration::from_secs(60)),
            Outcome::Died(step) if step == "start-up"
        ));
    }
}
