//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                    # every experiment, paper order
//! repro table2 fig6            # selected experiments
//! repro --list                 # available experiment ids
//! repro --device v100 …        # run on a different simulated device
//! repro --jobs 4 …             # worker threads (default: all cores)
//! repro --json …               # one {"experiment", "result"} line each
//! repro --metrics m.txt …      # Prometheus dump of telemetry counters
//! repro --trace-out t.json …   # Perfetto trace of one SD UNet step
//! repro --manifest run.json …  # run manifest (device, ids, counters)
//! repro serve --gpus 4 --mix sd:8,parti:2 --scheduler dynamic --slo-ms 2000
//!                              # serving-cluster DES (see `serve` below)
//! repro token --model llama --gpus 2 --scheduler continuous --util 0.8
//!                              # token-level serving DES (see `token` below)
//! repro optimize --fuse --width int8 --graph-capture --sampler-steps 4
//!                              # suite under one explicit pass config
//! ```
//!
//! The `serve` subcommand runs one scenario on the `mmg-serve`
//! discrete-event cluster simulator — profiler-grounded service curves,
//! a mixed request stream, and a chosen router/scheduler — and prints
//! the per-model latency/SLO report. Flags: `--gpus`, `--mix`
//! (`model:weight,…`), `--arrival` (poisson | bursty | diurnal),
//! `--rate` (requests/s; default targets 0.8 utilization),
//! `--scheduler` (fifo | static | dynamic | pods), `--batch`,
//! `--router` (rr | least-work | affinity), `--slo-ms` (default: 4x
//! each model's own service time), `--duration-s`, `--requests`
//! (arrival cap), `--seed`, `--metrics <path>` (Prometheus dump of the
//! `serve_*` series), `--trace-out <path>` (Perfetto flight-recorder
//! trace: per-GPU batch lanes, scheduler instants, counter tracks), and
//! `--full-records`. One seed fixes the whole sample path, so stdout —
//! and the flight trace — is byte-identical across runs, machines, and
//! job counts.
//!
//! By default `serve` runs in streaming mode: constant memory no matter
//! how many requests are simulated, with report quantiles from a
//! mergeable GK sketch (rank error ≤ 0.001·n + 1, i.e. well inside the
//! printed precision). `--full-records` retains every per-request
//! record and reports exact quantiles — same trajectory, more memory. A
//! perf line (wall seconds, simulated requests/s) goes to stderr so
//! stdout stays byte-deterministic.
//!
//! The `token` subcommand runs one scenario on the token-granularity
//! autoregressive serving engine: GPUs advance in decode *iterations*
//! with continuous (in-flight) batching or run-to-completion static
//! batching, chunked prefill interleaved with decode, and a per-GPU
//! KV-cache ledger balanced against the SKU's HBM budget. Flags:
//! `--model` (llama | parti | muse), `--gpus`, `--arrival`, `--rate`
//! (default: `--util` × cluster capacity from the profiled curve),
//! `--prompt-len` / `--output-len` (median tokens, 16–8192 and 1–4096:
//! the intervals samples are clamped to), `--kv-budget`
//! (GiB/GPU; default HBM − weights), `--scheduler`
//! (static | continuous), `--batch`, `--policy` (decode | prefill
//! priority), `--admission` (prompt | reserve), `--chunk`,
//! `--duration-s`, `--requests`, `--seed`, `--metrics-out`,
//! `--trace-out`, `--jobs`. Prints the TTFT/TPOT phase table, the
//! per-GPU KV table, and the goodput line; stdout and the metrics dump
//! are byte-identical for every `--jobs` value.
//!
//! Every subcommand reads its argv in one pass against its flag table
//! in this file (`SERVE_FLAGS`, `TOKEN_FLAGS`, …); the usage text
//! and each `unknown <cmd> flag` message are generated from the same
//! tables, so they list exactly what is accepted. A repeated flag's last
//! value wins. Numeric flags must be finite and positive (`--seed` and
//! `--sweep-seed` take any non-negative integer), so `inf` or `NaN` is
//! an error rather than a run that never ends.
//!
//! Experiments run on a worker pool (`--jobs`); outputs are printed and
//! telemetry merged in experiment order, so stdout and counter totals
//! are byte-identical for every job count. Randomness is seed-stable
//! too: the only stochastic experiment (Fig. 1's fleet sampler) uses a
//! fixed seed, so two invocations of the same command — serial or
//! parallel, warm or cold memo — produce identical stdout.
//! Every run ends with a
//! run-manifest JSON line: the simulated device, the experiments
//! executed, and final telemetry counter totals. The line is printed
//! to stdout and is deterministic — the wall-clock `elapsed_s` goes to
//! stderr on its own, so byte-comparing two runs' stdout (CI's `--jobs`
//! determinism gate) is a plain `cmp`. With `--manifest <path>` the
//! manifest is written to the file instead, with `elapsed_s` included.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use mmg_attn::AttnImpl;
use mmg_core::{
    global_memo, run_experiment_value_with, run_manifest, run_suite, run_suite_with, ExecContext,
    ExperimentId,
};
use mmg_gpu::DeviceSpec;
use mmg_models::{suite, ModelId};
use mmg_profiler::trace::to_chrome_trace_object;
use mmg_profiler::Profiler;
use serde_json::Value;

fn device_by_name(name: &str) -> Result<DeviceSpec, String> {
    match name.to_lowercase().as_str() {
        "a100" | "a100-80gb" => Ok(DeviceSpec::a100_80gb()),
        "a100-40gb" => Ok(DeviceSpec::a100_40gb()),
        "v100" => Ok(DeviceSpec::v100_32gb()),
        "h100" => Ok(DeviceSpec::h100_80gb()),
        "l4" | "l4-24gb" => Ok(DeviceSpec::l4_24gb()),
        "h200" | "h200-141gb" => Ok(DeviceSpec::h200_141gb()),
        _ => Err(format!("unknown device '{name}'")),
    }
}

/// Profiles one Stable Diffusion UNet denoising step with per-op cache
/// simulation on the global registry and returns the Perfetto trace
/// object (`{"traceEvents": [...], "displayTimeUnit": "us"}`).
fn unet_step_trace(spec: &DeviceSpec) -> Result<String, String> {
    let pipeline = suite::build(ModelId::StableDiffusion);
    let stage = pipeline
        .stages
        .iter()
        .find(|s| s.name == "unet_step")
        .ok_or_else(|| "StableDiffusion pipeline has no unet_step stage".to_string())?;
    let profiler = Profiler::new(spec.clone(), AttnImpl::Flash).with_cache_sim(20_000);
    Ok(to_chrome_trace_object(&profiler.profile(&stage.graph)))
}

fn write_file(path: &str, contents: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {what} to '{path}': {e}"))
}

/// One row of a flag table: the flag and the metavar its usage line
/// shows after it; [`SWITCH`] marks a bare switch, which takes no value.
/// A table also generates its subcommand's unknown-flag message and
/// usage line, so both always match what the reader accepts.
type Flag = (&'static str, &'static str);

/// The metavar of a bare switch.
const SWITCH: &str = "";

/// Flags of the experiment runner, `repro [flags] <target>…`. Its usage
/// line shows the first [`MAIN_USAGE_ROWS`] rows; the `--replications`
/// metavar nests `--sweep-seed`, which only applies with it.
const MAIN_FLAGS: &[Flag] = &[
    ("--device", "<name>"),
    ("--jobs", "<n>"),
    ("--json", SWITCH),
    ("--metrics", "<path>"),
    ("--trace-out", "<path>"),
    ("--manifest", "<path>"),
    ("--replications", "<n> [--sweep-seed <n>]"),
    ("--sweep-seed", "<n>"),
    ("--list", SWITCH),
];
const MAIN_USAGE_ROWS: usize = 7;

const OPTIMIZE_FLAGS: &[Flag] = &[
    ("--device", "<name>"),
    ("--fuse", SWITCH),
    ("--width", "<fp16|fp8|int8>"),
    ("--graph-capture", SWITCH),
    ("--sampler-steps", "<n>"),
    ("--jobs", "<n>"),
];

/// The `optimize` flags that pick one pass configuration. Without any
/// of them, `repro optimize` runs the full pass grid as an experiment.
const PASS_FLAGS: [&str; 4] = ["--fuse", "--width", "--graph-capture", "--sampler-steps"];

const SERVE_FLAGS: &[Flag] = &[
    ("--device", "<name>"),
    ("--gpus", "<n>"),
    ("--mix", "<model:weight,…>"),
    ("--arrival", "<poisson|bursty|diurnal>"),
    ("--rate", "<rps>"),
    ("--scheduler", "<fifo|static|dynamic|pods>"),
    ("--batch", "<n>"),
    ("--router", "<rr|least-work|affinity>"),
    ("--slo-ms", "<ms>"),
    ("--duration-s", "<s>"),
    ("--requests", "<n>"),
    ("--seed", "<n>"),
    ("--metrics", "<path>"),
    ("--metrics-out", "<path>"),
    ("--trace-out", "<path>"),
    ("--jobs", "<n>"),
    ("--full-records", SWITCH),
    ("--attrib", SWITCH),
];

const FLEET_FLAGS: &[Flag] = &[
    ("--clusters", "<n>"),
    ("--gpus", "<per-cluster>"),
    ("--arrival", "<poisson|diurnal>"),
    ("--util", "<frac>"),
    ("--rate", "<rps>"),
    ("--policy", "<fixed|reactive|reactive+spot>"),
    ("--requests", "<n>"),
    ("--duration-s", "<s>"),
    ("--windows", "<n>"),
    ("--scheduler", "<fifo|static|dynamic|pods>"),
    ("--batch", "<n>"),
    ("--seed", "<n>"),
    ("--jobs", "<n>"),
    ("--metrics-out", "<path>"),
];

const TOKEN_FLAGS: &[Flag] = &[
    ("--device", "<name>"),
    ("--model", "<llama|parti|muse>"),
    ("--gpus", "<n>"),
    ("--arrival", "<poisson|bursty|diurnal>"),
    ("--rate", "<rps>"),
    ("--util", "<frac>"),
    ("--prompt-len", "<tokens>"),
    ("--output-len", "<tokens>"),
    ("--kv-budget", "<gib>"),
    ("--scheduler", "<static|continuous>"),
    ("--batch", "<n>"),
    ("--policy", "<decode|prefill>"),
    ("--admission", "<prompt|reserve>"),
    ("--chunk", "<tokens>"),
    ("--duration-s", "<s>"),
    ("--requests", "<n>"),
    ("--seed", "<n>"),
    ("--metrics-out", "<path>"),
    ("--trace-out", "<path>"),
    ("--jobs", "<n>"),
];

/// A subcommand: its name, its flag table and its entry point.
type Subcommand = (&'static str, &'static [Flag], Entry);

/// A subcommand's entry point, given its read flags.
type Entry = fn(&Args<'_>) -> Result<ExitCode, String>;

/// The subcommands, in usage order. Any other first argument is read
/// against [`MAIN_FLAGS`] by the experiment runner.
const SUBCOMMANDS: [Subcommand; 4] = [
    ("optimize", OPTIMIZE_FLAGS, optimize_main),
    ("serve", SERVE_FLAGS, serve_main),
    ("fleet", FLEET_FLAGS, fleet_main),
    ("token", TOKEN_FLAGS, token_main),
];

/// `[--flag <metavar>] [--switch] …` for one flag table.
fn usage_flags(table: &[Flag]) -> String {
    let rows: Vec<String> = table
        .iter()
        .map(|&(flag, meta)| {
            if meta == SWITCH {
                format!("[{flag}]")
            } else {
                format!("[{flag} {meta}]")
            }
        })
        .collect();
    rows.join(" ")
}

/// The usage line of one of the [`SUBCOMMANDS`].
fn usage_line(name: &str) -> String {
    let (_, table, _) = SUBCOMMANDS.iter().find(|s| s.0 == name).expect("a listed subcommand");
    format!("repro {name} {}", usage_flags(table))
}

/// The usage text `repro` prints when it is given no target.
fn usage() -> String {
    let targets: Vec<String> = std::iter::once("all".to_string())
        .chain(ExperimentId::ALL.iter().map(ToString::to_string))
        .collect();
    let mut text = format!(
        "usage: repro {} <{}>…",
        usage_flags(&MAIN_FLAGS[..MAIN_USAGE_ROWS]),
        targets.join(" | ")
    );
    for (name, ..) in SUBCOMMANDS {
        text.push_str("\n       ");
        text.push_str(&usage_line(name));
    }
    text
}

/// Argv read against one flag table in a single pass: each flag's
/// values in order, plus the positional arguments. The typed reads take
/// a flag's last value, so a repeated flag's last occurrence wins.
struct Args<'a> {
    values: Vec<(&'static str, &'a str)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Checks `argv` against `table`: every argument must be a listed
    /// flag, followed by its value unless it is a switch. Arguments not
    /// starting with `--` are positional where `positional` allows them.
    fn read(
        cmd: &str,
        table: &'static [Flag],
        argv: &'a [String],
        positional: bool,
    ) -> Result<Self, String> {
        let mut args = Args { values: Vec::new(), positional: Vec::new() };
        let mut argv = argv.iter().map(String::as_str);
        while let Some(arg) = argv.next() {
            match table.iter().find(|(flag, _)| *flag == arg) {
                Some(&(flag, SWITCH)) => args.values.push((flag, SWITCH)),
                Some(&(flag, _)) => {
                    let value = argv.next().ok_or_else(|| format!("{flag} requires a value"))?;
                    args.values.push((flag, value));
                }
                None if positional && !arg.starts_with("--") => args.positional.push(arg),
                None => {
                    let expected: Vec<&str> = table.iter().map(|(flag, _)| *flag).collect();
                    return Err(format!(
                        "unknown {cmd} flag '{arg}'; expected {}",
                        expected.join(" | ")
                    ));
                }
            }
        }
        Ok(args)
    }

    /// The last value given for `flag`, if any.
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.values.iter().rev().find(|(f, _)| *f == flag).map(|&(_, value)| value)
    }

    fn switch(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// `flag`'s value as a `T` that passes `ok`; any other value is the
    /// error `<flag> requires <what>`.
    fn parsed<T: FromStr>(
        &self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|value| {
                value
                    .parse::<T>()
                    .ok()
                    .filter(|v| ok(v))
                    .ok_or_else(|| format!("{flag} requires {what}"))
            })
            .transpose()
    }

    /// A positive integer.
    fn count<T: FromStr + PartialOrd + Default>(&self, flag: &str) -> Result<Option<T>, String> {
        self.parsed(flag, "a positive integer", |n| *n > T::default())
    }

    /// A positive, finite number: the one check every float flag goes
    /// through, so none accepts `inf` or `NaN`. `what` names the unit in
    /// the error (`a positive number`, `a positive fraction`, …).
    fn positive(&self, flag: &str, what: &str) -> Result<Option<f64>, String> {
        self.parsed(flag, what, |x: &f64| x.is_finite() && *x > 0.0)
    }

    /// Any non-negative integer, zero included.
    fn seed(&self, flag: &str) -> Result<Option<u64>, String> {
        self.parsed(flag, "a non-negative integer", |_| true)
    }
}

/// The `--device` flag's SKU, A100-80GB when absent.
fn device(args: &Args<'_>) -> Result<DeviceSpec, String> {
    args.get("--device").map_or_else(|| Ok(DeviceSpec::a100_80gb()), device_by_name)
}

/// Writes `registry` to `path`: the pretty JSON snapshot (plus a
/// newline) for a `.json` path, the Prometheus text exposition for any
/// other.
fn write_metrics(path: &str, registry: &mmg_telemetry::Registry) -> Result<(), String> {
    let body = if path.ends_with(".json") {
        let mut s = serde_json::to_string_pretty(&registry.snapshot_json())
            .expect("registry snapshots always serialize");
        s.push('\n');
        s
    } else {
        registry.render_prometheus()
    };
    write_file(path, &body, "metrics")
}

/// `repro optimize` with a pass flag (`--fuse`, `--width`,
/// `--graph-capture` or `--sampler-steps`): runs the suite under exactly
/// that pass configuration and prints the eager-vs-optimized table.
/// `--jobs` is validated and ignored; the bare `repro optimize` grid is
/// the `optimize` experiment.
fn optimize_main(args: &Args<'_>) -> Result<ExitCode, String> {
    use mmg_core::experiments::optimize;
    use mmg_graph::{ElemWidth, OptConfig};

    let spec = device(args)?;
    let width = match args.get("--width").map(str::to_lowercase).as_deref() {
        None | Some("fp16") => ElemWidth::Fp16,
        Some("fp8") => ElemWidth::Fp8,
        Some("int8") => ElemWidth::Int8,
        Some(other) => return Err(format!("unknown width '{other}'; expected fp16 | fp8 | int8")),
    };
    let sampler_steps = args.count("--sampler-steps")?;
    args.count::<usize>("--jobs")?;
    let opt = OptConfig {
        fuse: args.switch("--fuse"),
        width,
        graph_capture: args.switch("--graph-capture"),
    };
    let ctx = ExecContext::shared(spec);
    println!("{}", optimize::render_single(&optimize::run_single_ctx(&ctx, opt, sampler_steps)));
    Ok(ExitCode::SUCCESS)
}

/// Runs one serving scenario on the `mmg-serve` cluster DES and prints
/// the per-model SLO report. Deterministic: one seed fixes the sample
/// path, so stdout is byte-identical across invocations.
fn serve_main(args: &Args<'_>) -> Result<ExitCode, String> {
    use mmg_serve::{
        simulate, simulate_recorded, ArrivalProcess, FlightCfg, RequestMix, RouterKind,
        ScenarioCfg, SchedulerKind, ServiceProfile, SloReport, SloSpec,
    };

    let spec = device(args)?;
    let gpus = args.count("--gpus")?.unwrap_or(4);
    let rate = args.positive("--rate", "a positive number")?;
    let batch = args.count("--batch")?.unwrap_or(16);
    let slo_ms = args.positive("--slo-ms", "a positive number")?;
    let duration_s = args.positive("--duration-s", "a positive number")?.unwrap_or(120.0);
    let max_requests = args.count("--requests")?;
    let seed = args.seed("--seed")?.unwrap_or(42);
    // The scenario DES is inherently serial; the flag exists so
    // determinism harnesses can assert the trace bytes do not depend on
    // the advertised worker count.
    args.count::<usize>("--jobs")?;
    let full_records = args.switch("--full-records");
    let trace_path = args.get("--trace-out");
    let mix_spec = args.get("--mix").unwrap_or("sd:8,parti:2");
    let arrival_name = args.get("--arrival").unwrap_or("poisson");

    let mix = RequestMix::parse(mix_spec)?;
    let scheduler = SchedulerKind::parse(args.get("--scheduler").unwrap_or("dynamic"), batch)?;

    // Service curves come from the real profiler (shared memo + global
    // registry), at power-of-two batch sizes up to the scheduler's cap.
    let ctx = ExecContext::shared(spec.clone());
    let profiler = ctx.profiler(AttnImpl::Flash);
    let models: Vec<ModelId> = mix.models().collect();
    let cap = scheduler.cap();
    let batches: Vec<usize> = (0..).map(|i| 1usize << i).take_while(|&b| b <= cap).collect();
    let mut profile = ServiceProfile::from_profiler(&profiler, &models, &batches);
    if matches!(scheduler, SchedulerKind::Pods { .. }) {
        let factors: Vec<(ModelId, f64)> = models
            .iter()
            .map(|&m| (m, mmg_core::experiments::serve_sweep::pod_factor(&profiler, m)))
            .collect();
        profile = profile.with_pod_factors(&factors);
    }

    let mean_service_s = profile.mean_base_s(&mix);
    let rate = rate.unwrap_or(0.8 * gpus as f64 / mean_service_s);
    let arrival = ArrivalProcess::parse(arrival_name, rate)?;
    let slo = match slo_ms {
        Some(ms) => SloSpec::FixedS(ms / 1e3),
        None => SloSpec::ServiceMultiple(4.0),
    };
    let mut cfg = ScenarioCfg::new(gpus, mix, arrival, scheduler, slo, duration_s, seed);
    cfg.full_records = full_records;
    cfg.max_requests = max_requests;
    if args.switch("--attrib") {
        // Latency attribution plus the SRE-style burn-rate alert engine,
        // budgeted against a 95% on-time objective over the horizon.
        cfg = cfg.with_health(0.95);
    }
    if let Some(name) = args.get("--router") {
        cfg.router = RouterKind::parse(name)?;
    }
    cfg.validate()?;

    let sim_started = Instant::now();
    let (result, flight) = if trace_path.is_some() {
        let (result, flight) =
            simulate_recorded(&cfg, &profile, &ctx.registry, FlightCfg::for_horizon(duration_s));
        (result, Some(flight))
    } else {
        (simulate(&cfg, &profile, &ctx.registry), None)
    };
    let sim_wall_s = sim_started.elapsed().as_secs_f64();
    println!(
        "device: {} | gpus: {gpus} | mix: {mix_spec} | arrival: {arrival_name} @ {rate:.3}/s",
        spec.name
    );
    println!(
        "scheduler: {} (batch cap {cap}) | slo: {} | duration: {duration_s}s | seed: {seed}\n",
        scheduler.name(),
        match slo {
            SloSpec::FixedS(s) => format!("{:.0} ms", s * 1e3),
            _ => "4.0x service".to_string(),
        },
    );
    println!("{}", SloReport::from_result(&result).render());
    // Perf to stderr: stdout must stay byte-identical across machines.
    eprintln!(
        "serve: {} arrivals simulated in {sim_wall_s:.3}s wall ({:.0} simulated req/s, {})",
        result.arrivals,
        result.arrivals as f64 / sim_wall_s.max(1e-9),
        if full_records { "full records" } else { "streaming" },
    );
    if let Some(path) = args.get("--metrics") {
        write_file(path, &ctx.registry.render_prometheus(), "metrics")?;
    }
    if let Some(path) = args.get("--metrics-out") {
        write_metrics(path, &ctx.registry)?;
    }
    if let (Some(path), Some(flight)) = (trace_path, &flight) {
        write_file(path, &flight.to_chrome_trace_object(), "serve flight trace")?;
        eprintln!(
            "flight trace: {} batch spans, {} scheduler events, {} windows",
            flight.batches.len(),
            flight.instants.len(),
            flight.series.iter().count(),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one token-level (iteration-granularity) serving scenario on the
/// `mmg-serve::token` engine and prints the TTFT/TPOT/KV report.
/// Deterministic: one seed fixes the sample path, so stdout — and the
/// `--metrics-out` dump — is byte-identical across invocations and
/// `--jobs` values.
fn token_main(args: &Args<'_>) -> Result<ExitCode, String> {
    use mmg_serve::{
        parse_model, simulate_token, simulate_token_recorded, ArrivalProcess, FlightCfg,
        KvAdmission, KvLedger, LengthDist, PhasePriority, TokenBatching, TokenReport,
        TokenScenarioCfg, TokenServiceCurve, TokenSlo, GIB,
    };

    /// Clamp intervals of the sampled prompt and output lengths, tokens.
    /// A median outside its interval would be clamped silently, so the
    /// flags reject it.
    const PROMPT_TOKENS: (usize, usize) = (16, 8192);
    const OUTPUT_TOKENS: (usize, usize) = (1, 4096);
    let length = |flag: &str, (min, max): (usize, usize)| {
        let what = format!("a token count from {min} to {max}");
        args.parsed(flag, &what, |n: &f64| (min as f64..=max as f64).contains(n))
    };

    let spec = device(args)?;
    let model_name = args.get("--model").unwrap_or("llama");
    let gpus = args.count("--gpus")?.unwrap_or(2);
    let rate = args.positive("--rate", "a positive number")?;
    let util = args.positive("--util", "a positive fraction")?.unwrap_or(0.8);
    let prompt_len = length("--prompt-len", PROMPT_TOKENS)?.unwrap_or(512.0);
    let output_len = length("--output-len", OUTPUT_TOKENS)?.unwrap_or(128.0);
    let kv_budget_gib = args.positive("--kv-budget", "a positive GiB count")?;
    // The ledger counts `u64` bytes: a count past them is refused, not saturated.
    if kv_budget_gib.is_some_and(|g| g * GIB >= u64::MAX as f64) {
        return Err("--kv-budget requires a positive GiB count".into());
    }
    let batch = args.count("--batch")?.unwrap_or(16);
    let chunk = args.count("--chunk")?.unwrap_or(256);
    let duration_s = args.positive("--duration-s", "a positive number")?;
    let max_requests = args.count("--requests")?;
    let seed = args.seed("--seed")?.unwrap_or(42);
    // The token DES is inherently serial; the flag exists so determinism
    // harnesses can assert the report bytes do not depend on the
    // advertised worker count.
    args.count::<usize>("--jobs")?;
    let trace_path = args.get("--trace-out");
    let arrival_name = args.get("--arrival").unwrap_or("poisson");

    let model = parse_model(model_name)?;
    // Checked before the curve is built: the builder panics on a
    // non-autoregressive model.
    if !TokenServiceCurve::supports(model) {
        return Err(format!(
            "model '{model_name}' is not autoregressive; token serving needs llama | parti | muse"
        ));
    }
    let batching = TokenBatching::parse(args.get("--scheduler").unwrap_or("continuous"), batch)?;
    let priority = PhasePriority::parse(args.get("--policy").unwrap_or("decode"))?;
    let admission = KvAdmission::parse(args.get("--admission").unwrap_or("prompt"))?;

    // The per-step decode and cumulative prefill costs come from the
    // real profiler (shared memo + global registry).
    let ctx = ExecContext::shared(spec.clone());
    let profiler = ctx.profiler(AttnImpl::Flash);
    let curve = TokenServiceCurve::from_profiler(&profiler, model);
    let kv_budget_bytes = match kv_budget_gib {
        Some(g) => (g * GIB) as u64,
        None => KvLedger::default_budget(&spec, curve.weight_bytes),
    };
    // A budget below the shortest possible sequence would drop every
    // arrival as oversized.
    let min_seq_tokens = (PROMPT_TOKENS.0 + OUTPUT_TOKENS.0) as u64;
    let min_seq_bytes = min_seq_tokens * curve.kv_bytes_per_token;
    if kv_budget_bytes < min_seq_bytes {
        return Err(format!(
            "KV budget of {kv_budget_bytes} bytes/GPU cannot hold one shortest sequence \
             ({min_seq_tokens} tokens, {:.1} MiB); raise --kv-budget",
            min_seq_bytes as f64 / (1024.0 * 1024.0)
        ));
    }
    let prompt = LengthDist::new(prompt_len, 0.3, PROMPT_TOKENS.0, PROMPT_TOKENS.1);
    let output = LengthDist::new(output_len, 0.3, OUTPUT_TOKENS.0, OUTPUT_TOKENS.1);
    let cap = batching.cap();
    let slo = TokenSlo::from_curve(&curve, prompt.mean(), output.mean(), cap);
    let rate = rate.unwrap_or_else(|| {
        util * gpus as f64 / curve.request_gpu_s(prompt.mean(), output.mean(), cap)
    });
    let arrival = ArrivalProcess::parse(arrival_name, rate)?;
    // `--requests` without an explicit horizon sizes the horizon so the
    // realized arrival count reaches the cap (with 0.5% headroom).
    let duration_s = duration_s.unwrap_or_else(|| match max_requests {
        Some(n) => n as f64 / rate * 1.005,
        None => 120.0,
    });
    let cfg = TokenScenarioCfg {
        gpus,
        model,
        arrival,
        batching,
        priority,
        admission,
        chunk_tokens: chunk,
        prompt,
        output,
        slo,
        duration_s,
        max_requests,
        seed,
    };
    cfg.validate()?;

    let sim_started = Instant::now();
    let (result, flight) = if trace_path.is_some() {
        let (result, flight) = simulate_token_recorded(
            &cfg,
            &curve,
            kv_budget_bytes,
            &ctx.registry,
            FlightCfg::for_horizon(duration_s),
        );
        (result, Some(flight))
    } else {
        (simulate_token(&cfg, &curve, kv_budget_bytes, &ctx.registry), None)
    };
    let sim_wall_s = sim_started.elapsed().as_secs_f64();
    println!(
        "device: {} | arrival: {arrival_name} @ {rate:.3}/s | prompt ~{prompt_len:.0} tok | output ~{output_len:.0} tok",
        spec.name
    );
    println!(
        "kv budget: {:.1} GiB/GPU ({}) | chunk: {chunk} tok | duration: {duration_s:.0}s | seed: {seed}\n",
        kv_budget_bytes as f64 / GIB,
        if kv_budget_gib.is_some() { "explicit" } else { "HBM - weights" },
    );
    println!("{}", TokenReport::from_result(&result).render());
    if result.stats.dropped_oversized > 0 {
        eprintln!(
            "warning: {} of {} arrivals dropped: one sequence exceeds the {:.3} GiB/GPU KV budget",
            result.stats.dropped_oversized,
            result.stats.arrivals,
            kv_budget_bytes as f64 / GIB,
        );
    }
    // Perf to stderr: stdout must stay byte-identical across machines.
    eprintln!(
        "token: {} decoded tokens over {} iterations in {sim_wall_s:.3}s wall ({:.0} simulated tok/s)",
        result.stats.decoded_tokens,
        result.stats.iterations,
        result.stats.decoded_tokens as f64 / sim_wall_s.max(1e-9),
    );
    if let Some(path) = args.get("--metrics-out") {
        write_metrics(path, &ctx.registry)?;
    }
    if let (Some(path), Some(flight)) = (trace_path, &flight) {
        write_file(path, &flight.to_chrome_trace_object(), "token flight trace")?;
        eprintln!(
            "flight trace: {} batch spans, {} scheduler events, {} windows",
            flight.batches.len(),
            flight.instants.len(),
            flight.series.iter().count(),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one multi-cluster fleet scenario and prints the fleet report.
/// Builds the heterogeneous fleet (SKUs cycling a100 → h100 → l4 → h200,
/// capacity-proportional region weights, quarter-period diurnal phase
/// stagger), profiles each SKU once, and shards the simulation by
/// cluster over the [`mmg_core::run_cells_with`] worker pool. Results
/// and telemetry merge in cluster order, so stdout and the metrics
/// snapshot are byte-identical for every `--jobs` value; the perf line
/// goes to stderr.
fn fleet_main(args: &Args<'_>) -> Result<ExitCode, String> {
    use mmg_core::experiments::fleet_sweep::{device_for_sku, sku_price_per_gpu_hr, SKUS};
    use mmg_core::experiments::serve_common::profile_mix;
    use mmg_serve::{
        run_cluster, ArrivalProcess, ClusterCfg, FleetCfg, FleetResult, RequestMix, RouterKind,
        SchedulerKind, SloSpec,
    };

    let n_clusters = args.count("--clusters")?.unwrap_or(4);
    let gpus_per_cluster = args.count("--gpus")?.unwrap_or(16);
    let arrival_name = args.get("--arrival").unwrap_or("poisson");
    // Offered fraction of the fleet's aggregate batch-1 capacity, unless
    // `--rate` sets the fleet-wide rate outright.
    let utilization = args.positive("--util", "a positive fraction")?.unwrap_or(0.8);
    let explicit_rate = args.positive("--rate", "a positive number")?;
    let policy_name = args.get("--policy").unwrap_or("fixed");
    // An expected-arrival target; sizes the horizon as `requests / rate`
    // (with 0.5% headroom so the realized Poisson count reaches it).
    let requests = args.count::<u64>("--requests")?;
    let duration_s = args.positive("--duration-s", "a positive number")?.unwrap_or(600.0);
    let windows = args.count("--windows")?.unwrap_or(12);
    let scheduler_name = args.get("--scheduler").unwrap_or("fifo");
    let batch = args.count("--batch")?.unwrap_or(16);
    let seed = args.seed("--seed")?.unwrap_or(42);
    let jobs = args.count("--jobs")?.unwrap_or(1);

    let registry = mmg_telemetry::Registry::new();
    let memo = global_memo();
    let sim_started = Instant::now();
    let scheduler = SchedulerKind::parse(scheduler_name, batch)?;
    let cap = scheduler.cap();
    let policy = mmg_core::experiments::fleet_sweep::policies()
        .into_iter()
        .find(|p| p.name() == policy_name)
        .ok_or_else(|| {
            format!("unknown policy '{policy_name}'; expected fixed | reactive | reactive+spot")
        })?;

    // Profile each deployed SKU once, in cycle order, before any cell
    // runs — merge order into `registry` is then independent of `jobs`.
    let mix_str = "sd:8,parti:2";
    let n_skus = n_clusters.min(SKUS.len());
    let profiled: Vec<_> = SKUS[..n_skus]
        .iter()
        .map(|sku| {
            profile_mix(
                &device_for_sku(sku),
                &memo,
                &registry,
                mix_str,
                cap,
                matches!(scheduler, SchedulerKind::Pods { .. }),
            )
        })
        .collect();

    // Capacity-proportional weights: every cluster is offered the same
    // relative load despite the SKU service-time spread.
    let mut clusters = Vec::with_capacity(n_clusters);
    let mut total_capacity = 0.0;
    for i in 0..n_clusters {
        let sku_idx = i % n_skus;
        let sku = SKUS[sku_idx];
        let capacity = gpus_per_cluster as f64 / profiled[sku_idx].mean_base_s;
        total_capacity += capacity;
        clusters.push(ClusterCfg {
            name: format!("{sku}-{i}"),
            sku: sku.to_string(),
            gpus: gpus_per_cluster,
            price_per_gpu_hr: sku_price_per_gpu_hr(sku),
            weight: capacity,
            phase_s: 0.0, // set below once the arrival period is known
        });
    }
    let rate = explicit_rate.unwrap_or(utilization * total_capacity);
    let arrival = ArrivalProcess::parse(arrival_name, rate)?;
    if let ArrivalProcess::Diurnal { period_s, .. } = arrival {
        // Stagger regional peaks evenly across one diurnal period.
        for (i, c) in clusters.iter_mut().enumerate() {
            c.phase_s = period_s * i as f64 / n_clusters as f64;
        }
    }
    let duration_s = match requests {
        Some(n) => n as f64 / rate * 1.005,
        None => duration_s,
    };

    let cfg = FleetCfg {
        clusters,
        mix: RequestMix::parse(mix_str)?,
        arrival,
        scheduler,
        router: RouterKind::RoundRobin,
        slo: SloSpec::ServiceMultiple(4.0),
        window_s: duration_s / windows as f64,
        windows,
        autoscaler: policy,
        seed,
    };
    cfg.validate()?;

    let spec = DeviceSpec::a100_80gb(); // cell contexts need a spec; clusters use their SKU
    let results = mmg_core::run_cells_with(
        cfg.clusters.len(),
        &spec,
        jobs,
        &memo,
        &registry,
        |i, cell_ctx| run_cluster(&cfg, i, &profiled[i % n_skus].profile, &cell_ctx.registry),
    );
    let result = FleetResult::from_clusters(results);
    let sim_wall_s = sim_started.elapsed().as_secs_f64();

    print!("{}", mmg_serve::FleetReport::new(&cfg, &result).render());
    // Perf to stderr: stdout must stay byte-identical across machines
    // and job counts.
    eprintln!(
        "fleet: {} arrivals across {} clusters simulated in {sim_wall_s:.3}s wall ({:.0} aggregate simulated req/s)",
        result.arrivals(),
        cfg.clusters.len(),
        result.arrivals() as f64 / sim_wall_s.max(1e-9),
    );
    if let Some(path) = args.get("--metrics-out") {
        write_metrics(path, &registry)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The experiment runner: `repro [flags] <target>…`, where a target is
/// an experiment id or `all`.
fn experiments_main(args: &Args<'_>) -> Result<ExitCode, String> {
    if args.switch("--list") {
        for e in ExperimentId::ALL {
            println!("{e}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let spec = device(args)?;
    let jobs = args.count("--jobs")?.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    });
    let replications = args.count::<u64>("--replications")?;
    let sweep_seed = args.seed("--sweep-seed")?.unwrap_or(42);
    let manifest_path = args.get("--manifest").map(str::to_string);
    let mut targets: Vec<ExperimentId> = Vec::new();
    for &target in &args.positional {
        match target {
            "all" => targets.extend(ExperimentId::ALL),
            id => targets.push(ExperimentId::from_str(id).map_err(|e| e.to_string())?),
        }
    }
    // Repeated targets (e.g. `repro fig6 all`) run once, first-mention order.
    let mut seen = std::collections::HashSet::new();
    targets.retain(|id| seen.insert(*id));
    let started = Instant::now();
    let memo = global_memo();
    let registry = mmg_telemetry::global();
    if let Some(reps) = replications {
        // Replicated serving sweep: seed × scheduler × utilization grid
        // on the worker pool, deterministic for every --jobs.
        if !targets.iter().all(|&t| t == ExperimentId::ServeSweep) {
            return Err("--replications applies only to the serve-sweep target".to_string());
        }
        let result = mmg_core::experiments::serve_sweep::run_replicated(
            &spec, reps, sweep_seed, jobs, &memo, &registry,
        );
        println!("device: {}\n", spec.name);
        println!("{}", mmg_core::experiments::serve_sweep::render_replicated(&result));
        let targets = [ExperimentId::ServeSweep];
        emit_manifest(&spec, &targets, started.elapsed().as_secs_f64(), &registry, &manifest_path)?;
        return Ok(ExitCode::SUCCESS);
    }
    if targets.is_empty() {
        return Err(usage());
    }
    // Experiments run on the worker pool; printing and telemetry merge
    // happen in target order after the join, so stdout and counter
    // totals do not depend on `--jobs`.
    if args.switch("--json") {
        let lines = run_suite_with(&targets, &spec, jobs, &memo, &registry, |id, ctx| {
            let envelope = Value::Object(vec![
                ("experiment".to_string(), Value::from(id.to_string())),
                ("result".to_string(), run_experiment_value_with(id, ctx)),
            ]);
            serde_json::to_string(&envelope).expect("experiment envelopes always serialize")
        });
        for line in lines {
            println!("{line}");
        }
    } else {
        println!("device: {}\n", spec.name);
        for report in run_suite(&targets, &spec, jobs, &memo, &registry) {
            println!("{report}");
        }
    }
    if let Some(path) = args.get("--trace-out") {
        write_file(path, &unet_step_trace(&spec)?, "Chrome trace")?;
    }
    if let Some(path) = args.get("--metrics") {
        write_file(path, &registry.render_prometheus(), "metrics")?;
    }
    emit_manifest(&spec, &targets, started.elapsed().as_secs_f64(), &registry, &manifest_path)?;
    Ok(ExitCode::SUCCESS)
}

/// Reads argv against the flag table of the subcommand it names, or the
/// experiment runner's, and runs it.
fn run(argv: &[String]) -> Result<ExitCode, String> {
    if let Some((cmd, rest)) = argv.split_first() {
        // A bare `repro optimize` is the grid experiment; a pass flag
        // makes it the single-configuration subcommand.
        let sub = SUBCOMMANDS.iter().find(|s| s.0 == cmd).filter(|s| {
            s.0 != "optimize" || rest.iter().any(|a| PASS_FLAGS.contains(&a.as_str()))
        });
        if let Some(&(name, table, entry)) = sub {
            return entry(&Args::read(name, table, rest, false)?);
        }
    }
    experiments_main(&Args::read("repro", MAIN_FLAGS, argv, true)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// Emits the end-of-run manifest. Default: the deterministic form (no
/// wall clock) on stdout — byte-identical for every `--jobs`, so CI's
/// determinism gates compare with plain `cmp` — and `elapsed_s` alone
/// on stderr. With `--manifest <path>`, the full manifest (wall clock
/// included) goes to the file and nothing extra is printed.
fn emit_manifest(
    spec: &DeviceSpec,
    targets: &[ExperimentId],
    elapsed_s: f64,
    registry: &mmg_telemetry::Registry,
    manifest_path: &Option<String>,
) -> Result<(), String> {
    match manifest_path {
        Some(path) => {
            let manifest = run_manifest(spec, targets, Some(elapsed_s), registry);
            let line =
                serde_json::to_string(&manifest).expect("run manifests always serialize");
            write_file(path, &line, "run manifest")
        }
        None => {
            let manifest = run_manifest(spec, targets, None, registry);
            let line =
                serde_json::to_string(&manifest).expect("run manifests always serialize");
            println!("{line}");
            eprintln!("{{\"elapsed_s\":{elapsed_s}}}");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[("--seed", "<n>"), ("--rate", "<rps>"), ("--json", SWITCH)];

    fn read<'a>(argv: &'a [String], positional: bool) -> Result<Args<'a>, String> {
        Args::read("demo", TABLE, argv, positional)
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn last_occurrence_wins() {
        let v = argv(&["--seed", "1", "--rate", "2", "--seed", "3"]);
        let args = read(&v, false).unwrap();
        assert_eq!(args.seed("--seed"), Ok(Some(3)));
        assert_eq!(args.positive("--rate", "a positive number"), Ok(Some(2.0)));
        assert_eq!(args.seed("--absent"), Ok(None));
    }

    #[test]
    fn missing_value_names_the_flag() {
        let err = read(&argv(&["--json", "--seed"]), false).err().unwrap();
        assert_eq!(err, "--seed requires a value");
    }

    #[test]
    fn unknown_flag_lists_the_table_in_order() {
        let err = read(&argv(&["--seed", "1", "--bogus", "x"]), false).err().unwrap();
        assert_eq!(err, "unknown demo flag '--bogus'; expected --seed | --rate | --json");
        let v = argv(&["--bogus", "x"]);
        let err = Args::read("serve", SERVE_FLAGS, &v, false).err().unwrap();
        assert_eq!(
            err,
            "unknown serve flag '--bogus'; expected --device | --gpus | --mix | --arrival | --rate | --scheduler | --batch | --router | --slo-ms | --duration-s | --requests | --seed | --metrics | --metrics-out | --trace-out | --jobs | --full-records | --attrib"
        );
    }

    #[test]
    fn switch_does_not_consume_the_next_argument() {
        let v = argv(&["--json", "--seed", "7"]);
        let args = read(&v, false).unwrap();
        assert!(args.switch("--json"));
        assert_eq!(args.seed("--seed"), Ok(Some(7)));
        assert!(!read(&argv(&["--seed", "7"]), false).unwrap().switch("--json"));
    }

    #[test]
    fn positional_arguments_only_where_the_table_takes_them() {
        let err = read(&argv(&["--json", "fig4"]), false).err().unwrap();
        assert!(err.starts_with("unknown demo flag 'fig4'"), "{err}");
        let v = argv(&["fig4", "--json", "fig6"]);
        assert_eq!(read(&v, true).unwrap().positional, ["fig4", "fig6"]);
        let err = read(&argv(&["fig4", "--bogus"]), true).err().unwrap();
        assert!(err.starts_with("unknown demo flag '--bogus'"), "{err}");
    }

    #[test]
    fn positive_read_rejects_non_finite_zero_and_negative() {
        for value in ["inf", "-inf", "infinity", "NaN", "0", "-1", "x"] {
            let v = argv(&["--rate", value]);
            assert_eq!(
                read(&v, false).unwrap().positive("--rate", "a positive number"),
                Err("--rate requires a positive number".to_string()),
                "{value}"
            );
        }
        let v = argv(&["--rate", "1e-3"]);
        let rate = read(&v, false).unwrap().positive("--rate", "a positive number");
        assert_eq!(rate, Ok(Some(1e-3)));
    }

    #[test]
    fn count_and_seed_reads() {
        let v = argv(&["--seed", "0", "--rate", "0"]);
        let args = read(&v, false).unwrap();
        assert_eq!(args.seed("--seed"), Ok(Some(0)));
        let err = args.count::<usize>("--rate").unwrap_err();
        assert_eq!(err, "--rate requires a positive integer");
        let v = argv(&["--seed", "-1"]);
        let err = read(&v, false).unwrap().seed("--seed").unwrap_err();
        assert_eq!(err, "--seed requires a non-negative integer");
    }
}
