//! The solve ledger: end-to-end solve-request workloads and a
//! per-layer budget for sympiler-rs, timed from outside.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1   one run, as the driver calls it
//! ledger [--quick] [--seed N] [--seconds S] [--out FILE]   every workload, untraced then traced
//! ledger --check-counts [--seed N]                         count metrics in two fresh processes
//! ledger compare BASE.jsonl NEW.jsonl                      verdict per workload x metric
//! ```
//!
//! See `README.md` beside this crate.

mod adapter;
mod compare;
mod contract;
mod json;
mod layers;
mod stats;
mod trace;
mod verify;
mod workloads;

use contract::{result_line, END_TO_END, PER_LAYER};
use json::Value;
use layers::{budget_gap, budget_rows, Effort, Ledger, COUNT_METRICS};
use stats::{highest_supported_percentile, median, peak_rss_mb, quantile_sorted, sorted};
use std::hint::black_box;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Runner, Spec, SPECS};

/// After the timed window the set-up is repeated this many times or
/// for `SETUP_SECONDS_AFTER`, whichever is more, so a sub-second value
/// repeats and a slow second of the host does not cover every sample.
/// (The one set-up before the window runs in a fresh heap and is a
/// sample like the others; repeating it there would only leave more
/// garbage under the peak RSS.)
const SETUP_RUNS_AFTER: usize = 4;
const SETUP_SECONDS_AFTER: f64 = 1.5;
/// The timed window is cut into about this many slices (whole input
/// cycles each) for the `quiet.*` layer metrics; see `Window::quiet`.
const SLICES: usize = 24;
/// Requests answered before the timed window opens.
const WARM_UP: usize = 8;
/// Every 17th request's answer is checked, outside the request's span.
/// The stride shares no factor with any input cycle (16 value sets, 64
/// cold patterns, blocks of 10), so the checks walk through every
/// stored input instead of returning to the same one.
const VERIFY_EVERY: usize = 17;
/// Seconds a run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
    check_counts: bool,
    counts: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        check_counts: false,
        counts: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => {
                let s: f64 = num(flag, value()?)?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--out" => args.out = Some(value()?.to_string()),
            "--quick" => args.quick = true,
            "--check-counts" => args.check_counts = true,
            "--counts" => args.counts = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::spec(name).is_none() {
            let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload `{name}`; known: {known:?}"));
        }
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.25 } else { DEFAULT_SECONDS })
    }

    fn effort(&self) -> Effort {
        if self.quick {
            Effort::QUICK
        } else {
            Effort::FULL
        }
    }

    /// `--quick` is a smoke run: windows are not aligned to input
    /// cycles (one cold cycle alone takes 1.4 s) …
    fn cycle(&self, spec: &Spec) -> usize {
        if self.quick {
            1
        } else {
            spec.cycle
        }
    }

    /// … and one pattern in twenty is cross-checked.
    fn cross_check_every(&self) -> usize {
        if self.quick {
            20
        } else {
            1
        }
    }
}

/// The latencies of one timed window and how many requests missed.
struct Window {
    lat_ms: Vec<f64>,
    failed: usize,
    /// Requests after which the inputs repeat.
    cycle: usize,
    /// Wall time from the first request to the last answer, less the
    /// benchmark's own answer checking between requests.
    wall_s: f64,
}

impl Window {
    /// Median request latency.
    fn p50_ms(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// Verified requests completed per second of the window's wall time.
    fn solves_per_s(&self) -> f64 {
        (self.lat_ms.len() - self.failed) as f64 / self.wall_s
    }

    /// Equal slices of the window, each a whole number of input cycles,
    /// so every slice times the same mix of inputs.
    fn slices(&self) -> impl Iterator<Item = &[f64]> {
        let per_slice = (self.lat_ms.len() / SLICES / self.cycle).max(1) * self.cycle;
        self.lat_ms.chunks_exact(per_slice.min(self.lat_ms.len()))
    }

    /// `stat` of every slice, then the quartile of those on the fast
    /// side (the lower one for a time, the upper one for a rate).
    ///
    /// The box is shared: other tenants slow it by 1.3–1.5x for seconds
    /// at a time. Such phases only ever add time, so the quiet slices
    /// say what the code costs when left alone. These are layer
    /// metrics for telling the host's noise from the code's time; they
    /// hide anything that slows under three quarters of a window, so
    /// the end-to-end metrics are the plain median and rate above.
    fn quiet(&self, fast_side: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let per_slice: Vec<f64> = self.slices().map(stat).collect();
        quantile_sorted(&sorted(&per_slice), fast_side)
    }

    fn quiet_p50_ms(&self) -> f64 {
        self.quiet(0.25, median)
    }

    /// Requests per second of request time in the quiet slices (one
    /// client with one request in flight: a slice's time is the sum of
    /// its latencies).
    fn quiet_solves_per_s(&self) -> f64 {
        self.quiet(0.75, |s| s.len() as f64 / (s.iter().sum::<f64>() / 1e3))
    }
}

/// Issue requests `first, first + 1, …` one at a time until `seconds`
/// have passed and a whole number of input cycles has been timed.
fn drive(
    runner: &mut dyn Runner,
    first: usize,
    seconds: f64,
    cycle: usize,
    tr: &mut Tracer,
) -> Window {
    let started = Instant::now();
    let mut checking = Duration::ZERO;
    let mut window = Window {
        lat_ms: Vec::new(),
        failed: 0,
        cycle,
        wall_s: 0.0,
    };
    for i in first.. {
        let done = i - first;
        if done > 0 && done.is_multiple_of(cycle) && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        tr.set_request(i as u64);
        let t = Instant::now();
        let answer = tr.span("request", |tr| runner.request(i, tr));
        window.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let ok = match answer {
            Ok(x) if done.is_multiple_of(VERIFY_EVERY) => {
                let t = Instant::now();
                let r = verify::residual(runner.case(i), &x);
                if r > verify::RESIDUAL_TOL {
                    eprintln!(
                        "request {i}: residual {r:e} exceeds {:e}",
                        verify::RESIDUAL_TOL
                    );
                }
                checking += t.elapsed();
                r <= verify::RESIDUAL_TOL
            }
            Ok(x) => {
                black_box(x);
                true
            }
            Err(e) => {
                eprintln!("request {i}: {e}");
                false
            }
        };
        window.failed += usize::from(!ok);
    }
    window.wall_s = (started.elapsed() - checking).as_secs_f64();
    window
}

fn print_metrics(title: &str, ledger: &Ledger) {
    println!("\n{title}");
    println!(
        "  {:<34} {:>16}  {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &ledger.0 {
        let samples = if m.samples == 0 {
            "-".to_string()
        } else {
            m.samples.to_string()
        };
        println!(
            "  {:<34} {:>16.6}  {:<8} {:>8}",
            m.name, m.value, m.unit, samples
        );
    }
}

/// Set the workload up `runs` times, and on until `seconds` have
/// passed (60 times at most), appending the times to `times`; the last
/// instance.
fn set_up(
    spec: &Spec,
    args: &Args,
    runs: usize,
    seconds: f64,
    times: &mut Vec<f64>,
) -> Result<Box<dyn Runner>, String> {
    let started = Instant::now();
    let mut runner = None;
    let mut done = 0;
    while done < runs.max(1) || (done < 60 && started.elapsed().as_secs_f64() < seconds) {
        // Drop the previous instance first: two at once would double
        // the peak RSS the workload reports.
        drop(runner.take());
        let t = Instant::now();
        runner = Some((spec.build)(args.seed)?);
        times.push(t.elapsed().as_secs_f64());
        done += 1;
    }
    Ok(runner.expect("at least one set-up run"))
}

/// One workload, one process: what the driver runs.
fn run_workload(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    println!(
        "workload {} | seed {} | {} s | trace {} | {} hardware threads",
        spec.name,
        args.seed,
        args.seconds(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!("  {}", spec.why);
    let mut setup_s = Vec::new();
    let mut runner = set_up(spec, args, 1, 0.0, &mut setup_s)?;
    for i in 0..WARM_UP {
        runner
            .request(i, &mut Tracer::new(false))
            .map_err(|e| format!("warm-up request {i}: {e}"))?;
    }

    let mut ledger = Ledger::default();
    let (wanted, window): (Vec<(&str, &str)>, Window) = if args.trace {
        let window = traced_pass(spec, args, runner.as_mut(), &mut ledger)?;
        (PER_LAYER.iter().map(|m| (m.0, m.1)).collect(), window)
    } else {
        let window = untraced_pass(spec, args, runner.as_mut(), &mut ledger)?;
        (
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            window,
        )
    };

    let (patterns, disagreed) = workloads::cross_check(runner.as_ref(), args.cross_check_every());
    let attempted = window.lat_ms.len() + patterns;
    let failed = window.failed + disagreed;
    println!(
        "checked: {} requests ({} failed), residual <= {:e} on every {VERIFY_EVERY}th; {patterns} patterns against the coupled baseline ({disagreed} disagreed)",
        window.lat_ms.len(),
        window.failed,
        verify::RESIDUAL_TOL,
    );
    drop(runner);
    if !args.trace {
        if !args.quick {
            drop(set_up(
                spec,
                args,
                SETUP_RUNS_AFTER,
                SETUP_SECONDS_AFTER,
                &mut setup_s,
            )?);
        }
        ledger.push("setup_s", median(&setup_s), "s", setup_s.len());
        print_metrics("end-to-end (untraced)", &ledger);
    }

    let line = result_line(&ledger, &wanted, attempted, failed)?;
    if let Some(path) = &args.out {
        let mut record = vec![
            ("workload".to_string(), json::str(spec.name)),
            ("seed".to_string(), Value::Number(args.seed as f64)),
            (
                "trace".to_string(),
                Value::Number(f64::from(u8::from(args.trace))),
            ),
        ];
        record.extend(line.fields().iter().cloned());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", json::encode(&Value::Object(record)))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", json::encode(&line));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The untraced pass: one window, the end-to-end metrics it yields and
/// the peak RSS. `setup_s` is added by the caller once the set-up runs
/// after the window are done.
fn untraced_pass(
    spec: &Spec,
    args: &Args,
    runner: &mut dyn Runner,
    ledger: &mut Ledger,
) -> Result<Window, String> {
    let window = drive(
        runner,
        WARM_UP,
        args.seconds(),
        args.cycle(spec),
        &mut Tracer::new(false),
    );
    let n = window.lat_ms.len();
    ledger.push("solves_per_s", window.solves_per_s(), "1/s", n);
    ledger.push("solve_ms_p50", window.p50_ms(), "ms", n);
    // Read before the caller's cross-check allocates for the baselines.
    ledger.push("peak_rss_mb", peak_rss_mb()?, "MB", 0);
    println!(
        "\nwindow: {n} requests in {:.3} s; in its quiet slices ({} of them, see quiet.* in the traced pass) p50 = {:.4} ms, {:.3} requests/s",
        window.wall_s,
        window.slices().count(),
        window.quiet_p50_ms(),
        window.quiet_solves_per_s(),
    );
    if let Some(q) = highest_supported_percentile(n) {
        println!(
            "  tail: p{:.0} = {:.4} ms is the highest percentile with >= 10 of the {n} samples beyond it",
            q * 100.0,
            quantile_sorted(&sorted(&window.lat_ms), q),
        );
    }
    Ok(window)
}

/// The traced pass: an untraced and a traced window of a quarter of
/// the run each (their difference is the tracing overhead), then the
/// layer probes, the budget table and the trace file.
fn traced_pass(
    spec: &Spec,
    args: &Args,
    runner: &mut dyn Runner,
    ledger: &mut Ledger,
) -> Result<Window, String> {
    let quarter = args.seconds() / 4.0;
    let untraced = drive(
        runner,
        WARM_UP,
        quarter,
        args.cycle(spec),
        &mut Tracer::new(false),
    );
    let mut tr = Tracer::new(true);
    let first = WARM_UP + untraced.lat_ms.len();
    let window = drive(runner, first, quarter, args.cycle(spec), &mut tr);

    layer_probes(args, runner, false, ledger)?;

    let lat = sorted(&window.lat_ms);
    let traced_p50 = quantile_sorted(&lat, 0.5);
    ledger.push(
        "obs.trace_overhead_frac",
        untraced.solves_per_s() / window.solves_per_s() - 1.0,
        "ratio",
        lat.len(),
    );
    let n_slices = untraced.slices().count();
    ledger.push(
        "quiet.solve_ms_p50",
        untraced.quiet_p50_ms(),
        "ms",
        n_slices,
    );
    ledger.push(
        "quiet.solves_per_s",
        untraced.quiet_solves_per_s(),
        "1/s",
        n_slices,
    );
    ledger.push("request.traced_ms_p50", traced_p50, "ms", lat.len());
    ledger.push(
        "tail.solve_ms_p90",
        quantile_sorted(&lat, 0.90),
        "ms",
        lat.len(),
    );
    ledger.push(
        "tail.solve_ms_p99",
        quantile_sorted(&lat, 0.99),
        "ms",
        lat.len(),
    );
    ledger.push(
        "tail.solve_ms_max",
        quantile_sorted(&lat, 1.0),
        "ms",
        lat.len(),
    );
    let rows = budget_rows(spec.budget, ledger);
    let sum: f64 = rows.iter().map(|(_, ms)| ms).sum();
    ledger.push("budget.sum_ms", sum, "ms", 0);
    ledger.push("budget.gap_frac", budget_gap(&rows, traced_p50), "ratio", 0);

    print_metrics("per-layer (traced pass)", ledger);
    match highest_supported_percentile(lat.len()) {
        Some(q) => println!(
            "  tail: of p90/p99/max only up to p{:.0} has >= 10 of the {} traced samples beyond it",
            q * 100.0,
            lat.len()
        ),
        None => println!(
            "  tail: {} traced samples support no percentile above the median",
            lat.len()
        ),
    }
    println!(
        "\nspans recorded by the benchmark ({} traced requests)",
        lat.len()
    );
    println!(
        "  {:<34} {:>8} {:>12} {:>8}",
        "span", "count", "p50 ms", "share"
    );
    for name in tr.names() {
        let d = tr.durations_ms(name);
        let p50 = median(&d);
        println!(
            "  {:<34} {:>8} {:>12.4} {:>7.1}%",
            name,
            d.len(),
            p50,
            100.0 * p50 / traced_p50
        );
    }
    println!("\nbudget: layers measured one by one against the traced request p50");
    for (name, ms) in &rows {
        println!(
            "  {:<38} {:>10.4} ms {:>7.1}%",
            name,
            ms,
            100.0 * ms / traced_p50
        );
    }
    println!(
        "  {:<38} {:>10.4} ms {:>7.1}%",
        "sum of rows",
        sum,
        100.0 * sum / traced_p50
    );
    println!("  {:<38} {:>10.4} ms", "traced request p50", traced_p50);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.json", spec.name, args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json::encode(&tr.chrome_trace(spec.name))))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("\n{} spans written to {path}", tr.spans().len());
    Ok(window)
}

/// The three probe sets (see `layers`): the LU pipeline on the
/// workload's own matrix, Cholesky on the SPD reference input, the
/// serving layer on the `serve_churn` inputs. With `counts_only`, only
/// what the count metrics need.
fn layer_probes(
    args: &Args,
    runner: &dyn Runner,
    counts_only: bool,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let effort = args.effort();
    let (a, opts) = workloads::lu_probe_input(runner);
    layers::lu_layers(&a, &opts, effort, counts_only, ledger)?;
    drop(a);
    if !counts_only {
        let spd = adapter::nd_laplacian(workloads::SPD_GRID, workloads::PATTERN_SEED);
        layers::chol_layers(&spd, effort, ledger)?;
    }
    let (hot, cold) = workloads::serve_cases(args.seed, 16);
    let opts = workloads::serve_options();
    layers::serve_layers(&hot, &cold, &opts, args.seed, effort, counts_only, ledger)
}

/// The count metrics of one workload, as one JSON line.
fn print_counts(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let runner = (spec.build)(args.seed)?;
    let mut ledger = Ledger::default();
    layer_probes(args, runner.as_ref(), true, &mut ledger)?;
    drop(runner);
    let counts = COUNT_METRICS.iter().map(|&name| {
        let value = ledger
            .get(name)
            .ok_or_else(|| format!("{name} was not counted"))?;
        Ok((name, Value::Number(value)))
    });
    println!(
        "{}",
        json::encode(&json::obj(counts.collect::<Result<Vec<_>, String>>()?))
    );
    Ok(ExitCode::SUCCESS)
}

fn child(args: &Args, workload: &str, extra: &[&str]) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(extra);
    if args.quick {
        cmd.arg("--quick");
    }
    Ok(cmd)
}

fn selected(args: &Args) -> impl Iterator<Item = &'static Spec> + '_ {
    SPECS
        .iter()
        .filter(|s| args.workload.as_deref().is_none_or(|w| w == s.name))
}

/// Every count metric, in two fresh processes per workload; any
/// difference fails.
fn check_counts(args: &Args) -> Result<ExitCode, String> {
    let mut differing = 0;
    for spec in selected(args) {
        let mut lines = Vec::new();
        for _ in 0..2 {
            let output = child(args, spec.name, &["--counts"])?
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            if !output.status.success() {
                return Err(format!("{}: the count run failed", spec.name));
            }
            let text = String::from_utf8_lossy(&output.stdout);
            let last = text.lines().last().unwrap_or_default();
            lines.push(json::parse(last)?);
        }
        println!("{}", spec.name);
        for name in COUNT_METRICS {
            let (a, b) = (lines[0].get(name), lines[1].get(name));
            let same = a.is_some() && a == b;
            differing += usize::from(!same);
            let show = |v: Option<&Value>| v.map_or("missing".to_string(), json::encode);
            println!(
                "  {:<30} {:>22} {:>22}  {}",
                name,
                show(a),
                show(b),
                if same { "same" } else { "DIFFERS" }
            );
        }
    }
    println!("{differing} count metrics differ between two fresh processes");
    Ok(if differing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in a process of its own (so each reports its own
/// peak RSS): untraced for the end-to-end metrics, then traced.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seconds = args.seconds().to_string();
    let mut failures = Vec::new();
    for spec in selected(args) {
        for trace in ["0", "1"] {
            let mut extra = vec!["--seconds", seconds.as_str(), "--trace", trace];
            if let Some(out) = &args.out {
                extra.extend(["--out", out.as_str()]);
            }
            let status = child(args, spec.name, &extra)?
                .status()
                .map_err(|e| format!("spawn: {e}"))?;
            if !status.success() {
                failures.push(format!("{} (trace {trace})", spec.name));
            }
            println!();
        }
    }
    if failures.is_empty() {
        println!("all workloads ran and every answer checked out");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAILED: {failures:?}");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare::run(&argv[1..]),
        _ => parse_args(&argv).and_then(|args| {
            let spec = args.workload.as_deref().and_then(workloads::spec);
            match spec {
                _ if args.check_counts => check_counts(&args),
                Some(spec) if args.counts => print_counts(spec, &args),
                Some(spec) => run_workload(spec, &args),
                None => run_all(&args),
            }
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_s_arguments_parse_and_bad_ones_are_refused() {
        let a = parse_args(&argv(
            "--workload cold_compile --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("cold_compile"));
        assert_eq!((a.seed, a.seconds(), a.trace), (9, 12.0, true));
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds(), d.trace, d.quick),
            (1, DEFAULT_SECONDS, false, false)
        );
        assert_eq!(parse_args(&argv("--quick")).unwrap().seconds(), 0.25);
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--seconds nan",
            "--frobnicate",
            "--pattern-seed 3",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Answers `[1, 1]` to `I x = [1, 1]`, refuses request 5, answers
    /// wrongly from `wrong_from` on, and notes which requests had
    /// their inputs fetched for checking.
    struct Fake {
        case: verify::Case,
        wrong_from: usize,
        checked: std::cell::RefCell<Vec<usize>>,
    }

    impl Fake {
        fn new(wrong_from: usize) -> Self {
            Self {
                case: verify::Case {
                    a: adapter::CscMatrix::identity(2),
                    b: vec![1.0, 1.0],
                    sym_lower: false,
                },
                wrong_from,
                checked: Default::default(),
            }
        }
    }

    impl Runner for Fake {
        fn request(&mut self, i: usize, _: &mut Tracer) -> Result<Vec<f64>, String> {
            match i {
                5 => Err("refused".into()),
                i if i >= self.wrong_from => Ok(vec![2.0, 2.0]),
                _ => Ok(vec![1.0, 1.0]),
            }
        }
        fn case(&self, i: usize) -> &verify::Case {
            self.checked.borrow_mut().push(i);
            &self.case
        }
        fn pattern_cases(&self) -> Vec<&verify::Case> {
            vec![&self.case]
        }
        fn solver(&self) -> workloads::Solver {
            workloads::Solver::Cholesky
        }
    }

    #[test]
    fn a_window_ends_on_a_whole_cycle_and_counts_wrong_answers() {
        let mut fake = Fake::new(30);
        // seconds = 0: stop at the first whole cycle.
        let w = drive(&mut fake, 3, 0.0, 7, &mut Tracer::new(false));
        assert_eq!((w.lat_ms.len(), w.failed), (7, 1), "request 5 errors");
        // The window starts at request 16: offsets 0 and 17 are
        // checked; the answer is wrong from request 30 on, so offset 17
        // (request 33) fails, and nothing else is looked at.
        let mut tr = Tracer::new(true);
        let w = drive(&mut fake, 16, 0.0, 20, &mut tr);
        assert_eq!((w.lat_ms.len(), w.failed), (20, 1));
        assert_eq!(fake.checked.borrow()[1..], [16, 33]);
        assert_eq!(tr.durations_ms("request").len(), 20);
        assert!(w.wall_s > 0.0 && w.wall_s * 1e3 >= w.lat_ms.iter().sum::<f64>());
        assert!(w.solves_per_s() > 0.0 && w.p50_ms() > 0.0);
        assert!(w.quiet_solves_per_s() >= w.solves_per_s() && w.quiet_p50_ms() <= w.p50_ms());
    }

    #[test]
    fn the_checks_reach_every_stored_input_of_every_cycle() {
        for spec in &SPECS {
            let pool = spec.cycle;
            let mut fake = Fake::new(usize::MAX);
            let w = drive(
                &mut fake,
                WARM_UP,
                0.0,
                pool * VERIFY_EVERY,
                &mut Tracer::new(false),
            );
            assert_eq!(w.lat_ms.len(), pool * VERIFY_EVERY);
            let mut seen: Vec<usize> = fake.checked.borrow().iter().map(|i| i % pool).collect();
            assert_eq!(seen.len(), pool, "one check per {VERIFY_EVERY} requests");
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen, (0..pool).collect::<Vec<_>>(), "{}", spec.name);
        }
    }
}
