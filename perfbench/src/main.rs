//! The emtrust benchmark: one command that runs a named workload through
//! the user-level entry points, checks its verdicts and prints every
//! metric by name and unit.
//!
//! ```text
//! perfbench --workload <campaign|array|fleet_steady|fleet_churn>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it alternates untraced passes with traced ones and
//! reports the per-layer metrics, taken from spans around the
//! benchmark's own calls into each crate. The last line of standard
//! output is one JSON object; the lines before it are for people. The
//! process exits non-zero when an output check fails. See `README.md`.

mod array;
mod campaign;
mod fleet;
mod replay;
mod spans;
mod stats;

use spans::{PassProfile, Trace, Tracer};
use stats::{Failures, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The AES key of the chip under test (the FIPS-197 example key).
pub const KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// The fixed plaintext of the known operation the golden fingerprint is
/// taken under.
pub const PT: [u8; 16] = *b"known operation!";

/// Whether two trace lists are equal bit for bit.
pub fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Mixes the workload seed with a stream tag into an independent seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker threads of the batch workloads' pools and fingerprint fits,
/// and shards of the fleet service. One, whatever the host: on a host
/// with a few shared cores a second worker makes the figures follow the
/// scheduler and the neighbours (two workers on two vCPUs spread 0.23
/// in `array` throughput across runs, one worker 0.07), and a fixed
/// count keeps the work of a pass the same on every host. `run.py`
/// also pins the process to one CPU; the report's `cpus=` shows what
/// the process was allowed.
pub const WORKERS: usize = 1;

/// The pool every workload runs its parallel stages on.
pub fn pool() -> emtrust::ParallelConfig {
    emtrust::ParallelConfig::serial().with_workers(WORKERS)
}

/// What one measured pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Traces brought to a verdict.
    pub traces: u64,
    /// Host time the throughput is taken over.
    pub busy_s: f64,
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Per-operation latencies in ms (windows, attributions or
    /// admissions, per workload).
    pub latencies_ms: Vec<f64>,
    /// Attempted and failed operations of this pass.
    pub failures: Failures,
    /// Exact outcome of the pass (alarm counts, ranks, store counters):
    /// every pass of a run must reproduce the first one's.
    pub signature: Vec<u64>,
    /// Per-layer counts measured outside spans (traced passes only).
    pub counts: BTreeMap<&'static str, f64>,
    /// Messages of failed checks.
    pub errors: Vec<String>,
}

impl PassResult {
    /// Records `ops` operations of which `failed` failed.
    pub fn tally(&mut self, ops: u64, failed: u64, what: impl FnOnce() -> String) {
        self.failures.record(ops, failed);
        if failed > 0 {
            self.errors.push(what());
        }
    }

    /// Records a check: on failure counts one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.failures.record(1, u64::from(!ok));
        if !ok {
            self.errors.push(what());
        }
    }
}

/// A benchmark workload over a chip that lives for the whole run.
pub trait Workload: Sized {
    /// Workload-specific human-readable name of the latency samples.
    const LATENCY: &'static str;

    /// Builds everything the passes need (timed as `setup_s`).
    fn setup(chip: &'static emtrust_trojan::ProtectedChip, args: &Args) -> Result<Self, String>;

    /// Extra set-up of the traced run, outside `setup_s`.
    fn setup_traced(&mut self, _out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
        Ok(())
    }

    /// One measured pass. `traced` passes route their work through the
    /// layers' own public functions under spans.
    fn pass(&mut self, trace: Trace<'_>, traced: bool) -> Result<PassResult, String>;

    /// Traced run only: work replayed after each traced pass, outside
    /// its wall time, to split layers that the pass's entry points hide.
    fn replay(&mut self, _trace: Trace<'_>, _out: &mut PassResult) -> Result<(), String> {
        Ok(())
    }

    /// Checks made once after the measured passes (untimed).
    fn finish(&mut self, traced: bool, out: &mut PassResult) -> Result<(), String>;

    /// Human-readable lines for the end-to-end report.
    fn describe(&self, _latency: &Summary) -> Vec<String> {
        Vec::new()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "campaign" => run::<campaign::Campaign>(&args),
        "array" => run::<array::Array>(&args),
        "fleet_steady" => run::<fleet::Fleet>(&args),
        "fleet_churn" => run::<fleet::Fleet>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs one workload end to end; `Ok(correct)`.
fn run<W: Workload>(args: &Args) -> Result<bool, String> {
    // Set-up, several times. Every workload runs on the paper's test
    // chip (AES plus the four digital Trojans). The chip is built once
    // per set-up, and the last one lives for the rest of the process.
    let mut chip_s = Vec::with_capacity(SETUP_REPS);
    let mut chip = None;
    for _ in 0..SETUP_REPS {
        drop(chip.take());
        let t0 = Instant::now();
        chip = Some(emtrust_trojan::ProtectedChip::with_all_trojans());
        chip_s.push(t0.elapsed().as_secs_f64());
    }
    let chip: &'static _ = Box::leak(Box::new(chip.ok_or("no chip was built")?));
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for chip_time in &chip_s {
        drop(state.take());
        let t0 = Instant::now();
        let s = W::setup(chip, args)?;
        setup_s.push(chip_time + t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    let mut w = state.ok_or("no set-up ran")?;
    let mut layer_setup = BTreeMap::new();
    if args.trace {
        w.setup_traced(&mut layer_setup)?;
    }

    // One warm-up pass (checked, not timed), then passes until the
    // measured time is used up. The traced run alternates untraced and
    // traced passes so its overhead is measured on the same process.
    let mut total = PassResult::default();
    let warm = w.pass(Trace::OFF, false)?;
    // Peak memory of set-up and one pass; taken before the benchmark's
    // own latency samples pile up over the measured passes.
    let peak_rss = stats::peak_rss_mb().ok_or("peak RSS is unavailable")?;
    let signature = warm.signature.clone();
    absorb(&mut total, &warm, &signature);
    let tracer = Tracer::new();
    let mut untraced: Vec<PassResult> = Vec::new();
    let mut traced: Vec<(PassResult, PassProfile)> = Vec::new();
    let mut span_dump = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut k = 0u64;
    loop {
        let trace_this = args.trace && k % 2 == 1;
        let t0 = Instant::now();
        if trace_this {
            let mut r = tracer.root("pass", k, |t| w.pass(t, true))?;
            r.wall_s = t0.elapsed().as_secs_f64();
            tracer.root("replay", k, |t| w.replay(t, &mut r))?;
            let spans = tracer.take();
            let profile = spans::profile(&spans);
            if span_dump.is_none() {
                span_dump = Some((k, spans));
            }
            absorb(&mut total, &r, &signature);
            traced.push((r, profile));
        } else {
            let mut r = w.pass(Trace::OFF, false)?;
            r.wall_s = t0.elapsed().as_secs_f64();
            absorb(&mut total, &r, &signature);
            untraced.push(r);
        }
        k += 1;
        let enough = !args.trace || !traced.is_empty();
        if Instant::now() >= deadline && enough {
            break;
        }
    }
    w.finish(args.trace, &mut total)?;

    let correct = total.failures.failed == 0 && total.errors.is_empty();
    for e in &total.errors {
        eprintln!("check failed: {e}");
    }
    let mut lines = vec![format!(
        "# {} seed={} seconds={} trace={} passes={} workers={} cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        k,
        WORKERS,
        std::thread::available_parallelism().map_or(1, usize::from)
    )];
    let metrics = if args.trace {
        if let Some((pass, spans)) = &span_dump {
            write_spans(args, *pass, spans)?;
        }
        layer_metrics(&untraced, &traced, &layer_setup, &mut lines)
    } else {
        end_to_end_metrics::<W>(&w, &untraced, &setup_s, peak_rss, &total, &mut lines)?
    };
    for l in lines {
        println!("{l}");
    }
    println!(
        "{}",
        result_json(correct, total.failures, &metrics).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// Adds a pass into the run totals and checks it reproduced the first
/// pass exactly.
fn absorb(total: &mut PassResult, r: &PassResult, signature: &[u64]) {
    total
        .failures
        .record(r.failures.attempted, r.failures.failed);
    total.errors.extend(r.errors.iter().cloned());
    if r.signature != signature {
        total.failures.record(1, 1);
        total.errors.push(format!(
            "pass outcome {:?} differs from the first pass's {:?}",
            r.signature, signature
        ));
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end_metrics<W: Workload>(
    w: &W,
    passes: &[PassResult],
    setup_s: &[f64],
    rss: f64,
    total: &PassResult,
    lines: &mut Vec<String>,
) -> Result<Metrics, String> {
    let setup = stats::median(setup_s).ok_or("no set-up time")?;
    let rates: Vec<f64> = passes.iter().map(|p| p.traces as f64 / p.busy_s).collect();
    let rate = stats::median(&rates).ok_or("no measured pass")?;
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let lat = stats::summarize(&latencies).ok_or("no latency sample")?;
    let traces_per_pass = passes.first().map_or(0, |p| p.traces);
    lines.push(format!(
        "setup_s           {setup:.4} s   (median of {} set-ups)",
        setup_s.len()
    ));
    lines.push(format!(
        "traces_per_s      {rate:.1} 1/s (median of {} passes, {traces_per_pass} traces each)",
        passes.len()
    ));
    let tail = lat
        .tail_level
        .map_or("max".to_string(), |l| format!("p{l}"));
    lines.push(format!(
        "{:<17} p50 {:.4} ms, {tail} {:.4} ms ({} samples)",
        W::LATENCY,
        lat.p50,
        lat.tail,
        lat.count
    ));
    lines.extend(w.describe(&lat));
    lines.push(format!("peak_rss_mb       {rss:.1} MiB"));
    lines.push(format!(
        "failed_frac       {} / {} = {}",
        total.failures.failed,
        total.failures.attempted,
        total.failures.fraction()
    ));
    Ok(vec![
        ("setup_s", setup, "s"),
        ("traces_per_s", rate, "1/s"),
        ("latency_p50_ms", lat.p50, "ms"),
        ("peak_rss_mb", rss, "MiB"),
    ])
}

/// The per-layer metrics of the traced run: medians over traced passes
/// of self time per layer, exact counts, and the cost of tracing.
fn layer_metrics(
    untraced: &[PassResult],
    traced: &[(PassResult, PassProfile)],
    layer_setup: &BTreeMap<&'static str, f64>,
    lines: &mut Vec<String>,
) -> Metrics {
    let med = |f: &dyn Fn(&PassResult, &PassProfile) -> f64| -> f64 {
        let v: Vec<f64> = traced.iter().map(|(r, p)| f(r, p)).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let count = |name: &'static str| med(&|r, _| r.counts.get(name).copied().unwrap_or(0.0));
    let ratio = |num: f64, den: f64, scale: f64| if den > 0.0 { num / den * scale } else { 0.0 };

    let sim_busy = med(&|_, p| p.layer_s("sim"));
    let power_busy = med(&|_, p| p.layer_s("power"));
    // `em.measure` re-runs the synthesis inside; em's own time is the
    // measurement minus the separately timed synthesis of the same input.
    let em_busy = med(&|_, p| {
        let own = p.name_s("em.measure") - p.layer_s("power");
        if own > 0.0 {
            own
        } else {
            0.0
        }
    });
    let ingest_busy = med(&|_, p| p.name_s("core.ingest"));
    let admit_busy = med(&|_, p| p.name_s("fleet.admit"));
    let drain = med(&|_, p| p.name_s("fleet.drain"));
    let cycles = count("sim.cycles");
    let toggles = count("sim.toggles");
    let events = count("power.events");
    let ingested = count("core.traces");
    let scored = count("store.scored");
    let refits = count("store.refits");
    let untraced_wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|(r, _)| r.wall_s).collect();
    let overhead = match (stats::median(&untraced_wall), stats::median(&traced_wall)) {
        (Some(u), Some(t)) if u > 0.0 => 100.0 * (t - u) / u,
        _ => 0.0,
    };
    let metrics: Metrics = vec![
        ("sim.busy_s", sim_busy, "s"),
        ("sim.cycles", cycles, "count"),
        ("sim.toggles", toggles, "count"),
        ("sim.ns_per_cycle", ratio(sim_busy, cycles, 1e9), "ns"),
        ("power.busy_s", power_busy, "s"),
        ("power.events", events, "count"),
        ("power.ns_per_event", ratio(power_busy, events, 1e9), "ns"),
        ("power.weight_sets", count("power.weight_sets"), "count"),
        ("em.busy_s", em_busy, "s"),
        (
            "em.coupling_setup_s",
            layer_setup
                .get("em.coupling_setup_s")
                .copied()
                .unwrap_or(0.0),
            "s",
        ),
        (
            "core.sanitize_busy_s",
            med(&|_, p| p.name_s("core.sanitize")),
            "s",
        ),
        ("core.ingest_busy_s", ingest_busy, "s"),
        (
            "core.ingest_ns_per_trace",
            ratio(ingest_busy, ingested, 1e9),
            "ns",
        ),
        ("core.fit_busy_s", med(&|_, p| p.name_s("core.fit")), "s"),
        (
            "core.window_busy_s",
            med(&|_, p| p.name_s("core.window")),
            "s",
        ),
        (
            "core.attribute_busy_s",
            med(&|_, p| p.name_s("core.attribute")),
            "s",
        ),
        ("fleet.admit_busy_s", admit_busy, "s"),
        (
            "fleet.attempts_per_batch",
            count("fleet.attempts_per_batch"),
            "count",
        ),
        ("fleet.throttled", count("fleet.throttled"), "count"),
        ("fleet.shed", count("fleet.shed"), "count"),
        ("fleet.peak_depth", count("fleet.peak_depth"), "count"),
        ("fleet.drain_s", drain, "s"),
        ("store.fits", count("store.fits"), "count"),
        ("store.refits", refits, "count"),
        ("store.evictions", count("store.evictions"), "count"),
        (
            "store.refits_per_scored",
            ratio(refits, scored, 1.0),
            "ratio",
        ),
        ("trace.overhead_pct", overhead, "%"),
        (
            "trace.unspanned_frac",
            med(&|_, p| p.unspanned_frac),
            "ratio",
        ),
    ];
    lines.push(format!(
        "per pass, medians over {} traced passes ({} untraced passes for the overhead):",
        traced.len(),
        untraced.len()
    ));
    for (name, value, unit) in &metrics {
        lines.push(format!("{name:<26} {value:>16.6} {unit}"));
    }
    metrics
}

fn write_spans(args: &Args, pass: u64, spans: &[spans::Span]) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args
        .out
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    spans::write_jsonl(&mut out, pass, spans).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut out).map_err(|e| e.to_string())?;
    Ok(())
}

/// The result object: the last line of standard output.
fn result_json(correct: bool, f: Failures, metrics: &Metrics) -> Result<String, std::fmt::Error> {
    let mut s = String::new();
    write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        f.attempted.max(1),
        f.failed
    )?;
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )?;
    }
    s.push_str("}}");
    Ok(s)
}
