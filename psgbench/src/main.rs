//! psgbench — end-to-end benchmark of the PASTIS protein similarity graph
//! (PSG) pipeline: one rank, two alignment threads, timed over many warm
//! passes on a generated input, plus a separate traced run for per-layer
//! numbers.
//!
//! ```text
//! cargo run --release --manifest-path psgbench/Cargo.toml -- \
//!     --workload <sw-ooc|xd-sub> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: it keeps its scratch files (the
//! generated FASTA, checkpoint directories) under `.psgbench-work/` there
//! and removes them before it exits.
//!
//! The workload FASTA comes from `pastis_bench::metaclust_dataset` (the
//! generator behind `mkfasta`) with the given seed; generating it is never
//! timed. `--seconds` bounds the measurement that follows it. With
//! `--trace 0`, the run first checks the edges of an independent layout
//! (below), then splits the time left over [`PROCESSES`] fresh processes,
//! one after the other: each runs one cold pass, then warm passes on the
//! same in-memory input while a typical one still fits in its share.
//!
//! - `setup_s`, `peak_rss_bytes`: the median over the processes of the cold
//!   pass, from reading the FASTA off disk to the sorted edges — what a
//!   one-shot `pastis` call pays for lazy dispatch, allocator growth and
//!   page faults — and of `VmHWM` right after it.
//! - `psg_s`, `cpu_s`: the median over every warm pass of every process,
//!   each timed from the FASTA bytes to the sorted, digested global edge
//!   list, by wall clock and by process CPU (user + sys, all threads).
//!
//! The host's speed drifts by tens of percent over seconds to minutes, so
//! the warm passes are spread over as much of `--seconds` as possible:
//! only the cold passes and one oracle pass take time from them.
//!
//! With `--trace 1`, passes alternate untraced and traced (allocation
//! tracking on, the benchmark's own spans around each call into a layer)
//! for `--seconds`; `sw-ooc` adds a traced pass without the memory budget
//! for its overhead ratio. One more pass replays the workload on a 2×2
//! grid for the communication counts, which do not depend on scheduling.
//! Counts must repeat exactly across passes; times are medians.
//!
//! Every pass's edge digest must match an independent layout's: in a timed
//! run, the staged, unbudgeted pipeline (or, for substitute k-mers, a 2×2
//! grid), run before the timed processes; in the traced run, the 2×2
//! replay and the unbudgeted twin of `sw-ooc`. On the default seed the
//! input, the digest and the counts must equal those recorded in
//! `expected.json`. A budgeted pass must compute every planned batch in a
//! fresh checkpoint directory. Any mismatch or panic counts as a failed
//! pass and makes the command exit 1. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
mod pass;

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

use align::SimdLevel;
use layers::{median, ratio, Kind, Values, PER_LAYER};
use obs::Stopwatch;
use pass::Pass;
use pastis::{AlignMode, PastisParams};

/// Seed whose input, digests and counts `expected.json` records.
const DEFAULT_SEED: u64 = 7;
/// Alignment threads per rank in every pass (two-core host: never more
/// threads than cores on the single rank).
const THREADS: usize = 2;
/// Fresh processes a timed run is split over: enough cold passes for a
/// median `setup_s`, few enough to leave most of the run to warm passes.
const PROCESSES: usize = 3;
/// Minimum timed warm passes per process, however slow the passes are.
const MIN_WARM_PASSES: usize = 2;
/// Minimum traced passes (counts must repeat across at least two).
const MIN_TRACED_PASSES: usize = 2;
/// Ranks of the untimed count-only replay (a 2×2 grid).
const REPLAY_RANKS: usize = 4;
/// Scratch root, relative to the working directory.
const WORK_ROOT: &str = ".psgbench-work";
/// Recorded inputs, digests and counts of the default seed.
const EXPECTED: &str = include_str!("../expected.json");

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("psg_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_bytes", "bytes"),
];

/// One benchmark workload.
struct Workload {
    name: &'static str,
    /// Input size in thousands of sequences.
    kseqs: f64,
    params: PastisParams,
}

impl Workload {
    fn by_name(name: &str) -> Option<Workload> {
        let base = PastisParams {
            threads: THREADS,
            ..Default::default()
        };
        let (name, kseqs, params) = match name {
            // PASTIS-SW-s0 under a 4 MiB budget: the batched out-of-core
            // path with Smith-Waterman alignment.
            "sw-ooc" => (
                "sw-ooc",
                4.0,
                PastisParams {
                    mode: AlignMode::SmithWaterman,
                    mem_budget_bytes: Some(4 << 20),
                    ..base
                },
            ),
            // PASTIS-XD-s10, the staged substitute-k-mer layout.
            "xd-sub" => (
                "xd-sub",
                1.0,
                PastisParams {
                    substitutes: 10,
                    ..base
                },
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            kseqs,
            params,
        })
    }

    fn budgeted(&self) -> bool {
        self.params.mem_budget_bytes.is_some()
    }

    /// Parameters and rank count of an independent run that must give the
    /// same edges, so a timed run checks its output on any seed: the
    /// staged, unbudgeted layout (the pipeline's own equivalence oracle)
    /// for exact seeding, and a 2×2 grid for substitute k-mers, whose only
    /// layout is the staged one.
    fn oracle(&self) -> (PastisParams, usize) {
        let unbudgeted = PastisParams {
            mem_budget_bytes: None,
            ..self.params.clone()
        };
        if self.params.substitutes > 0 {
            let replay = PastisParams {
                threads: 1,
                ..unbudgeted
            };
            (replay, REPLAY_RANKS)
        } else {
            let staged = PastisParams {
                streaming: false,
                ..unbudgeted
            };
            (staged, 1)
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: run the cold and warm passes of one timed process on
    /// this FASTA file and report them.
    child: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("usage: psgbench --workload <sw-ooc|xd-sub> --seed <n> --seconds <s> --trace <0|1>");
    exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, DEFAULT_SEED, 10.0, false, None);
    while let Some(flag) = args.next() {
        let val = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(&val).unwrap_or_else(|| usage())),
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--child" => child = Some(PathBuf::from(val)),
            _ => usage(),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
        child,
    }
}

/// Why this process must not time anything, if it must not: a debug
/// build (runtime checks and allocation tracking default on), or an
/// environment switch that changes what the pipeline runs.
fn refusal() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("this is a debug build; build with --release".into());
    }
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| {
            k == "ALIGN_FORCE"
                || k == "ALLOC_TRACK"
                || k.starts_with("PCHECK")
                || k.starts_with("PASTIS_")
        })
        .map(|k| format!("{k} is set in the environment"))
}

/// Passes attempted, and the reason for each failed check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        eprintln!("psgbench: FAILED: {why}");
        self.errors.push(why);
    }

    /// Run one pass, counting it; a panic or I/O error is a failed pass.
    fn pass(
        &mut self,
        fasta: &[u8],
        params: &PastisParams,
        p: usize,
        traced: bool,
        ckpt: Option<&Path>,
    ) -> Option<Pass> {
        self.attempted += 1;
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pass::run(fasta, params, p, traced, ckpt)
        }));
        match r {
            Ok(Ok(pass)) => Some(pass),
            Ok(Err(e)) => {
                self.fail(format!("pass I/O error: {e}"));
                None
            }
            Err(_) => {
                self.fail("pass panicked".into());
                None
            }
        }
    }

    /// Record a failed pass unless `got == want`.
    fn expect_digest(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(format!("{what}: edge digest {got:016x} != {want:016x}"));
        }
    }
}

/// The default seed's record for one workload, from `expected.json`.
fn expected(workload: &str) -> Option<obs::JsonValue> {
    let doc = obs::JsonValue::parse(EXPECTED).expect("expected.json parses");
    doc.get("workloads")?.get(workload).cloned()
}

fn hex_field(v: &obs::JsonValue, key: &str) -> Option<u64> {
    u64::from_str_radix(v.get(key)?.as_str()?, 16).ok()
}

fn main() {
    let args = parse_args();
    if let Some(why) = refusal() {
        eprintln!("psgbench: refusing to time: {why}");
        exit(2);
    }
    if let Some(fasta) = &args.child {
        exit(child(&args.workload, fasta, args.seconds));
    }
    let work = Path::new(WORK_ROOT).join(format!(
        "{}-s{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    // Abort postmortems, like every other file, stay in the work dir.
    obs::blackbox::set_dump_dir(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("psgbench: cannot create {}: {e}", work.display());
        exit(1);
    }
    let code = bench(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Removes the scratch root only once no other run is using it.
    let _ = std::fs::remove_dir(WORK_ROOT);
    exit(code);
}

/// Child mode: one process of a timed run. Reads `fasta` off disk, runs
/// one cold pass, then warm passes while the median warm pass still fits
/// in the `seconds` since it started reading (at least
/// [`MIN_WARM_PASSES`]), and prints one line per pass: `cold <secs> <digest>
/// <VmHWM>` first, then `warm <secs> <cpu_s>`.
/// A panic, an I/O error, a digest that differs from the cold pass's or a
/// resumed batch ends the process with a nonzero status. Its files go next
/// to `fasta`, in the parent's work dir.
fn child(w: &Workload, fasta: &Path, seconds: f64) -> i32 {
    let work = fasta.parent().unwrap_or(Path::new("."));
    obs::blackbox::set_dump_dir(work);
    let ckpt = w
        .budgeted()
        .then(|| work.join(format!("ckpt-{}", std::process::id())));
    let ckpt = ckpt.as_deref();
    let check = |p: &Pass| match ckpt {
        Some(dir) => pass::check_batches_computed(dir, &p.runs[0]).map(|_| ()),
        None => Ok(()),
    };
    let result = (|| -> Result<(), String> {
        let t0 = Stopwatch::start();
        let bytes =
            std::fs::read(fasta).map_err(|e| format!("cannot read {}: {e}", fasta.display()))?;
        let read_s = t0.elapsed_secs();
        let io = |e: std::io::Error| format!("pass I/O error: {e}");
        let cold = pass::run(&bytes, &w.params, 1, false, ckpt).map_err(io)?;
        check(&cold)?;
        let digest = cold.digest;
        println!(
            "cold {} {digest:016x} {}",
            read_s + cold.secs,
            pass::peak_rss_bytes()
        );
        drop(cold);
        let mut warm = Vec::new();
        // Start another pass only if a typical one still fits in the share.
        while warm.len() < MIN_WARM_PASSES || t0.elapsed_secs() + median(&warm) <= seconds {
            let p = pass::run(&bytes, &w.params, 1, false, ckpt).map_err(io)?;
            if p.digest != digest {
                return Err(format!(
                    "warm pass: edge digest {:016x} != {digest:016x}",
                    p.digest
                ));
            }
            check(&p)?;
            println!("warm {} {}", p.secs, p.cpu_s);
            warm.push(p.secs);
        }
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("psgbench: {e}");
            1
        }
    }
}

/// Generate the input, run the timed or traced measurement, print the
/// result. Returns the exit code.
fn bench(args: &Args, work: &Path) -> i32 {
    let w = &args.workload;
    let fasta = pastis_bench::metaclust_dataset(w.kseqs, args.seed);
    let n_seqs = fasta.iter().filter(|&&b| b == b'>').count() as u64;
    let fasta_digest = pastis::ckpt::fnv1a(&fasta);
    let fasta_path = work.join("input.fasta");
    if let Err(e) = std::fs::write(&fasta_path, &fasta) {
        eprintln!("psgbench: cannot write {}: {e}", fasta_path.display());
        return 1;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd: SimdLevel = align::simd_level();
    println!(
        "psgbench: workload {} ({}) seed {} | {} seqs, {} bytes, fasta digest {fasta_digest:016x} | \
         nproc {nproc}, simd {}, 1 rank x {THREADS} threads, {} s",
        w.name,
        w.params.variant_name(),
        args.seed,
        n_seqs,
        fasta.len(),
        simd.name(),
        args.seconds,
    );

    let mut tally = Tally::default();
    let expect = (args.seed == DEFAULT_SEED).then(|| expected(w.name));
    if let Some(rec) = &expect {
        let input_ok = rec.as_ref().is_some_and(|r| {
            r.get("n_seqs").and_then(|v| v.as_u64()) == Some(n_seqs)
                && r.get("fasta_bytes").and_then(|v| v.as_u64()) == Some(fasta.len() as u64)
                && hex_field(r, "fasta_digest") == Some(fasta_digest)
        });
        if !input_ok {
            tally.fail(format!(
                "default-seed input differs from expected.json ({n_seqs} seqs, {} bytes, \
                 digest {fasta_digest:016x})",
                fasta.len()
            ));
        }
    }

    let (digest, metrics) = if args.trace {
        traced(args, &fasta, work, &mut tally)
    } else {
        timed(args, &fasta, &fasta_path, &mut tally)
    };
    if let (Some(rec), Some(d)) = (&expect, digest) {
        let want = rec.as_ref().and_then(|r| hex_field(r, "edge_digest"));
        if want != Some(d) {
            tally.fail(format!(
                "default-seed edge digest {d:016x} differs from expected.json"
            ));
        }
    }
    if let (Some(Some(rec)), true) = (&expect, args.trace) {
        check_counts(rec, &metrics, &mut tally);
    }

    // Every failed check (a panicked pass, a digest or count mismatch)
    // counts once, and the loops stop at the first one.
    let attempted = tally.attempted.max(1);
    let failed = (tally.errors.len() as u64).min(attempted);
    let correct = tally.errors.is_empty() && digest.is_some();
    let units: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    for &(name, unit) in &units {
        if let Some(v) = metrics.get(name) {
            println!("psgbench: {name:<28} {v:>16.6} {unit}");
        }
    }
    println!(
        "psgbench: failed_frac {} ({failed} of {attempted} passes)",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = units
        .iter()
        .filter_map(|&(name, unit)| {
            metrics
                .get(name)
                .map(|v| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct && body.len() == units.len() {
        0
    } else {
        1
    }
}

/// The untraced measurement. Returns the run's edge digest (if every timed
/// process reported and matched the oracle layout) and the end-to-end
/// metrics.
fn timed(args: &Args, fasta: &[u8], fasta_path: &Path, tally: &mut Tally) -> (Option<u64>, Values) {
    let w = &args.workload;
    let start = Stopwatch::start();
    let (oracle, ranks) = w.oracle();
    let Some(want) = tally
        .pass(fasta, &oracle, ranks, false, None)
        .map(|p| p.digest)
    else {
        return (None, Values::new());
    };
    let exe = std::env::current_exe().expect("path of the running executable");
    let (mut cold, mut rss, mut wall, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut digests = Vec::new();
    for k in 0..PROCESSES {
        // An equal share of the time left, so a slow process does not make
        // the whole run overrun `--seconds`.
        let share = (args.seconds - start.elapsed_secs()).max(0.0) / (PROCESSES - k) as f64;
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &share.to_string()])
            .arg("--child")
            .arg(fasta_path)
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                tally.attempted += 1;
                tally.fail(format!("cannot start a timed process: {e}"));
                continue;
            }
        };
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            tally.attempted += 1;
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
            match (f.first(), num(1), num(2)) {
                (Some(&"cold"), Some(secs), _) => {
                    cold.push(secs);
                    digests.extend(f.get(2).and_then(|d| u64::from_str_radix(d, 16).ok()));
                    rss.extend(num(3));
                }
                (Some(&"warm"), Some(secs), Some(c)) => {
                    wall.push(secs);
                    cpu.push(c);
                }
                _ => tally.fail(format!("unreadable timed-process report `{line}`")),
            }
        }
        if !out.status.success() {
            // The pass that failed printed no line of its own.
            tally.attempted += 1;
            let err = String::from_utf8_lossy(&out.stderr);
            let lines: Vec<&str> = err.lines().collect();
            let tail = lines[lines.len().saturating_sub(20)..].join("\n");
            tally.fail(format!("timed process exited with {}:\n{tail}", out.status));
        }
    }
    let mut m = Values::new();
    m.insert("psg_s", median(&wall));
    m.insert("cpu_s", median(&cpu));
    m.insert("setup_s", median(&cold));
    m.insert("peak_rss_bytes", median(&rss));
    eprintln!("psgbench: warm passes (s) {wall:.3?}; cold passes (s) {cold:.3?}");
    for &d in &digests {
        tally.expect_digest("timed process vs oracle layout", d, want);
    }
    if digests.len() < PROCESSES || wall.is_empty() {
        return (None, m);
    }
    (Some(want), m)
}

/// The traced measurement. Returns the run's edge digest (if every pass
/// agreed) and the per-layer metrics.
fn traced(args: &Args, fasta: &[u8], work: &Path, tally: &mut Tally) -> (Option<u64>, Values) {
    let w = &args.workload;
    let ckpt = w.budgeted().then(|| work.join("ckpt"));
    let ckpt = ckpt.as_deref();
    let twin = PastisParams {
        mem_budget_bytes: None,
        ..w.params.clone()
    };
    let mut digest = None;
    let mut check = |tally: &mut Tally, what: &str, d: u64| match digest {
        None => digest = Some(d),
        Some(want) => tally.expect_digest(what, d, want),
    };

    let (mut plain, mut traced, mut unbudgeted) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_pass: Vec<Values> = Vec::new();
    let mut dissection = None;
    // Warm-up, untimed.
    if let Some(p) = tally.pass(fasta, &w.params, 1, false, ckpt) {
        check(tally, "warm-up pass", p.digest);
    }
    let start = Stopwatch::start();
    let mut rounds = Vec::new();
    // Start another round only if a typical one still fits in `--seconds`.
    while tally.errors.is_empty()
        && (per_pass.len() < MIN_TRACED_PASSES
            || start.elapsed_secs() + median(&rounds) <= args.seconds)
    {
        let round = Stopwatch::start();
        if let Some(p) = tally.pass(fasta, &w.params, 1, false, ckpt) {
            check(tally, "untraced pass", p.digest);
            plain.push(p.secs);
        }
        let Some(p) = tally.pass(fasta, &w.params, 1, true, ckpt) else {
            continue;
        };
        check(tally, "traced pass", p.digest);
        let mut v = layers::single_rank(&p, THREADS);
        if let Some(dir) = ckpt {
            if let Err(e) = pass::check_batches_computed(dir, &p.runs[0]) {
                tally.fail(e);
            }
            match pass::dir_usage(dir) {
                Ok((bytes, files)) => {
                    v.insert("ckpt.bytes", bytes as f64);
                    v.insert("ckpt.files", files as f64);
                }
                Err(e) => tally.fail(format!("cannot measure {}: {e}", dir.display())),
            }
        }
        dissection = Some(render_dissection(&p));
        traced.push(p.secs);
        per_pass.push(v);
        if w.budgeted() {
            if let Some(p) = tally.pass(fasta, &twin, 1, true, None) {
                check(tally, "unbudgeted twin", p.digest);
                unbudgeted.push(p.secs);
            }
        }
        rounds.push(round.elapsed_secs());
    }
    if let Some(table) = &dissection {
        eprint!("{table}");
    }

    // Count-only replay on a 2×2 grid: one alignment thread per rank, never
    // timed (four rank threads on two cores time the scheduler).
    let replay = PastisParams {
        threads: 1,
        ..w.params.clone()
    };
    let replay_ckpt = w.budgeted().then(|| work.join("ckpt-replay"));
    let mut comm = Values::new();
    if let Some(p) = tally.pass(fasta, &replay, REPLAY_RANKS, true, replay_ckpt.as_deref()) {
        check(tally, "2x2 replay", p.digest);
        comm = layers::multi_rank_counts(&p);
    }

    let mut m = Values::new();
    for &(name, _, kind) in &PER_LAYER {
        let vals: Vec<f64> = per_pass
            .iter()
            .filter_map(|v| v.get(name).copied())
            .collect();
        let value = match (kind, comm.get(name)) {
            (_, Some(&c)) => c,
            (Kind::Count, None) => {
                if vals.windows(2).any(|p| p[0] != p[1]) {
                    tally.fail(format!(
                        "count {name} differs between traced passes: {vals:?}"
                    ));
                }
                vals.first().copied().unwrap_or(0.0)
            }
            (Kind::Measured, None) => median(&vals),
        };
        m.insert(name, value);
    }
    m.insert(
        "obs.trace_overhead_ratio",
        ratio(median(&traced), median(&plain)),
    );
    m.insert(
        "pastis.ooc_overhead_ratio",
        ratio(median(&traced), median(&unbudgeted)),
    );
    (digest.filter(|_| !per_pass.is_empty()), m)
}

/// A traced pass's stage dissection table.
fn render_dissection(p: &Pass) -> String {
    let rows = obs::dissect::dissect(
        &p.traces[..p.runs.len()],
        &pastis::Timings::STAGE_SPANS,
        0.0,
        0.0,
    );
    obs::dissect::render_dissection(&rows)
}

/// On the default seed, every count must equal the one `expected.json`
/// records for the workload.
fn check_counts(rec: &obs::JsonValue, m: &Values, tally: &mut Tally) {
    let Some(counts) = rec.get("counts") else {
        tally.fail("expected.json records no counts for this workload".into());
        return;
    };
    for &(name, _, kind) in &PER_LAYER {
        if kind != Kind::Count {
            continue;
        }
        let want = counts.get(name).and_then(|v| v.as_f64());
        let got = m.get(name).copied();
        if want != got {
            tally.fail(format!(
                "count {name} = {got:?}, expected.json records {want:?}"
            ));
        }
    }
}
