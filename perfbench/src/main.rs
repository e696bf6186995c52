//! The repository benchmark: one named workload, one seed, one run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload online-cold|online-repeat|offline-flowheavy \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. The system under test starts in this
//! process; one or two closed-loop clients drive it. `--trace 0` measures the
//! end-to-end metrics untraced; `--trace 1` is a separate run that yields
//! the per-layer metrics, from the system's own counters and from spans the
//! benchmark records around its calls into each crate. The last line of
//! standard output is one JSON object with the metrics; the exit code is
//! non-zero when any request fails or any output check does.

mod fixture;
mod load;
mod measure;
mod offline;
mod online;
mod probe;
mod replay;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{Report, Tracer};

const USAGE: &str = "usage: perfbench --workload online-cold|online-repeat|offline-flowheavy \
--seed N --seconds S --trace 0|1";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Directory for stores and span files, inside the repository.
    pub out_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10).max(1),
            trace: trace.unwrap_or(false),
            out_dir: PathBuf::from("perfbench/out"),
        })
    }

    pub fn run_for(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Unmeasured lead-in: connections, worker-local model copies, the
    /// allocator's first growth.
    pub fn warmup(&self) -> Duration {
        (self.run_for() / 10).min(Duration::from_secs(1))
    }

    /// Set-ups per run: several untraced, so `setup_s` is a median.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            5
        }
    }
}

/// Writes the run's spans as a Chrome trace next to the other outputs.
pub fn write_trace(args: &Args, tracer: &Tracer) {
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    match std::fs::write(&path, tracer.chrome_json()) {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    match args.workload.as_str() {
        "online-cold" => online::run(online::Shape::Cold, &args, &mut report),
        "online-repeat" => online::run(online::Shape::Repeat, &args, &mut report),
        "offline-flowheavy" => offline::run(&args, &mut report),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "{} seed={} trace={}:\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.table()
    );
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
