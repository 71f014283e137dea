//! `tessera-fix` — the lint-driven testability repair autopilot.
//!
//! ```text
//! cargo run --release -p dft-bench --bin tessera-fix -- \
//!     redundant-fixture --out plan.json --netlist-out fixed.bench
//! ```
//!
//! Lints the design, expands every machine-applicable fix hint into
//! candidate edits, statically pre-ranks them (SCOAP + implications),
//! fault-simulates the survivors, and accepts only the repairs whose
//! escape-cost saving pays for their hardware. See `dft-repair` for the
//! pipeline and `DESIGN.md` §8 for the design rationale.

use std::process::ExitCode;

use dft_bench::cli::{envelope, Format, ToolExit};
use dft_bench::{circuit_menu, circuit_names, print_table, resolve_circuit};
use dft_lint::LintConfig;
use dft_netlist::{bench_format, Netlist};
use dft_obs::Recorder;
use dft_repair::{repair_observed, RepairOptions, RepairOutcome};

const USAGE: &str = "\
tessera-fix: lint-driven testability repair autopilot

USAGE:
    tessera-fix [OPTIONS] [CIRCUIT]...

Each CIRCUIT is a built-in or benchmark-roster name (see
--list-circuits) or a path to a .bench netlist file. Defaults to the
full built-in set.

OPTIONS:
    --format <text|json>    summary format (default text)
    --out <FILE>            write the repair-plan JSON (one circuit only)
    --netlist-out <FILE>    write the repaired netlist as .bench
                            (one circuit only)
    --report <FILE>         write the dft-obs run report JSON
                            (one circuit only)
    --patterns <N>          random patterns per measurement (default 256)
    --seed <N>              pattern RNG seed (default 0)
    --threads <N>           PPSFP threads, 0 = auto (default 0)
    --top-k <N>             candidates verified per round (default 2)
    --max-rounds <N>        maximum accepted repairs (default 4)
    --cc-limit <N>          hard-to-control lint threshold (default 250)
    --co-limit <N>          hard-to-observe lint threshold (default 250)
    --require-improvement   exit 1 unless every target circuit ends with
                            strictly better coverage than its baseline
    --list-circuits         print the loadable circuit names and exit
    -h, --help              print this help

EXIT CODES: 0 done, 1 --require-improvement unmet, 2 usage error.

JSON output is one tessera/1 envelope:
{\"schema\": \"tessera/1\", \"tool\": \"tessera-fix\", \"payload\": ...}
with the tessera-fix/1 plan (or an array of plans) embedded verbatim as
the payload; --out still writes the bare plan JSON.";

struct Cli {
    format: Format,
    out: Option<String>,
    netlist_out: Option<String>,
    report: Option<String>,
    options: RepairOptions,
    lint_config: LintConfig,
    require_improvement: bool,
    names: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        format: Format::Text,
        out: None,
        netlist_out: None,
        report: None,
        options: RepairOptions::new(),
        lint_config: LintConfig::default(),
        require_improvement: false,
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list-circuits" => {
                for name in circuit_names() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--format" => {
                cli.format = Format::parse(&value("--format")?)?;
            }
            "--out" => cli.out = Some(value("--out")?),
            "--netlist-out" => cli.netlist_out = Some(value("--netlist-out")?),
            "--report" => cli.report = Some(value("--report")?),
            "--patterns" => {
                cli.options = cli
                    .options
                    .with_patterns(parse_num(&value("--patterns")?, "--patterns")?);
            }
            "--seed" => {
                cli.options = cli
                    .options
                    .with_seed(parse_num(&value("--seed")?, "--seed")?);
            }
            "--threads" => {
                cli.options = cli
                    .options
                    .with_threads(parse_num(&value("--threads")?, "--threads")?);
            }
            "--top-k" => {
                cli.options = cli
                    .options
                    .with_top_k(parse_num(&value("--top-k")?, "--top-k")?);
            }
            "--max-rounds" => {
                cli.options = cli
                    .options
                    .with_max_rounds(parse_num(&value("--max-rounds")?, "--max-rounds")?);
            }
            "--cc-limit" => {
                cli.lint_config.controllability_limit =
                    parse_num(&value("--cc-limit")?, "--cc-limit")?;
            }
            "--co-limit" => {
                cli.lint_config.observability_limit =
                    parse_num(&value("--co-limit")?, "--co-limit")?;
            }
            "--require-improvement" => cli.require_improvement = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            name => cli.names.push(name.to_owned()),
        }
    }
    cli.options = cli.options.with_lint_config(cli.lint_config.clone());
    Ok(Some(cli))
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: '{s}' is not a valid number"))
}

fn run_one(netlist: &Netlist, cli: &Cli) -> Result<RepairOutcome, String> {
    let mut recorder = cli.report.as_ref().map(|_| Recorder::new());
    let outcome = repair_observed(
        netlist,
        &cli.options,
        recorder.as_mut().map(|r| r as &mut dyn dft_obs::Collector),
    )
    .map_err(|e| format!("{}: {e}", netlist.name()))?;
    if let (Some(path), Some(recorder)) = (&cli.report, recorder) {
        let report = recorder.finish("tessera-fix");
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
    }
    Ok(outcome)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cli) = parse_args(args)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let menu = circuit_menu();
    let names: Vec<String> = if cli.names.is_empty() {
        menu.iter().map(|(n, _)| (*n).to_owned()).collect()
    } else {
        cli.names.clone()
    };
    if names.len() != 1 {
        for (flag, opt) in [
            ("--out", &cli.out),
            ("--netlist-out", &cli.netlist_out),
            ("--report", &cli.report),
        ] {
            if opt.is_some() {
                return Err(format!("{flag} needs exactly one target circuit"));
            }
        }
    }

    let mut outcomes = Vec::with_capacity(names.len());
    for name in &names {
        let netlist = resolve_circuit(name)?;
        outcomes.push(run_one(&netlist, &cli)?);
    }

    if let Some(path) = &cli.out {
        std::fs::write(path, outcomes[0].plan.to_json())
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
    }
    if let Some(path) = &cli.netlist_out {
        std::fs::write(path, bench_format::write(&outcomes[0].netlist))
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
    }

    match cli.format {
        Format::Text => {
            let rows: Vec<Vec<String>> = outcomes
                .iter()
                .map(|o| {
                    let p = &o.plan;
                    vec![
                        p.design.clone(),
                        format!("{:.4}", p.baseline.coverage),
                        format!("{:.4}", p.final_coverage.coverage),
                        p.counters.accepted.to_string(),
                        p.counters.expanded.to_string(),
                        p.counters.pruned.to_string(),
                        p.counters.verified.to_string(),
                    ]
                })
                .collect();
            print_table(
                "tessera-fix",
                &[
                    "design", "baseline", "final", "accepted", "expanded", "pruned", "verified",
                ],
                &rows,
            );
            for o in &outcomes {
                for r in o.plan.accepted() {
                    println!(
                        "{}: round {} [{} {}] {} {} ({:.4} -> {:.4}, saving {:.2}, hw {:.2})",
                        o.plan.design,
                        r.round,
                        r.code,
                        r.rule,
                        r.edit.kind(),
                        r.edit
                            .target()
                            .map_or_else(|| "-".to_owned(), |t| t.to_string()),
                        r.before.coverage,
                        r.after.coverage,
                        r.saving,
                        r.hardware,
                    );
                }
            }
        }
        Format::Json => {
            let payload = if outcomes.len() == 1 {
                outcomes[0].plan.to_json()
            } else {
                let bodies: Vec<String> = outcomes
                    .iter()
                    .map(|o| o.plan.to_json().trim_end().to_owned())
                    .collect();
                format!("[\n{}\n]", bodies.join(",\n"))
            };
            print!("{}", envelope("tessera-fix", payload.trim_end()));
        }
    }

    if cli.require_improvement && !outcomes.iter().all(|o| o.plan.improved()) {
        eprintln!("tessera-fix: no coverage-improving repair was accepted");
        return Ok(ExitCode::from(ToolExit::Findings));
    }
    Ok(ExitCode::from(ToolExit::Success))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tessera-fix: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(ToolExit::Usage)
        }
    }
}
