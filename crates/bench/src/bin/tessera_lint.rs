//! `tessera-lint` — run the DFT design-rule checker over the built-in
//! circuit library.
//!
//! ```text
//! cargo run --release -p dft-bench --bin tessera-lint -- sn74181 --format json
//! ```
//!
//! Exit code 1 only when some design has an error-severity finding;
//! warnings and notes report but do not fail the run (exit 2 is a usage
//! error).

use std::fmt;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use dft_bench::cli::{envelope, Format, ToolExit};
use dft_bench::{circuit_menu, circuit_names, resolve_circuit};
use dft_lint::{LintConfig, LintReport, Registry, SeverityOverrides};
use dft_netlist::Netlist;
use dft_scan::{insert_scan, lint_scan_design, RuleConfig, ScanConfig, ScanStyle};

const USAGE: &str = "\
tessera-lint: netlist-wide DFT design-rule checker

USAGE:
    tessera-lint [OPTIONS] [CIRCUIT]...

Each CIRCUIT is a built-in or benchmark-roster name (see
--list-circuits) or a path to a .bench netlist file. Defaults to the
full built-in set.

OPTIONS:
    --format <text|json>   output format (default text)
    --list-rules           print the rule set and exit
    --list-circuits        print the loadable circuit names and exit
    --max-depth <N>        deep-logic bound (default 50)
    --max-fanout <N>       excessive-fanout bound (default 24)
    --cc-limit <N>         hard-to-control threshold (default 250)
    --co-limit <N>         hard-to-observe threshold (default 250)
    --rule-config <FILE>   per-rule severity overrides (TOML [rules]
                           table; keys are rule names or DFT-NNN codes,
                           values \"off\"|\"info\"|\"warning\"|\"error\")
    --scan <STYLE>         insert scan (lssd|scan-path|scan-set|ras) and
                           also check the scan groundrules
    --scan-width <N>       Scan/Set shadow-register width (default 64)
    -h, --help             print this help

EXIT CODES: 0 clean or warnings only, 1 error-severity findings,
2 usage error.

JSON output is one tessera/1 envelope:
{\"schema\": \"tessera/1\", \"tool\": \"tessera-lint\", \"payload\": ...}
with the lint report (or an array of reports) embedded verbatim as the
payload.";

struct Cli {
    format: Format,
    config: LintConfig,
    overrides: SeverityOverrides,
    scan: Option<ScanStyle>,
    scan_width: usize,
    names: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        format: Format::Text,
        config: LintConfig::default(),
        overrides: SeverityOverrides::default(),
        scan: None,
        scan_width: 64,
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
            "--list-rules" => {
                for rule in Registry::with_default_rules().rules() {
                    println!(
                        "{:<24} {:<8} {:<12} {}",
                        rule.id(),
                        rule.severity().to_string(),
                        rule.category().to_string(),
                        rule.description()
                    );
                }
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
            "--max-depth" => {
                cli.config.max_depth = parse_num(&value("--max-depth")?, "--max-depth")?;
            }
            "--max-fanout" => {
                cli.config.max_fanout =
                    parse_num::<usize>(&value("--max-fanout")?, "--max-fanout")?;
            }
            "--cc-limit" => {
                cli.config.controllability_limit = parse_num(&value("--cc-limit")?, "--cc-limit")?;
            }
            "--co-limit" => {
                cli.config.observability_limit = parse_num(&value("--co-limit")?, "--co-limit")?;
            }
            "--rule-config" => {
                let path = value("--rule-config")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("--rule-config: cannot read '{path}': {e}"))?;
                cli.overrides = SeverityOverrides::parse(&text)
                    .map_err(|e| format!("--rule-config: {path}: {e}"))?;
            }
            "--scan" => {
                cli.scan = Some(match value("--scan")?.as_str() {
                    "lssd" => ScanStyle::Lssd,
                    "scan-path" => ScanStyle::ScanPath,
                    "scan-set" => ScanStyle::ScanSet { width: 0 }, // width patched below
                    "ras" => ScanStyle::RandomAccessScan,
                    other => return Err(format!("unknown scan style '{other}'")),
                });
            }
            "--scan-width" => {
                cli.scan_width = parse_num::<usize>(&value("--scan-width")?, "--scan-width")?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            name => cli.names.push(name.to_owned()),
        }
    }
    if let Some(ScanStyle::ScanSet { width }) = &mut cli.scan {
        *width = cli.scan_width;
    }
    Ok(Some(cli))
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: '{s}' is not a valid number"))
}

/// Lints one circuit; with `--scan`, the scan groundrule findings are
/// merged into the same report.
///
/// Rules configured `off` are removed from the registry *before* the
/// run, not filtered out of the report afterwards: the shared analyses
/// are lazy, so a rule that never executes never forces the (possibly
/// quadratic) analyses it reads. Silencing the implication-backed rules
/// is what makes linting 10⁵-gate netlists tractable.
fn lint_one(netlist: &Netlist, cli: &Cli) -> Result<LintReport, String> {
    let mut registry = Registry::with_default_rules();
    for rule in cli.overrides.disabled() {
        registry.disable(rule);
    }
    let mut report = registry.run_with(netlist, cli.config.clone());
    if let Some(style) = cli.scan {
        let design = insert_scan(netlist, &ScanConfig::new(style))
            .map_err(|e| format!("{}: scan insertion failed: {e}", netlist.name()))?;
        let scan_report = lint_scan_design(
            &design,
            &RuleConfig {
                max_depth: cli.config.max_depth,
            },
        );
        for diag in scan_report.diagnostics() {
            report.push(diag.clone());
        }
        report.sort();
    }
    cli.overrides.apply(&mut report);
    Ok(report)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cli) = parse_args(args)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let targets: Vec<Netlist> = if cli.names.is_empty() {
        circuit_menu()
            .into_iter()
            .map(|(_, build)| build())
            .collect()
    } else {
        cli.names
            .iter()
            .map(|name| resolve_circuit(name))
            .collect::<Result<_, _>>()?
    };

    let reports = targets
        .iter()
        .map(|netlist| lint_one(netlist, &cli))
        .collect::<Result<Vec<_>, _>>()?;

    let mut out = BufWriter::new(io::stdout().lock());
    if let Err(e) = write_reports(&mut out, &reports, cli.format) {
        eprintln!("tessera-lint: cannot write the report: {e}");
        return Ok(ExitCode::from(ToolExit::Usage));
    }

    if reports.iter().any(LintReport::has_errors) {
        Ok(ExitCode::from(ToolExit::Findings))
    } else {
        Ok(ExitCode::from(ToolExit::Success))
    }
}

/// Streams the reports into `out`: text one after another, or JSON as one
/// `tessera/1` envelope around the report (or an array of reports).
fn write_reports(out: &mut impl Write, reports: &[LintReport], format: Format) -> io::Result<()> {
    match format {
        Format::Text => {
            for report in reports {
                write!(out, "{}", report.text())?;
            }
        }
        Format::Json if reports.len() == 1 => {
            write!(out, "{}", envelope("tessera-lint", reports[0].json()))?;
        }
        Format::Json => {
            let array = fmt::from_fn(|f| {
                f.write_str("[\n")?;
                for (i, report) in reports.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",\n")?;
                    }
                    write!(f, "{}", report.json())?;
                }
                f.write_str("\n]")
            });
            write!(out, "{}", envelope("tessera-lint", array))?;
        }
    }
    out.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tessera-lint: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(ToolExit::Usage)
        }
    }
}
