//! `hdsj-analyze` — the static invariant checker's standalone CLI.
//!
//! ```text
//! cargo run -p hdsj-analyze -- check [--root DIR] [--format human|jsonl|sarif] [--rules r6,r10]
//! cargo run -p hdsj-analyze -- list-rules
//! cargo run -p hdsj-analyze -- explain <rule>
//! ```
//!
//! Exit codes: 0 clean (warnings allowed), 1 deny-level findings,
//! 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(failed) => {
            if failed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("hdsj-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    if cmd == "list-rules" {
        print!("{}", hdsj_analyze::render_rule_list());
        return Ok(false);
    }
    if cmd == "explain" {
        let rule = args
            .get(1)
            .ok_or("explain needs a rule (e.g. r10 or lifecycle_poll)")?;
        print!("{}", hdsj_analyze::render_explain(rule)?);
        return Ok(false);
    }
    if cmd != "check" {
        return Err(format!("unknown command {cmd:?}\n{}", usage()));
    }
    let mut root = PathBuf::from(".");
    let mut format = Format::Human;
    let mut rules: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--format" => match it.next().map(String::as_str) {
                Some("human") => format = Format::Human,
                // `jsonl` names what the output actually is; `json` stays
                // as the original spelling.
                Some("json") | Some("jsonl") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => return Err(format!("--format {other:?}: expected human|jsonl|sarif")),
            },
            "--rules" => {
                rules = Some(
                    it.next()
                        .ok_or("--rules needs a value (e.g. r6,r10)")?
                        .clone(),
                );
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    let report = match &rules {
        Some(spec) => hdsj_analyze::check_workspace_filtered(&root, spec)?,
        None => hdsj_analyze::check_workspace(&root).map_err(|e| e.to_string())?,
    };
    match format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => print!("{}", report.render_json()),
        Format::Sarif => print!("{}", report.render_sarif()),
    }
    Ok(report.failed())
}

fn usage() -> String {
    "usage: hdsj-analyze check [--root DIR] [--format human|jsonl|sarif] [--rules r6,r10] | list-rules | explain <rule>"
        .to_string()
}
