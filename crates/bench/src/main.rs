//! `repro` — regenerates every table and figure of the pSigene paper.
//!
//! ```text
//! cargo run -p psigene-bench --release --bin repro -- all
//! cargo run -p psigene-bench --release --bin repro -- table5 --scale 0.2
//! ```
//!
//! Subcommands: `table1`..`table6`, `fig2`, `fig3`, `fig4`, `exp2`,
//! `exp3`, `exp4`, `ablation`, `all`. Options: `--scale <f>` (corpus
//! scale relative to the paper, default 0.1), `--seed <n>`,
//! `--out <dir>` (artifact directory, default `results/`),
//! `--telemetry <file>` (dump the global telemetry registry as JSON
//! after all subcommands finish).

mod harness;

use harness::Setup;
use psigene::Psigene;
use std::path::PathBuf;

/// Every target, in the order `all` runs them.
const TARGETS: [&str; 13] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "fig2", "fig3", "fig4", "exp2",
    "exp3", "exp4", "ablation",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut setup = Setup::default();
    let mut out_dir = PathBuf::from("results");
    let mut telemetry_out: Option<PathBuf> = None;
    let mut commands: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                setup.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                i += 2;
            }
            "--seed" => {
                setup.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
                i += 2;
            }
            "--out" => {
                out_dir =
                    PathBuf::from(args.get(i + 1).unwrap_or_else(|| die("--out needs a path")));
                i += 2;
            }
            "--telemetry" => {
                telemetry_out = Some(PathBuf::from(
                    args.get(i + 1)
                        .unwrap_or_else(|| die("--telemetry needs a path")),
                ));
                i += 2;
            }
            cmd if !cmd.starts_with('-') => {
                commands.push(cmd.to_string());
                i += 1;
            }
            other => die(&format!("unknown option {other}")),
        }
    }
    if commands.is_empty() {
        usage();
        return;
    }
    let expanded: Vec<&str> = if commands.iter().any(|c| c == "all") {
        TARGETS.to_vec()
    } else {
        commands.iter().map(String::as_str).collect()
    };
    if let Some(other) = expanded.iter().find(|c| !TARGETS.contains(c)) {
        eprintln!("unknown command {other}");
        usage();
        std::process::exit(2);
    }

    // The trained system is shared by most experiments.
    let needs_system = expanded.iter().any(|c| {
        matches!(
            *c,
            "table3" | "table5" | "table6" | "fig3" | "fig4" | "exp2" | "exp4"
        )
    });
    let system: Option<Psigene> = if needs_system {
        eprintln!(
            "training pSigene at scale {} ({} crawled samples)...",
            setup.scale,
            setup.pipeline_config().crawl_samples
        );
        let span = psigene_telemetry::span("bench.train");
        let s = Psigene::train(&setup.pipeline_config());
        eprintln!(
            "trained {} signatures in {:.1?}\n",
            s.signatures().len(),
            span.finish()
        );
        Some(s)
    } else {
        None
    };

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for cmd in expanded {
        let report = match cmd {
            "table1" => harness::table1(&setup),
            "table2" => harness::table2(),
            "table3" => harness::table3(system.as_ref().expect("system")),
            "table4" => harness::table4(),
            "table5" => harness::table5(system.as_ref().expect("system"), &setup).0,
            "table6" => harness::table6(system.as_ref().expect("system")),
            "fig2" => harness::fig2(&setup, &out_dir).expect("fig2 artifacts"),
            "fig3" => harness::fig3(system.as_ref().expect("system"), &setup, &out_dir)
                .expect("fig3 artifacts"),
            "fig4" => harness::fig4(system.as_ref().expect("system"), &setup),
            "exp2" => harness::exp2(system.as_ref().expect("system"), &setup),
            "exp3" => harness::exp3(&setup),
            "exp4" => harness::exp4(system.as_ref().expect("system"), &setup),
            "ablation" => harness::ablation(&setup),
            other => unreachable!("{other} is not in TARGETS"),
        };
        println!("{report}");
        println!("{}", "─".repeat(78));
        let file = out_dir.join(format!("{cmd}.txt"));
        std::fs::write(&file, &report).expect("write report file");
    }
    eprintln!("reports written to {}", out_dir.display());
    if let Some(path) = telemetry_out {
        let json = psigene_telemetry::global().export_json();
        std::fs::write(&path, json).expect("write telemetry file");
        eprintln!("telemetry written to {}", path.display());
    }
}

fn usage() {
    eprintln!(
        "usage: repro [--scale <f>] [--seed <n>] [--out <dir>] [--telemetry <file>] \
         <command>...\n\
         commands: {} all",
        TARGETS.join(" ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
