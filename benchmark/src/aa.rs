//! `--aa N`: the A/A experiment behind the bounds in `BENCHMARK.json`.
//!
//! Two sets of `N` runs of this very executable per workload, interleaved
//! (A1 B1 A2 B2 ...) so both sets see the same drift of the host, run `i` of
//! either set with the same seed. Prints a Markdown table of per-cell set
//! medians, quartiles and the relative difference of the medians; on
//! identical code that difference is what a bound must exceed.

use crate::names::{END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode};

/// One run as a child process; returns the metric values in table order.
fn one_run(workload: &str, seed: usize, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("could not start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result: serde_json::Value = serde_json::from_str(line).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}): {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if result["correct"].as_bool() != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: run was not correct: {line}"
        ));
    }
    END_TO_END
        .iter()
        .map(|d| {
            result["metrics"][d.name]["value"]
                .as_f64()
                .ok_or_else(|| format!("{workload}: no value for {}", d.name))
        })
        .collect()
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them, which the driver uses.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|k| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    })
}

/// The metric's bound in `BENCHMARK.json` of the working directory, if the
/// file is there.
fn bounds() -> Vec<Option<f64>> {
    let file = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| serde_json::from_str::<serde_json::Value>(&t).ok());
    END_TO_END
        .iter()
        .map(|d| {
            let listed = file.as_ref()?["end_to_end"].as_array()?;
            listed.iter().find(|m| m["name"].as_str() == Some(d.name))?["bound"].as_f64()
        })
        .collect()
}

pub fn run(runs: usize, seconds: f64) -> ExitCode {
    let bounds = bounds();
    println!("| workload | metric | unit | better | set A median (q1 .. q3) | set B median (q1 .. q3) | spread A | spread B | \\|A-B\\|/A | bound | within half |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut worst = vec![0.0f64; END_TO_END.len()];
    for (workload, _) in WORKLOADS {
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..runs {
            for set in &mut sets {
                match one_run(workload, 1 + i, seconds) {
                    Ok(values) => values
                        .into_iter()
                        .zip(set.iter_mut())
                        .for_each(|(v, cell)| cell.push(v)),
                    Err(why) => {
                        eprintln!("{why}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            eprintln!("{workload}: pair {} of {runs} done", i + 1);
        }
        for (m, def) in END_TO_END.iter().enumerate() {
            let [a, b] = [quartiles(&sets[0][m]), quartiles(&sets[1][m])];
            let diff = (a[1] - b[1]).abs() / a[1];
            worst[m] = worst[m].max(diff);
            let cell = |q: [f64; 3]| format!("{:.6} ({:.6} .. {:.6})", q[1], q[0], q[2]);
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let (bound, verdict) = match bounds[m] {
                Some(bound) => (
                    format!("{bound}"),
                    if diff <= bound / 2.0 { "yes" } else { "NO" },
                ),
                None => ("-".to_string(), "-"),
            };
            println!(
                "| {workload} | {} | {} | {} | {} | {} | {:.4} | {:.4} | {diff:.4} | {bound} | {verdict} |",
                def.name,
                def.unit,
                def.better.as_str(),
                cell(a),
                cell(b),
                spread(a),
                spread(b),
            );
        }
    }
    println!();
    println!("| metric | largest \\|A-B\\|/A over workloads | bound |");
    println!("|---|---|---|");
    for (m, def) in END_TO_END.iter().enumerate() {
        println!(
            "| {} | {:.4} | {} |",
            def.name,
            worst[m],
            bounds[m].map_or("-".to_string(), |b| b.to_string())
        );
    }
    ExitCode::SUCCESS
}
