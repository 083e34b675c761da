//! The size ledger: ROADMAP's north star names lines of Rust, `Backend`
//! trait methods and public stats types as first-class metrics, so they
//! (and the public types, the `impl Backend` sites, the bench-bin and the
//! CI-job counts) are
//! committed (`SIZE.json`) and recomputed here. The test fails when the file
//! is stale, which puts every growth — and every deletion — into the diff of
//! the PR that caused it.
//!
//! Counting rule: a *code line* is a line before a file's first
//! `#[cfg(test)]` (at column 0) that is neither blank nor a `//` comment
//! (doc comments included). Counted per crate over `crates/*/src/**/*.rs`,
//! and over `src/**/*.rs` for the root crate `webml`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const REGENERATE: &str = "cargo test --test size_ledger -- --ignored regenerate";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir).expect("readable source dir").map(|e| e.expect("dir entry").path()).collect();
    entries.sort();
    let mut files = Vec::new();
    for path in entries {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// The code lines of one file, by the counting rule.
fn code_lines(text: &str) -> Vec<&str> {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| {
            let line = line.trim_start();
            !line.is_empty() && !line.starts_with("//")
        })
        .collect()
}

/// Methods of `pub trait Backend` in `crates/core/src/backend.rs`.
fn backend_trait_methods() -> usize {
    let text = fs::read_to_string(root().join("crates/core/src/backend.rs")).expect("backend.rs");
    text.lines()
        .skip_while(|line| !line.starts_with("pub trait Backend"))
        .take_while(|line| *line != "}")
        .filter(|line| line.starts_with("    fn "))
        .count()
}

/// Jobs of `.github/workflows/ci.yml`: the keys one level under `jobs:`.
fn ci_jobs() -> usize {
    let text = fs::read_to_string(root().join(".github/workflows/ci.yml")).expect("ci.yml");
    text.lines()
        .skip_while(|line| *line != "jobs:")
        .filter(|line| line.starts_with("  ") && !line.starts_with("   ") && line.ends_with(':'))
        .count()
}

/// An `impl … Backend for …` header: one marshal layer.
fn is_backend_impl(line: &str) -> bool {
    line.starts_with("impl") && line.contains(" Backend for ")
}

/// A top-level `pub struct|enum|trait|type` declaration.
fn is_pub_type(line: &str) -> bool {
    ["pub struct ", "pub enum ", "pub trait ", "pub type "].iter().any(|p| line.starts_with(p))
}

fn is_stats_struct(line: &str) -> bool {
    line.strip_prefix("pub struct ").is_some_and(|rest| {
        let name: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        name.ends_with("Stats")
    })
}

fn ledger() -> String {
    let root = root();
    let mut crates: Vec<(String, PathBuf)> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("src").is_dir())
        .map(|p| (p.file_name().expect("crate dir").to_string_lossy().into_owned(), p.join("src")))
        .collect();
    crates.push(("webml".to_string(), root.join("src")));
    let mut lines_per_crate = BTreeMap::new();
    let mut sites: BTreeMap<&str, usize> =
        ["thread::spawn", "thread::sleep", "Instant::now"].into_iter().map(|s| (s, 0)).collect();
    let mut stats_structs = 0;
    let mut pub_types = 0;
    let mut backend_impls = 0;
    for (name, src) in crates {
        let mut count = 0;
        for file in rust_files(&src) {
            let text = fs::read_to_string(&file).expect("readable source file");
            let lines = code_lines(&text);
            count += lines.len();
            stats_structs += lines.iter().filter(|line| is_stats_struct(line)).count();
            pub_types += lines.iter().filter(|line| is_pub_type(line)).count();
            backend_impls += lines.iter().filter(|line| is_backend_impl(line)).count();
            for (needle, n) in sites.iter_mut() {
                *n += lines.iter().map(|line| line.matches(needle).count()).sum::<usize>();
            }
        }
        lines_per_crate.insert(name, count);
    }
    let bench_bins = rust_files(&root.join("crates/bench/src/bin")).len();

    let mut out = String::from("{\n");
    out.push_str("  \"rule\": \"lines before a file's first #[cfg(test)] that are neither blank nor //-comments\",\n");
    writeln!(out, "  \"regenerate\": \"{REGENERATE}\",").unwrap();
    out.push_str("  \"code_lines\": {\n");
    for (name, count) in &lines_per_crate {
        writeln!(out, "    \"{name}\": {count},").unwrap();
    }
    writeln!(out, "    \"total\": {}", lines_per_crate.values().sum::<usize>()).unwrap();
    out.push_str("  },\n");
    writeln!(out, "  \"backend_trait_methods\": {},", backend_trait_methods()).unwrap();
    writeln!(out, "  \"backend_impls\": {backend_impls},").unwrap();
    writeln!(out, "  \"pub_stats_structs\": {stats_structs},").unwrap();
    writeln!(out, "  \"pub_types\": {pub_types},").unwrap();
    writeln!(out, "  \"bench_bins\": {bench_bins},").unwrap();
    writeln!(out, "  \"ci_jobs\": {},", ci_jobs()).unwrap();
    writeln!(out, "  \"thread_spawn_sites\": {},", sites["thread::spawn"]).unwrap();
    writeln!(out, "  \"thread_sleep_sites\": {},", sites["thread::sleep"]).unwrap();
    writeln!(out, "  \"instant_now_sites\": {}", sites["Instant::now"]).unwrap();
    out.push_str("}\n");
    out
}

#[test]
fn size_ledger_is_current() {
    let committed = fs::read_to_string(root().join("SIZE.json")).unwrap_or_default();
    let current = ledger();
    assert!(
        committed == current,
        "SIZE.json is stale. Regenerate it with\n\n    {REGENERATE}\n\nand commit the result. \
         Recomputed:\n{current}"
    );
}

/// Not a check: rewrites `SIZE.json` from the tree.
#[test]
#[ignore = "writes SIZE.json; run explicitly to regenerate the ledger"]
fn regenerate() {
    fs::write(root().join("SIZE.json"), ledger()).expect("SIZE.json is writable");
}
