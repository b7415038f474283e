//! Merges emitted `BENCH_*.json` files into the **bench-index-v1**
//! manifest (`BENCH_INDEX.json`).
//!
//! `scripts/bench.sh` runs this after the six emitters; the manifest
//! embeds each per-benchmark document verbatim under its file name, so
//! one artifact carries every series of the run and `perfmodel_check`
//! (the CI perf-regression gate) has a single input. Files that are
//! missing or not bench-emit-v1 are reported and skipped — a partial
//! bench run should still produce a gateable index.
//!
//! Usage: `bench_index_json [--out BENCH_INDEX.json] FILE...`

use std::io::Write;

use collectives::escape_json as escape;

fn main() {
    let mut out_path = String::from("BENCH_INDEX.json");
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown argument {flag}; usage: bench_index_json \
                     [--out BENCH_INDEX.json] FILE..."
                );
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("no input files; usage: bench_index_json [--out BENCH_INDEX.json] FILE...");
        std::process::exit(2);
    }

    let mut entries: Vec<(String, String)> = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("  skip {file}: {e}");
                continue;
            }
        };
        // Validate before embedding: the index must only ever contain
        // well-formed bench-emit-v1 documents.
        match perfmodel::parse_doc(&text) {
            Ok(doc) => {
                eprintln!(
                    "  add  {file}: \"{}\" ({} series, host {})",
                    doc.benchmark,
                    doc.series.len(),
                    doc.host_fingerprint
                );
                entries.push((file.clone(), text.trim_end().to_string()));
            }
            Err(e) => eprintln!("  skip {file}: {e}"),
        }
    }

    let mut json = String::from("{\n  \"schema\": \"bench-index-v1\",\n  \"entries\": [\n");
    for (i, (file, doc)) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"file\": \"{}\", \"doc\": {}}}{}\n",
            escape(file),
            doc,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // Self-check: the manifest we are about to write must parse back.
    if let Err(e) = perfmodel::parse_index(&json) {
        eprintln!("internal error: produced an unparseable index: {e}");
        std::process::exit(1);
    }

    let mut out = std::fs::File::create(&out_path).unwrap_or_else(|e| {
        eprintln!("cannot create {out_path}: {e}");
        std::process::exit(1);
    });
    out.write_all(json.as_bytes()).expect("write index");
    eprintln!(
        "wrote {out_path}: {} of {} files indexed",
        entries.len(),
        files.len()
    );
    if entries.is_empty() {
        std::process::exit(1);
    }
}
