//! Regenerates the paper's Table 1: section extraction results on all 119
//! search engines (1190 pages). Usage:
//! `table1 [--small] [--threads N] [--write FILE]`.
//!
//! `--write FILE` also writes every row of Tables 1–3 and the failed-engine
//! list as JSON; `table1 --write results/paper_tables_2006.json` regenerates
//! the pin that `tests/paper_tables.rs` checks.

use mse_eval::{run_corpus, section_table, PaperTables};
use mse_testbed::{Corpus, CorpusConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    let config = if small {
        CorpusConfig::small(2006)
    } else {
        CorpusConfig::default()
    };
    let corpus = Corpus::generate(config);
    let cfg = mse_core::MseConfig::default();
    let t0 = std::time::Instant::now();
    let score = run_corpus(&corpus, &cfg, threads);
    let (s, t, total) = score.all();
    println!(
        "{}",
        section_table(
            &format!(
                "Table 1. Section extraction results on all {} search engines ({} pages, {:.1}s)",
                corpus.engines.len(),
                corpus.engines.len() * corpus.config.pages_per_engine,
                t0.elapsed().as_secs_f64()
            ),
            &[("S pgs", s), ("T pgs", t), ("Total", total)],
        )
    );
    let failed: Vec<usize> = score
        .outcomes
        .iter()
        .filter(|o| !o.built)
        .map(|o| o.engine_id)
        .collect();
    if !failed.is_empty() {
        println!("wrapper construction failed for engines: {failed:?}");
    }
    if let Some(path) = args
        .iter()
        .position(|a| a == "--write")
        .and_then(|i| args.get(i + 1))
    {
        let tables = PaperTables::from_score(corpus.config.seed, &score);
        let json = serde_json::to_string_pretty(&tables).expect("serialize tables");
        std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}
