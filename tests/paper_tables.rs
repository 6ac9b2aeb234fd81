//! Pins the paper's Tables 1–3 on the seed-2006 corpus: every row (counts
//! and percentages) and the list of engines whose wrapper build fails must
//! equal the committed `results/paper_tables_2006.json`. A change that moves any
//! figure regenerates the file with
//! `cargo run --release -p mse-bench --bin table1 -- --write results/paper_tables_2006.json`
//! and says why.
//!
//! One corpus run (119 engines × 10 pages) in a test binary of its own.

use mse::core::MseConfig;
use mse::eval::{run_corpus, PaperTables};
use mse::testbed::{Corpus, CorpusConfig};

#[test]
fn tables_1_to_3_match_the_committed_pin() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/paper_tables_2006.json"
    );
    let pin: PaperTables =
        serde_json::from_str(&std::fs::read_to_string(path).expect("read the pin"))
            .expect("parse the pin");
    let corpus = Corpus::generate(CorpusConfig::default());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let score = run_corpus(&corpus, &MseConfig::default(), threads);
    let got = PaperTables::from_score(corpus.config.seed, &score);
    assert_eq!(
        got, pin,
        "Tables 1–3 moved from results/paper_tables_2006.json"
    );
}
