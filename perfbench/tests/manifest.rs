//! `BENCHMARK.json` names exactly the workloads and metrics the benchmark
//! reports, in its order.

use perfbench::workloads::ALL;
use perfbench::{END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    // Every `"name": …` entry, with the `"unit": …` that follows it (the
    // workloads have none).
    let entries: Vec<(&str, Option<&str>)> = manifest
        .split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = &entry[..entry.find('"').expect("closing quote")];
            let unit = entry
                .split_once("\"unit\": \"")
                .filter(|(before, _)| !before.contains('}'))
                .map(|(_, rest)| &rest[..rest.find('"').expect("closing quote")]);
            (name, unit)
        })
        .collect();
    let mut expected: Vec<(&str, Option<&str>)> = ALL.iter().map(|w| (w.name, None)).collect();
    expected.extend(
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, u)| (n, Some(u))),
    );
    assert_eq!(entries, expected);
}
