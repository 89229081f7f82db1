//! `dagfact dist` writes its study to `--output` and nowhere else: run
//! from a directory that holds a `results/comm.json` (the repository root,
//! say), it must leave that file byte for byte as it was.

use dagfact_sparse::gen::grid_laplacian_3d;
use dagfact_sparse::mm::write_matrix_market_file;
use std::process::Command;

#[test]
fn dist_writes_its_record_to_output_and_leaves_results_alone() {
    let dir = std::env::temp_dir().join(format!("dagfact-cli-dist-{}", std::process::id()));
    let results = dir.join("results");
    std::fs::create_dir_all(&results).unwrap();
    let committed = results.join("comm.json");
    let before = b"{\"records\": [\"nine proxies\"]}\n";
    std::fs::write(&committed, before).unwrap();
    let matrix = dir.join("lap.mtx");
    write_matrix_market_file(&grid_laplacian_3d(6, 6, 6), &matrix).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_dagfact"))
        .current_dir(&dir)
        .args(["dist", "lap.mtx", "--nodes", "4", "--output", "study.json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("factorization: LLt"), "{stdout}");
    assert!(stdout.contains("study        : written to study.json"), "{stdout}");

    assert_eq!(std::fs::read(&committed).unwrap(), before, "results/comm.json was rewritten");
    let record = std::fs::read_to_string(dir.join("study.json")).unwrap();
    for key in ["\"matrix\": \"lap.mtx\"", "\"fan_in\"", "\"fan_out\"", "\"nnodes\": 4"] {
        assert!(record.contains(key), "missing {key} in {record}");
    }
    // Widths 1, 2, 4: one width record each.
    assert_eq!(record.matches("\"nnodes\"").count(), 3, "{record}");
    let _ = std::fs::remove_dir_all(&dir);
}
