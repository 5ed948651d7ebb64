//! End-to-end tests of the `smfl` command-line tool, driving the real
//! binary (`CARGO_BIN_EXE_smfl`) over temp-file CSVs.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smfl"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smfl_cli_{}_{name}", std::process::id()))
}

/// Spatially structured CSV with some empty (missing) cells.
fn write_sample(path: &PathBuf, n: usize) {
    let mut text = String::from("lat,lon,a,b\n");
    for i in 0..n {
        let x = (i % 17) as f64 / 17.0;
        let y = (i % 23) as f64 / 23.0;
        let a = 0.3 + 0.4 * x + 0.1 * y;
        let b = 0.7 - 0.3 * y;
        if i % 6 == 0 {
            text.push_str(&format!("{x:.4},{y:.4},,{b:.4}\n"));
        } else {
            text.push_str(&format!("{x:.4},{y:.4},{a:.4},{b:.4}\n"));
        }
    }
    std::fs::write(path, text).unwrap();
}

#[test]
fn impute_fills_every_missing_cell() {
    let input = temp("in.csv");
    let output = temp("out.csv");
    write_sample(&input, 90);
    let status = bin()
        .args(["impute", "--input"])
        .arg(&input)
        .arg("--output")
        .arg(&output)
        .args(["--rank", "4", "--max-iter", "60"])
        .status()
        .unwrap();
    assert!(status.success());
    let text = std::fs::read_to_string(&output).unwrap();
    // No empty cells remain.
    for (lineno, line) in text.lines().enumerate().skip(1) {
        for cell in line.split(',') {
            assert!(!cell.trim().is_empty(), "empty cell on line {}", lineno + 1);
            cell.trim().parse::<f64>().expect("numeric cell");
        }
    }
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
}

#[test]
fn impute_preserves_observed_values_exactly() {
    let input = temp("in2.csv");
    let output = temp("out2.csv");
    write_sample(&input, 60);
    assert!(bin()
        .args(["impute", "--input"])
        .arg(&input)
        .arg("--output")
        .arg(&output)
        .args(["--rank", "3", "--max-iter", "30"])
        .status()
        .unwrap()
        .success());
    let before = std::fs::read_to_string(&input).unwrap();
    let after = std::fs::read_to_string(&output).unwrap();
    for (lb, la) in before.lines().zip(after.lines()).skip(1) {
        for (cb, ca) in lb.split(',').zip(la.split(',')) {
            if !cb.trim().is_empty() {
                let vb: f64 = cb.trim().parse().unwrap();
                let va: f64 = ca.trim().parse().unwrap();
                assert!(
                    (vb - va).abs() < 1e-9,
                    "observed cell changed: {vb} -> {va}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
}

#[test]
fn model_flag_writes_loadable_model() {
    let input = temp("in3.csv");
    let output = temp("out3.csv");
    let model_path = temp("model3.txt");
    write_sample(&input, 60);
    assert!(bin()
        .args(["impute", "--input"])
        .arg(&input)
        .arg("--output")
        .arg(&output)
        .arg("--model")
        .arg(&model_path)
        .args(["--rank", "3", "--max-iter", "20"])
        .status()
        .unwrap()
        .success());
    let model = smfl_core::io::load(&model_path).unwrap();
    assert_eq!(model.u.cols(), 3);
    assert!(model.landmarks.is_some());
    for p in [&input, &output, &model_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn tune_prints_a_ranking() {
    let input = temp("in4.csv");
    write_sample(&input, 80);
    let out = bin()
        .args(["tune", "--input"])
        .arg(&input)
        .args(["--rank", "3", "--max-iter", "30"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("validation RMS"), "{text}");
    assert!(text.contains("best: --lambda"), "{text}");
    let _ = std::fs::remove_file(&input);
}

#[test]
fn bad_invocations_fail_cleanly() {
    // unknown command
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // missing input
    let out = bin()
        .args(["impute", "--output", "/tmp/x.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // unparseable flag value
    let input = temp("in5.csv");
    write_sample(&input, 30);
    let out = bin()
        .args(["impute", "--input"])
        .arg(&input)
        .args(["--output", "/tmp/x.csv", "--rank", "banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&input);
}

#[test]
fn detect_blanks_suspicious_cells() {
    let input = temp("in6.csv");
    let output = temp("out6.csv");
    // clean field plus one gross outlier
    let mut text = String::from("lat,lon,a\n");
    for i in 0..60 {
        let x = (i % 10) as f64 / 10.0;
        let y = (i / 10) as f64 / 6.0;
        let a = if i == 33 {
            9.9
        } else {
            0.4 + 0.1 * x + 0.05 * y
        };
        text.push_str(&format!("{x:.3},{y:.3},{a:.3}\n"));
    }
    std::fs::write(&input, text).unwrap();
    assert!(bin()
        .args(["detect", "--input"])
        .arg(&input)
        .arg("--output")
        .arg(&output)
        .status()
        .unwrap()
        .success());
    let flagged = std::fs::read_to_string(&output).unwrap();
    // the outlier row must have an empty third cell
    let line34 = flagged.lines().nth(34).unwrap();
    assert!(line34.ends_with(','), "outlier not blanked: {line34:?}");
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
}

/// Runs `smfl detect` on `text` and returns the flagged-cell count it
/// reports and the CSV it writes.
fn detect(name: &str, text: &str) -> (usize, String) {
    let input = temp(&format!("{name}_in.csv"));
    let output = temp(&format!("{name}_out.csv"));
    std::fs::write(&input, text).unwrap();
    let out = bin()
        .args(["detect", "--input"])
        .arg(&input)
        .arg("--output")
        .arg(&output)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let flagged = stdout
        .strip_prefix("flagged ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unexpected detect output {stdout:?}"));
    let written = std::fs::read_to_string(&output).unwrap();
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
    (flagged, written)
}

#[test]
fn detect_neither_flags_nor_fills_blank_cells() {
    // A smooth field observed in [100, 103] plus one gross outlier. The
    // loader stores 0.0 in a blank cell; normalizing with that zero, or
    // judging the blank itself, flags cells the clean table does not.
    let rows: Vec<[String; 4]> = (0..60)
        .map(|i| {
            let x = (i % 10) as f64 / 10.0;
            let y = (i / 10) as f64 / 6.0;
            let a = if i == 33 { 190.0 } else { 100.0 + 2.0 * x + y };
            let b = 101.0 + x - y;
            [
                format!("{x:.3}"),
                format!("{y:.3}"),
                format!("{a:.3}"),
                format!("{b:.3}"),
            ]
        })
        .collect();
    let table = |blank: &dyn Fn(usize, usize) -> bool| {
        let mut text = String::from("lat,lon,a,b\n");
        for (i, row) in rows.iter().enumerate() {
            let cells: Vec<&str> = (0..4)
                .map(|j| if blank(i, j) { "" } else { row[j].as_str() })
                .collect();
            text.push_str(&cells.join(","));
            text.push('\n');
        }
        text
    };
    let blank = |i: usize, j: usize| j >= 2 && i % 7 == j;
    let (clean_flags, _) = detect("blank_clean", &table(&|_, _| false));
    let (blank_flags, written) = detect("blank_holes", &table(&blank));
    assert!(
        blank_flags <= clean_flags,
        "blanking cells raised the flagged count: {clean_flags} -> {blank_flags}"
    );
    for (i, line) in written.lines().skip(1).enumerate() {
        for (j, cell) in line.split(',').enumerate() {
            if blank(i, j) {
                assert!(
                    cell.is_empty(),
                    "input blank ({i}, {j}) written as {cell:?}"
                );
            }
        }
    }
}
