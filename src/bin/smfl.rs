//! `smfl` — command-line front end for the SMFL reproduction.
//!
//! ```text
//! smfl impute --input data.csv --output filled.csv [--rank 6] [--lambda 0.1]
//!             [--p 3] [--spatial-cols 2] [--variant smfl|smf|nmf] [--seed 0]
//!             [--model model.txt]
//! smfl repair --input data.csv --output repaired.csv [same options]
//! smfl detect --input data.csv --output flags.csv [--spatial-cols 2]
//! smfl tune   --input data.csv [--spatial-cols 2]
//! ```
//!
//! Input CSVs use empty cells (or `nan` / `?`) for missing values; all
//! other cells must be numeric. The first `--spatial-cols` columns are
//! treated as coordinates. `repair` first runs the Raha-lite detector,
//! then replaces the flagged cells with factorization values. `tune`
//! grid-searches λ/p/K by masked validation and prints the ranking.

use smfl_baselines::{ErrorDetector, RahaLite};
use smfl_core::{fit, ParamGrid, SmflConfig, Variant};
use smfl_datasets::csv::{from_csv_str_with_missing, to_csv_string, to_csv_string_with_missing};
use smfl_datasets::MinMaxScaler;
use smfl_linalg::{Mask, Matrix};
use std::process::ExitCode;

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn usage() -> String {
    "usage: smfl <impute|repair|detect|tune> --input <csv> [--output <csv>]\n\
     options: --rank K --lambda L --p P --spatial-cols N --variant smfl|smf|nmf\n\
     \x20        --seed S --max-iter T --model <path>  (see crate docs)"
        .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let command = argv.first().ok_or_else(usage)?.as_str();
    if !matches!(command, "impute" | "repair" | "detect" | "tune") {
        return Err(format!("unknown command {command:?}"));
    }
    let args = Args::parse(&argv[1..])?;
    let input = args.get("input").ok_or("--input is required")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let (columns, raw, omega) =
        from_csv_str_with_missing(&text).map_err(|e| format!("parsing {input}: {e}"))?;

    match command {
        "impute" => impute_cmd(&args, &columns, &raw, &omega, false),
        "repair" => impute_cmd(&args, &columns, &raw, &omega, true),
        "detect" => detect_cmd(&args, &columns, &raw, &omega),
        "tune" => tune_cmd(&args, &raw, &omega),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn config_from(args: &Args, raw: &Matrix) -> Result<SmflConfig, String> {
    let spatial_cols: usize = args.parsed("spatial-cols", 2)?;
    let rank: usize = args.parsed("rank", 6)?;
    let variant = match args.get("variant").unwrap_or("smfl") {
        "smfl" => Variant::Smfl,
        "smf" => Variant::Smf,
        "nmf" => Variant::Nmf,
        other => return Err(format!("--variant: unknown {other:?}")),
    };
    let base = match variant {
        Variant::Smfl => SmflConfig::smfl(rank, spatial_cols),
        Variant::Smf => SmflConfig::smf(rank, spatial_cols),
        Variant::Nmf => SmflConfig::nmf(rank),
    };
    let (default_lambda, default_p) = (base.lambda, base.p_neighbors);
    let config = base
        .with_lambda(args.parsed("lambda", default_lambda)?)
        .with_p(args.parsed("p", default_p)?)
        .with_seed(args.parsed("seed", 0u64)?)
        .with_max_iter(args.parsed("max-iter", 500usize)?);
    if config.rank >= raw.rows() {
        return Err(format!(
            "--rank {} must be below the number of rows ({})",
            config.rank,
            raw.rows()
        ));
    }
    Ok(config)
}

fn impute_cmd(
    args: &Args,
    columns: &[String],
    raw: &Matrix,
    omega: &Mask,
    repair_mode: bool,
) -> Result<String, String> {
    let output = args.get("output").ok_or("--output is required")?;
    let config = config_from(args, raw)?;

    // Normalize on the observed cells only, fit, then denormalize.
    let (scaler, normed) = normalize_observed(raw, omega)?;

    let (work_omega, detected) = if repair_mode {
        // Detect dirty cells among the *observed* ones, then treat both
        // the missing and the dirty cells as unobserved.
        let detector = RahaLite {
            spatial_cols: config.spatial_cols,
            ..RahaLite::default()
        };
        let dirty = detector.detect(&normed).map_err(|e| e.to_string())?;
        let dirty_observed = dirty.and(omega).map_err(|e| e.to_string())?;
        (
            omega
                .and(&dirty_observed.complement())
                .map_err(|e| e.to_string())?,
            dirty_observed.count(),
        )
    } else {
        (omega.clone(), 0)
    };

    let masked = work_omega.apply(&normed).map_err(|e| e.to_string())?;
    let model = fit(&masked, &work_omega, &config).map_err(|e| format!("fit failed: {e}"))?;
    let completed = model
        .impute(&masked, &work_omega)
        .map_err(|e| e.to_string())?;
    let denormed = scaler
        .inverse_transform(&completed)
        .map_err(|e| e.to_string())?;
    // Observed (and clean) cells keep their original raw values exactly.
    let final_matrix = work_omega.blend(raw, denormed).map_err(|e| e.to_string())?;

    std::fs::write(output, to_csv_string(columns, &final_matrix))
        .map_err(|e| format!("writing {output}: {e}"))?;
    if let Some(model_path) = args.get("model") {
        smfl_core::io::save(&model, std::path::Path::new(model_path))
            .map_err(|e| format!("writing {model_path}: {e}"))?;
    }
    let filled = work_omega.complement().count();
    Ok(if repair_mode {
        format!(
            "repaired {detected} detected cells (plus {} originally missing) -> {output} \
             [{} iterations, converged: {}]",
            filled - detected,
            model.iterations,
            model.converged
        )
    } else {
        format!(
            "imputed {filled} cells -> {output} [{} iterations, converged: {}]",
            model.iterations, model.converged
        )
    })
}

fn detect_cmd(
    args: &Args,
    columns: &[String],
    raw: &Matrix,
    omega: &Mask,
) -> Result<String, String> {
    let output = args.get("output").ok_or("--output is required")?;
    let spatial_cols: usize = args.parsed("spatial-cols", 2)?;
    let (_, normed) = normalize_observed(raw, omega)?;
    let detector = RahaLite {
        spatial_cols,
        ..RahaLite::default()
    };
    // Only an observed cell can be flagged: a blank has no value to judge.
    let dirty = detector
        .detect(&normed)
        .and_then(|d| d.and(omega))
        .map_err(|e| e.to_string())?;
    // Write the data with flagged cells blanked (and blank cells kept
    // blank), so the output is itself a valid `impute`/`repair` input.
    let clean_mask = omega.and(&dirty.complement()).map_err(|e| e.to_string())?;
    std::fs::write(
        output,
        to_csv_string_with_missing(columns, raw, &clean_mask),
    )
    .map_err(|e| format!("writing {output}: {e}"))?;
    Ok(format!(
        "flagged {} suspicious cells (blanked) -> {output}",
        dirty.count()
    ))
}

/// Min-max normalizes `raw` on the cells `omega` observes; every
/// unobserved cell of the result is 0.0, whatever placeholder it held.
fn normalize_observed(raw: &Matrix, omega: &Mask) -> Result<(MinMaxScaler, Matrix), String> {
    let scaler = MinMaxScaler::fit_observed(raw, omega).map_err(|e| e.to_string())?;
    let normed = scaler
        .transform(raw)
        .and_then(|n| omega.apply(&n))
        .map_err(|e| e.to_string())?;
    Ok((scaler, normed))
}

fn tune_cmd(args: &Args, raw: &Matrix, omega: &Mask) -> Result<String, String> {
    let config = config_from(args, raw)?;
    let (_, normed) = normalize_observed(raw, omega)?;
    let result = smfl_core::grid_search(
        &normed,
        omega,
        &config.with_max_iter(150),
        &ParamGrid::paper_ranges(),
        2,
        0.1,
    )
    .map_err(|e| format!("grid search failed: {e}"))?;
    let mut out = String::from("rank | lambda | p | K | validation RMS\n");
    for (idx, s) in result.ranking().iter().enumerate().take(10) {
        out.push_str(&format!(
            "{:>4} | {:>6} | {} | {} | {:.4}\n",
            idx + 1,
            s.config.lambda,
            s.config.p_neighbors,
            s.config.rank,
            s.validation_rms
        ));
    }
    if !result.skipped().is_empty() || result.fit_failures() > 0 {
        out.push_str(&format!(
            "skipped candidates: {} | failed fold fits: {} | empty folds: {}\n",
            result.skipped().len(),
            result.fit_failures(),
            result.skipped_folds()
        ));
    }
    out.push_str(&format!(
        "best: --lambda {} --p {} --rank {}",
        result.best().config.lambda,
        result.best().config.p_neighbors,
        result.best().config.rank
    ));
    Ok(out)
}
