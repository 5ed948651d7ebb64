//! Model persistence: save a fitted factorization to a plain-text file
//! and load it back (std-only, no serialization dependencies).
//!
//! Format (line-oriented, self-describing):
//!
//! ```text
//! smfl-model v1
//! u <rows> <cols>
//! <row of f64 ...>
//! ...
//! v <rows> <cols>
//! ...
//! landmarks <rows> <cols>   # optional section
//! ...
//! meta <spatial_cols> <iterations> <converged>
//! objective <len>
//! <one value per line>
//! ```
//!
//! Round-trip is bit-exact: values are written with `{:?}` (shortest
//! representation that parses back to the identical `f64`).

use crate::landmarks::Landmarks;
use crate::model::FittedModel;
use smfl_linalg::Matrix;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::path::Path;

/// Serializes a fitted model to the text format.
pub fn to_string(model: &FittedModel) -> String {
    let mut out = String::new();
    out.push_str("smfl-model v1\n");
    write_matrix(&mut out, "u", &model.u);
    write_matrix(&mut out, "v", &model.v);
    if let Some(lm) = &model.landmarks {
        write_matrix(&mut out, "landmarks", &lm.centers);
    }
    let _ = writeln!(
        out,
        "meta {} {} {}",
        model.spatial_cols, model.iterations, model.converged
    );
    let _ = writeln!(out, "objective {}", model.objective_history.len());
    for v in &model.objective_history {
        let _ = writeln!(out, "{v:?}");
    }
    out
}

/// Writes a fitted model to `path`.
pub fn save(model: &FittedModel, path: &Path) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_string(model).as_bytes())
}

/// Parses a model from the text format.
///
/// # Errors
/// `io::ErrorKind::InvalidData` on any structural or numeric problem.
pub fn from_str(text: &str) -> io::Result<FittedModel> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if header != "smfl-model v1" {
        return Err(bad(format!("unexpected header {header:?}")));
    }
    let mut u = None;
    let mut v = None;
    let mut landmarks = None;
    let mut meta = None;
    let mut objective = Vec::new();

    while let Some(line) = lines.next() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some(section @ ("u" | "v" | "landmarks")) => {
                let rows: usize = parse(parts.next())?;
                let cols: usize = parse(parts.next())?;
                let m = read_matrix(&mut lines, rows, cols)?;
                match section {
                    "u" => u = Some(m),
                    "v" => v = Some(m),
                    _ => landmarks = Some(m),
                }
            }
            Some("meta") => {
                let spatial_cols: usize = parse(parts.next())?;
                let iterations: usize = parse(parts.next())?;
                let converged: bool = parse(parts.next())?;
                meta = Some((spatial_cols, iterations, converged));
            }
            Some("objective") => {
                let len: usize = parse(parts.next())?;
                for _ in 0..len {
                    let line = lines.next().ok_or_else(|| bad("truncated objective"))?;
                    objective.push(
                        line.trim()
                            .parse::<f64>()
                            .map_err(|e| bad(format!("bad objective value: {e}")))?,
                    );
                }
            }
            Some(other) => return Err(bad(format!("unknown section {other:?}"))),
            None => {} // blank line
        }
    }
    let (spatial_cols, iterations, converged) = meta.ok_or_else(|| bad("missing meta section"))?;
    let u = u.ok_or_else(|| bad("missing u section"))?;
    let v = v.ok_or_else(|| bad("missing v section"))?;
    if u.cols() != v.rows() {
        return Err(bad(format!(
            "u is {:?} but v is {:?}: the rank differs",
            u.shape(),
            v.shape()
        )));
    }
    let want = (u.cols(), spatial_cols);
    if let Some(lm) = landmarks.as_ref().filter(|lm| lm.shape() != want) {
        return Err(bad(format!(
            "landmarks are {:?}, expected {want:?} (rank x spatial_cols)",
            lm.shape()
        )));
    }
    Ok(FittedModel {
        u,
        v,
        landmarks: landmarks.map(Landmarks::from_centers),
        objective_history: objective,
        iterations,
        converged,
        spatial_cols,
        // The fault-tolerance audit trail is runtime-only; the v1 format
        // intentionally does not persist it.
        report: crate::health::FitReport::default(),
    })
}

/// Loads a fitted model from `path`.
pub fn load(path: &Path) -> io::Result<FittedModel> {
    let mut text = String::new();
    std::fs::File::open(path)?.read_to_string(&mut text)?;
    from_str(&text)
}

fn write_matrix(out: &mut String, name: &str, m: &Matrix) {
    let _ = writeln!(out, "{name} {} {}", m.rows(), m.cols());
    for i in 0..m.rows() {
        let mut first = true;
        for &v in m.row(i) {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{v:?}");
            first = false;
        }
        out.push('\n');
    }
}

fn read_matrix<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    rows: usize,
    cols: usize,
) -> io::Result<Matrix> {
    rows.checked_mul(cols)
        .ok_or_else(|| bad(format!("a {rows} x {cols} matrix overflows usize")))?;
    // Grown as rows are read, never reserved from the header, so a
    // forged size fails at the first missing row instead of allocating.
    let mut data = Vec::new();
    for r in 0..rows {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("truncated matrix at row {r}")))?;
        let before = data.len();
        for cell in line.split_whitespace() {
            data.push(
                cell.parse::<f64>()
                    .map_err(|e| bad(format!("bad matrix value {cell:?}: {e}")))?,
            );
        }
        if data.len() - before != cols {
            return Err(bad(format!(
                "row {r} has {} values, expected {cols}",
                data.len() - before
            )));
        }
    }
    Matrix::from_vec(rows, cols, data).map_err(|e| bad(e.to_string()))
}

fn parse<T: std::str::FromStr>(token: Option<&str>) -> io::Result<T>
where
    T::Err: std::fmt::Display,
{
    token
        .ok_or_else(|| bad("missing token"))?
        .parse::<T>()
        .map_err(|e| bad(format!("bad token: {e}")))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmflConfig;
    use crate::model::fit;
    use smfl_linalg::random::uniform_matrix;
    use smfl_linalg::Mask;

    fn fitted() -> FittedModel {
        let si = uniform_matrix(30, 2, 0.0, 1.0, 1);
        let x = Matrix::from_fn(30, 4, |i, j| {
            if j < 2 {
                si.get(i, j)
            } else {
                (0.3 + 0.5 * si.get(i, 0)).clamp(0.0, 1.0)
            }
        });
        let mut omega = Mask::full(30, 4);
        omega.set(3, 3, false);
        fit(&x, &omega, &SmflConfig::smfl(3, 2).with_max_iter(10)).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let model = fitted();
        let text = to_string(&model);
        let back = from_str(&text).unwrap();
        assert!(back.u.approx_eq(&model.u, 0.0));
        assert!(back.v.approx_eq(&model.v, 0.0));
        assert_eq!(back.iterations, model.iterations);
        assert_eq!(back.converged, model.converged);
        assert_eq!(back.spatial_cols, model.spatial_cols);
        assert_eq!(back.objective_history, model.objective_history);
        assert!(back
            .landmarks
            .as_ref()
            .unwrap()
            .centers
            .approx_eq(&model.landmarks.as_ref().unwrap().centers, 0.0));
    }

    #[test]
    fn roundtrip_through_file() {
        let model = fitted();
        let path = std::env::temp_dir().join("smfl_model_io_test.txt");
        save(&model, &path).unwrap();
        let back = load(&path).unwrap();
        assert!(back.u.approx_eq(&model.u, 0.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn model_without_landmarks_roundtrips() {
        let x = uniform_matrix(10, 3, 0.0, 1.0, 2);
        let omega = Mask::full(10, 3);
        let model = fit(&x, &omega, &SmflConfig::nmf(2).with_max_iter(5)).unwrap();
        let back = from_str(&to_string(&model)).unwrap();
        assert!(back.landmarks.is_none());
        assert!(back.v.approx_eq(&model.v, 0.0));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(from_str("").is_err());
        assert!(from_str("wrong header\n").is_err());
        assert!(from_str("smfl-model v1\nu 2 2\n1 2\n").is_err()); // truncated
        assert!(from_str("smfl-model v1\nbanana 1 1\n0\n").is_err());
        assert!(from_str("smfl-model v1\nu 1 1\nnotanumber\n").is_err());
        // missing meta
        assert!(from_str("smfl-model v1\nu 1 1\n0.5\nv 1 1\n0.5\n").is_err());
    }

    /// A well-formed model text with one of its sections replaced.
    fn model_text(u: &str, v: &str, landmarks: &str) -> String {
        format!("smfl-model v1\n{u}{v}{landmarks}meta 1 3 true\nobjective 1\n0.5\n")
    }

    const U: &str = "u 2 2\n0.1 0.2\n0.3 0.4\n";
    const V: &str = "v 2 3\n1 2 3\n4 5 6\n";
    const LANDMARKS: &str = "landmarks 2 1\n1\n4\n";

    #[test]
    fn well_formed_model_text_loads() {
        let model = from_str(&model_text(U, V, LANDMARKS)).unwrap();
        assert_eq!((model.u.shape(), model.v.shape()), ((2, 2), (2, 3)));
        assert_eq!(model.landmarks.unwrap().centers.shape(), (2, 1));
    }

    #[test]
    fn huge_header_is_rejected_without_allocating() {
        let text = model_text("u 3000000000 1000\n0.5\n", V, "");
        let err = from_str(&text).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn overflowing_header_is_rejected() {
        let text = model_text("u 18446744073709551615 2\n0.5 0.5\n", V, "");
        let err = from_str(&text).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        // Four values for a 2 x 2 matrix, split 3 + 1.
        let text = model_text("u 2 2\n0.1 0.2 0.3\n0.4\n", V, "");
        let err = from_str(&text).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn factor_rank_mismatch_is_rejected() {
        let v = "v 3 3\n1 2 3\n4 5 6\n7 8 9\n";
        let err = from_str(&model_text(U, v, "")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn misshapen_landmarks_are_rejected() {
        // K = 2 and spatial_cols = 1: a 1 x 1 block and a 2 x 2 block
        // are both wrong.
        for lm in ["landmarks 1 1\n1\n", "landmarks 2 2\n1 2\n4 5\n"] {
            let err = from_str(&model_text(U, V, lm)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{lm:?}");
        }
    }

    #[test]
    fn loaded_model_imputes_identically() {
        let si = uniform_matrix(25, 2, 0.0, 1.0, 3);
        let x = Matrix::from_fn(25, 4, |i, j| if j < 2 { si.get(i, j) } else { 0.5 });
        let mut omega = Mask::full(25, 4);
        omega.set(5, 2, false);
        let model = fit(&x, &omega, &SmflConfig::smf(3, 2).with_max_iter(10)).unwrap();
        let back = from_str(&to_string(&model)).unwrap();
        let a = model.impute(&x, &omega).unwrap();
        let b = back.impute(&x, &omega).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }
}
