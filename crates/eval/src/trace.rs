//! Table-style rendering of fit telemetry (DESIGN.md §11) for the
//! efficiency experiments: turn a [`Trace`] recorded by a
//! `smfl_core::RecordingSink` (passed to `FitPlan::compile_with_sink`
//! and `solve_with_sink`) into the phase-breakdown and per-iteration
//! timing views the experiment binaries print next to Fig. 9 numbers.

use crate::timing::Timing;
use smfl_core::telemetry::{event_parts, Phase, Trace};

/// All phases in pipeline order (sub-spans after their parent).
const PHASES: [Phase; 10] = [
    Phase::SiFill,
    Phase::GraphBuild,
    Phase::GraphKnn,
    Phase::GraphAssembly,
    Phase::Landmarks,
    Phase::PatternCompile,
    Phase::PlanReuse,
    Phase::PlanCompile,
    Phase::WarmStart,
    Phase::UpdateLoop,
];

/// Per-iteration wall times as a [`Timing`], reusing its median/mean
/// statistics. `None` when the trace recorded no iterations (the
/// `Timing` statistics require at least one run).
pub fn iteration_timing(trace: &Trace) -> Option<Timing> {
    if trace.iterations.is_empty() {
        return None;
    }
    Some(Timing {
        runs: trace.iterations.iter().map(|e| e.wall).collect(),
    })
}

/// Phase breakdown as `(name, total wall seconds)` rows, in pipeline
/// order, with phases that never ran omitted.
pub fn phase_rows(trace: &Trace) -> Vec<(&'static str, f64)> {
    PHASES
        .iter()
        .filter_map(|&p| trace.span_total(p).map(|d| (p.name(), d.as_secs_f64())))
        .collect()
}

/// Renders a trace as an aligned plain-text table: phase timings,
/// iteration statistics, kernel counters, and any engine events.
pub fn render_table(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("phase                 total_s\n");
    for (name, secs) in phase_rows(trace) {
        out.push_str(&format!("{name:<20}  {secs:>10.6}\n"));
    }
    if let Some(timing) = iteration_timing(trace) {
        let accepted = trace.accepted_objectives().count();
        out.push_str(&format!(
            "iterations            {:>10} ({} accepted)\n",
            trace.iterations.len(),
            accepted
        ));
        out.push_str(&format!(
            "iter wall median_s    {:>10.6}\n",
            timing.median().as_secs_f64()
        ));
        out.push_str(&format!(
            "iter wall mean_s      {:>10.6}\n",
            timing.mean().as_secs_f64()
        ));
    }
    let c = &trace.counters;
    out.push_str(&format!(
        "kernels               sddmm={} spmm={} dense={} masked_nnz={}\n",
        c.sddmm, c.spmm, c.dense_steps, c.masked_nnz
    ));
    for e in &trace.events {
        let (name, detail) = event_parts(e);
        out.push_str(&format!("event                 {name}: {detail}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_core::{FitPlan, RecordingSink, SmflConfig, SolveOptions};
    use smfl_linalg::random::uniform_matrix;
    use smfl_linalg::Mask;

    fn traced() -> Trace {
        let x = uniform_matrix(25, 5, 0.0, 1.0, 3);
        let mut omega = Mask::full(25, 5);
        for i in (0..25).step_by(4) {
            omega.set(i, 2, false);
        }
        let cfg = SmflConfig::smfl(3, 2)
            .with_max_iter(8)
            .with_seed(3)
            .with_tol(0.0);
        let mut sink = RecordingSink::new();
        FitPlan::compile_with_sink(&x, &omega, &cfg, &mut sink)
            .unwrap()
            .solve_with_sink(&SolveOptions::new(), &mut sink)
            .unwrap();
        sink.into_trace()
    }

    #[test]
    fn iteration_timing_reuses_timing_statistics() {
        let trace = traced();
        let timing = iteration_timing(&trace).unwrap();
        assert_eq!(timing.runs.len(), trace.iterations.len());
        assert!(timing.median() <= timing.runs.iter().copied().max().unwrap());
        assert!(iteration_timing(&Trace::default()).is_none());
    }

    #[test]
    fn phase_rows_follow_pipeline_order_and_skip_missing() {
        let trace = traced();
        let rows = phase_rows(&trace);
        let names: Vec<&str> = rows.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"update_loop"));
        assert!(names.contains(&"landmarks"));
        // Order must match the PHASES constant's pipeline order.
        let order: Vec<usize> = names
            .iter()
            .map(|n| PHASES.iter().position(|p| p.name() == *n).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        // A default trace ran nothing.
        assert!(phase_rows(&Trace::default()).is_empty());
    }

    #[test]
    fn render_table_mentions_all_sections() {
        let trace = traced();
        let table = render_table(&trace);
        assert!(table.contains("update_loop"));
        assert!(table.contains("iter wall median_s"));
        assert!(table.contains("sddmm="));
        assert!(table.lines().count() >= 5, "table too short:\n{table}");
    }
}
