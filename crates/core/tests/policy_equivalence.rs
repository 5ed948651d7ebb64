//! Turning recovery on must not change the model clean input produces.
//!
//! On the four paper dataset generators at `Scale::Small`, with 10% of
//! attribute cells missing, a strict fit and a recovering fit
//! (`cfg.resilient()`) must agree bit for bit: factors, objective
//! history, iteration count and `FitReport`. The p-NN graphs of these
//! datasets are often disconnected; a disconnected Laplacian is still
//! PSD and regularizes each component on its own, so the recovering
//! engine must keep it. The test also asserts that at least one case
//! has a disconnected graph, so it keeps covering that input.

use smfl_core::{fit, FitPlan, SmflConfig};
use smfl_datasets::{economic, farm, inject_missing, lake, vehicle, Dataset, Scale};

const SEED: u64 = 3;

type Generator = fn(Scale, u64) -> Dataset;

#[test]
fn strict_and_recover_fits_are_bitwise_equal_on_paper_generators() {
    let generators: [(&str, Generator); 4] = [
        ("farm", farm),
        ("lake", lake),
        ("economic", economic),
        ("vehicle", vehicle),
    ];
    let mut disconnected = Vec::new();
    for (name, generate) in generators {
        let d = generate(Scale::Small, SEED);
        let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, d.n() / 10, SEED);
        let (x, omega) = (&inj.corrupted, &inj.omega);
        for p in [3, 5] {
            let strict = SmflConfig::smfl(6, 2)
                .with_lambda(10.0)
                .with_p(p)
                .with_max_iter(50)
                .with_seed(SEED);
            let recover = strict.clone().resilient();

            let components = FitPlan::compile(x, omega, &recover)
                .unwrap()
                .graph()
                .expect("the Laplacian term is kept")
                .connected_components();
            if components > 1 {
                disconnected.push(format!("{name} p={p}: {components} components"));
            }

            let a = fit(x, omega, &strict).unwrap();
            let b = fit(x, omega, &recover).unwrap();
            let case = format!("{name} p={p} ({components} graph components)");
            let bits = |h: &[f64]| h.iter().map(|o| o.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(a.u.as_slice()),
                bits(b.u.as_slice()),
                "{case}: U differs"
            );
            assert_eq!(
                bits(a.v.as_slice()),
                bits(b.v.as_slice()),
                "{case}: V differs"
            );
            assert_eq!(
                bits(&a.objective_history),
                bits(&b.objective_history),
                "{case}: objective history differs"
            );
            assert_eq!(a.iterations, b.iterations, "{case}: iterations differ");
            assert_eq!(a.report, b.report, "{case}: reports differ");
        }
    }
    assert!(
        !disconnected.is_empty(),
        "no case has a disconnected graph; the test no longer covers that input"
    );
}
