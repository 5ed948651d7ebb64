//! Clustering with missing values (paper §IV-B4 / Fig. 4b): impute,
//! then cluster, then score against ground-truth region labels.
//!
//! ```text
//! cargo run --release --example clustering_lake
//! ```

use smfl_baselines::{Clusterer, MfClusterStrategy, MfClusterer, PcaKMeans};
use smfl_datasets::{inject_missing, lake, Scale};
use smfl_eval::clustering_accuracy;

fn main() {
    let dataset = lake(Scale::Small, 11);
    let truth = dataset.cluster_labels.as_ref().expect("lake has labels");
    let k = truth.iter().max().map_or(1, |m| m + 1);
    println!(
        "{}: {} tuples, {} ground-truth regions",
        dataset.name,
        dataset.n(),
        k
    );

    let inj = inject_missing(&dataset.data, &dataset.attribute_cols(), 0.10, 100, 2);

    let methods: Vec<Box<dyn Clusterer>> = vec![
        Box::new(PcaKMeans::default()),
        Box::new(MfClusterer::nmf()),
        Box::new(MfClusterer::smf(2)),
        Box::new(MfClusterer::smfl(2)),
        // The U-as-membership reading (paper §I) as an alternative:
        Box::new(MfClusterer::smfl(2).with_strategy(MfClusterStrategy::CoefficientProfiles)),
    ];
    for (idx, method) in methods.iter().enumerate() {
        let labels = method
            .cluster(&inj.corrupted, &inj.omega, k)
            .expect("clustering succeeds");
        let acc = clustering_accuracy(truth, &labels);
        let tag = if idx == 4 { " (U-profiles)" } else { "" };
        println!("{}{tag}: accuracy {acc:.3}", method.name());
    }
}
