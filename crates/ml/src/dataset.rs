//! Dense binary-classification datasets.

/// A dense feature matrix (row-major) with boolean labels and feature
/// names. Feature names are carried through so that learned trees can be
/// pretty-printed as EM rules, e.g.
/// `jaccard(3gram(A.name), 3gram(B.name)) <= 0.31 -> No`.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    features: Vec<f64>,
    n_features: usize,
    labels: Vec<bool>,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Create an empty dataset with the given feature names.
    pub fn new(feature_names: Vec<String>) -> Self {
        let n_features = feature_names.len();
        Dataset {
            features: Vec::new(),
            n_features,
            labels: Vec::new(),
            feature_names,
        }
    }

    /// Create a dataset with anonymous feature names `f0..f{n-1}`.
    pub fn with_dims(n_features: usize) -> Self {
        Dataset::new((0..n_features).map(|i| format!("f{i}")).collect())
    }

    /// Build from rows of features and labels. Panics on ragged rows.
    pub fn from_rows(rows: &[Vec<f64>], labels: &[bool]) -> Self {
        assert_eq!(rows.len(), labels.len(), "rows/labels length mismatch");
        let n_features = rows.first().map_or(0, Vec::len);
        let mut d = Dataset::with_dims(n_features);
        for (row, &label) in rows.iter().zip(labels) {
            d.push(row, label);
        }
        d
    }

    /// Append one labeled example.
    pub fn push(&mut self, row: &[f64], label: bool) {
        assert_eq!(row.len(), self.n_features, "feature vector has wrong arity");
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if there are no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per example.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The feature vector of example `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// The label of example `i`.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Number of positive examples.
    pub fn n_positive(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// A new dataset containing the examples at `indices` (may repeat —
    /// that is how bootstrap sampling works).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut d = Dataset::new(self.feature_names.clone());
        d.n_features = self.n_features;
        d.features.reserve(indices.len() * self.n_features);
        d.labels.reserve(indices.len());
        for &i in indices {
            d.features.extend_from_slice(self.row(i));
            d.labels.push(self.labels[i]);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut d = Dataset::with_dims(2);
        d.push(&[1.0, 2.0], true);
        d.push(&[3.0, f64::NAN], false);
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(0), &[1.0, 2.0]);
        assert!(d.row(1)[1].is_nan());
        assert!(d.label(0));
        assert_eq!(d.n_positive(), 1);
        assert_eq!(d.feature_names(), &["f0".to_owned(), "f1".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut d = Dataset::with_dims(2);
        d.push(&[1.0], true);
    }

    #[test]
    fn subset_with_repeats() {
        let d = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0]], &[false, true, false]);
        let s = d.subset(&[1, 1, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.row(0), &[1.0]);
        assert_eq!(s.row(1), &[1.0]);
        assert_eq!(s.n_positive(), 2);
    }

    #[test]
    fn named_features() {
        let d = Dataset::new(vec!["jaccard_name".into(), "exact_isbn".into()]);
        assert_eq!(d.n_features(), 2);
        assert!(d.is_empty());
    }
}
